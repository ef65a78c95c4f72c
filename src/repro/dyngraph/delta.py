"""Delta-CSR dynamic graph: a frozen base plus streaming mutations.

Everything downstream of :mod:`repro.graph.csr` — the kernels, the
partitioner, training, serving — consumes an immutable
:class:`~repro.graph.csr.CSRGraph`.  Production topology is not frozen:
new interactions arrive continuously and old ones are retracted.
:class:`DynamicGraph` bridges the two worlds the way DGL's mutable
``DGLGraph`` fronts its immutable CSR formats: the bulk of the edges
live in a frozen CSR **base**, arriving edges append to a small COO
**delta** buffer (O(1) amortized per edge, no CSR rebuild), and
deletions mark **tombstones** instead of rewriting either store.

The merged view :meth:`csr` presents exactly the graph that a
from-scratch rebuild over the surviving edge sequence would produce:
``coo_to_csr`` sorts destination-major with a *stable* sort, so base
edges keep their row order and delta edges land after them in arrival
order.  :meth:`compact` folds the delta into a fresh base — pinned
bit-identical (``indptr``/``indices``/``edge_ids``) to that rebuild —
and mutation methods trigger it automatically once the delta fraction
passes ``compact_threshold``, keeping view and mutation costs bounded.

Edge identifiers are stable across the graph's lifetime: an edge keeps
the id it was assigned on insertion (base edges keep the base's ids),
deleted ids are never reused, and :meth:`compact` preserves them — so
edge feature rows and partition assignments indexed by edge id survive
any number of mutations and compactions.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.graph.builders import coo_to_csr
from repro.graph.csr import CSRGraph, INDEX_DTYPE


def _as_endpoint_arrays(
    src, dst, num_vertices: int, what: str
) -> Tuple[np.ndarray, np.ndarray]:
    src = np.atleast_1d(np.asarray(src, dtype=INDEX_DTYPE))
    dst = np.atleast_1d(np.asarray(dst, dtype=INDEX_DTYPE))
    if src.ndim != 1 or dst.ndim != 1 or src.size != dst.size:
        raise ValueError(
            f"{what} endpoints must be equal-length 1-D sequences, "
            f"got shapes {src.shape} and {dst.shape}"
        )
    if src.size and (
        src.min() < 0
        or dst.min() < 0
        or src.max() >= num_vertices
        or dst.max() >= num_vertices
    ):
        raise ValueError(
            f"{what} endpoints must be in [0, {num_vertices}); the vertex "
            "set of a DynamicGraph is fixed (features/labels align to it)"
        )
    return src, dst


class DynamicGraph:
    """Mutable directed graph over a fixed vertex set.

    Parameters
    ----------
    base:
        Starting topology.  Must be square (``num_src == num_vertices``):
        the vertex set is fixed for the graph's lifetime because every
        aligned array (features, labels, embedding tables) is sized to it.
    compact_threshold:
        Auto-compact when ``delta_fraction`` exceeds this value after a
        mutation.  ``None`` disables auto-compaction (callers compact
        explicitly).
    """

    def __init__(
        self, base: CSRGraph, compact_threshold: Optional[float] = 0.25
    ):
        if not base.is_square:
            raise ValueError(
                "DynamicGraph requires a square base graph "
                f"(num_src={base.num_src} != num_vertices={base.num_vertices})"
            )
        if compact_threshold is not None and compact_threshold <= 0:
            raise ValueError("compact_threshold must be positive (or None)")
        self._base = base
        self.compact_threshold = compact_threshold
        #: per-base-edge liveness (tombstones are ``False`` entries).
        self._base_alive = np.ones(base.num_edges, dtype=bool)
        self._base_dead = 0
        # delta buffers: python lists so appends are O(1) amortized
        self._d_src: List[int] = []
        self._d_dst: List[int] = []
        self._d_eid: List[int] = []
        self._d_alive: List[bool] = []
        self._d_dead = 0
        #: (u, v) -> delta positions, so a remove_edges pair lookup
        #: costs O(matches) instead of a full delta scan
        self._d_index: dict = {}
        #: next edge id to hand out (ids are never reused)
        self._next_eid = int(base.edge_ids.max(initial=-1)) + 1
        self._merged: Optional[CSRGraph] = None  # cached merged CSR
        self.num_compactions = 0
        self.num_added = 0
        self.num_removed = 0

    # -- sizes -----------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self._base.num_vertices

    @property
    def num_edges(self) -> int:
        """Live edges across base and delta."""
        return (
            self._base.num_edges
            - self._base_dead
            + len(self._d_src)
            - self._d_dead
        )

    @property
    def num_delta_edges(self) -> int:
        """Live edges still in the delta buffer."""
        return len(self._d_src) - self._d_dead

    @property
    def num_tombstones(self) -> int:
        """Dead entries still occupying the base or delta stores."""
        return self._base_dead + self._d_dead

    @property
    def delta_fraction(self) -> float:
        """Un-compacted state relative to the base: ``(delta entries +
        base tombstones) / base edges``.  This is the quantity the
        auto-compaction threshold is compared against — it measures how
        far the stores have drifted from a clean CSR, not graph growth.
        """
        return (len(self._d_src) + self._base_dead) / max(
            self._base.num_edges, 1
        )

    # -- mutation --------------------------------------------------------------

    def add_edges(self, src, dst) -> np.ndarray:
        """Append edges ``src[i] -> dst[i]``; returns their new edge ids.

        Parallel edges are allowed (the base CSR allows them too).
        """
        src, dst = _as_endpoint_arrays(src, dst, self.num_vertices, "add")
        eids = np.arange(
            self._next_eid, self._next_eid + src.size, dtype=INDEX_DTYPE
        )
        pos = len(self._d_src)
        self._d_src.extend(src.tolist())
        self._d_dst.extend(dst.tolist())
        self._d_eid.extend(eids.tolist())
        self._d_alive.extend([True] * src.size)
        for i, (u, v) in enumerate(zip(src.tolist(), dst.tolist())):
            self._d_index.setdefault((u, v), []).append(pos + i)
        self._next_eid += src.size
        self.num_added += src.size
        self._dirty()
        return eids

    def remove_edges(self, src, dst) -> np.ndarray:
        """Tombstone every live edge matching each ``(src[i], dst[i])``.

        Parallel edges matching a pair are all removed; a pair with no
        live match raises ``ValueError``.  The whole batch is validated
        before any tombstone is written, so a failing pair leaves the
        graph untouched.  Returns the removed edge ids.
        """
        src, dst = _as_endpoint_arrays(src, dst, self.num_vertices, "remove")
        taken = set()
        victims: List[Tuple[str, int, int]] = []  # (store, pos, dst)
        for u, v in zip(src.tolist(), dst.tolist()):
            hits = [h for h in self._live_matches(u, v) if h not in taken]
            if not hits:
                raise ValueError(f"no live edge {u} -> {v} to remove")
            taken.update(hits)
            victims.extend((store, pos, v) for store, pos in hits)
        removed: List[int] = []
        for store, pos, v in victims:
            if store == "base":
                self._base_alive[pos] = False
                self._base_dead += 1
                removed.append(int(self._base.edge_ids[pos]))
            else:
                self._d_alive[pos] = False
                self._d_dead += 1
                removed.append(self._d_eid[pos])
            self.num_removed += 1
        if removed:
            self._dirty()
        return np.asarray(removed, dtype=INDEX_DTYPE)

    def _live_matches(self, u: int, v: int) -> List[Tuple[str, int]]:
        """``(store, position)`` of every live edge ``u -> v``."""
        lo, hi = int(self._base.indptr[v]), int(self._base.indptr[v + 1])
        row = self._base.indices[lo:hi]
        alive = self._base_alive[lo:hi]
        hits: List[Tuple[str, int]] = [
            ("base", lo + int(i)) for i in np.flatnonzero((row == u) & alive)
        ]
        for i in self._d_index.get((u, v), ()):
            if self._d_alive[i]:
                hits.append(("delta", i))
        return hits

    def _dirty(self) -> None:
        self._merged = None
        if (
            self.compact_threshold is not None
            and self.delta_fraction > self.compact_threshold
        ):
            self.compact()

    # -- merged read view -------------------------------------------------------

    def live_edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Surviving ``(src, dst, edge_ids)`` — base storage order first,
        then delta arrival order.  This is *the* canonical edge sequence:
        ``coo_to_csr`` over it defines what :meth:`csr`/:meth:`compact`
        must equal bit-for-bit.
        """
        alive = self._base_alive
        d_alive = np.asarray(self._d_alive, dtype=bool)
        b_src, b_dst, b_eid = self._base.to_coo()
        d_src = np.asarray(self._d_src, dtype=INDEX_DTYPE)[d_alive]
        d_dst = np.asarray(self._d_dst, dtype=INDEX_DTYPE)[d_alive]
        d_eid = np.asarray(self._d_eid, dtype=INDEX_DTYPE)[d_alive]
        return (
            np.concatenate([b_src[alive], d_src]),
            np.concatenate([b_dst[alive], d_dst]),
            np.concatenate([b_eid[alive], d_eid]),
        )

    def csr(self) -> CSRGraph:
        """The merged topology as an immutable :class:`CSRGraph`.

        Bit-identical to rebuilding from scratch over :meth:`live_edges`
        (cached until the next mutation; after a compaction this is the
        base itself, so the call is free).
        """
        if self._merged is None:
            if self.num_tombstones == 0 and not self._d_src:
                self._merged = self._base
            else:
                src, dst, eid = self.live_edges()
                n = self.num_vertices
                self._merged = coo_to_csr(
                    src, dst, num_dst=n, num_src=n, edge_ids=eid
                )
        return self._merged

    # -- compaction -------------------------------------------------------------

    def compact(self) -> CSRGraph:
        """Fold delta and tombstones into a fresh frozen base.

        Returns the new base, bit-identical to ``coo_to_csr`` over the
        surviving edge sequence.  Edge ids are preserved; the id counter
        keeps monotonically increasing so removed ids are never reused.
        """
        new_base = self.csr()
        self._base = new_base
        self._base_alive = np.ones(new_base.num_edges, dtype=bool)
        self._base_dead = 0
        self._d_src, self._d_dst, self._d_eid = [], [], []
        self._d_alive, self._d_dead = [], 0
        self._d_index = {}
        self._merged = new_base
        self.num_compactions += 1
        return new_base

    def stats(self) -> dict:
        return {
            "num_vertices": self.num_vertices,
            "num_edges": self.num_edges,
            "num_base_edges": int(self._base.num_edges),
            "num_delta_edges": self.num_delta_edges,
            "num_tombstones": self.num_tombstones,
            "delta_fraction": self.delta_fraction,
            "num_added": self.num_added,
            "num_removed": self.num_removed,
            "num_compactions": self.num_compactions,
            "compact_threshold": self.compact_threshold,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicGraph(num_vertices={self.num_vertices}, "
            f"num_edges={self.num_edges}, delta={self.num_delta_edges}, "
            f"tombstones={self.num_tombstones})"
        )
