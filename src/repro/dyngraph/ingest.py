"""Resumable streaming Libra: online partition assignment for arriving edges.

Libra's greedy rule (:mod:`repro.partition.libra`) is inherently
streaming — each edge's assignment depends only on the membership and
the load vector accumulated over all *previous* edges.
:class:`LibraState` materializes exactly that state so a service can
assign partitions to edges as they arrive, one or a chunk at a time,
instead of re-running the batch partitioner over the whole graph.

Membership is stored packed: one Python-int bitmask per vertex (bit
``p`` <=> partition ``p`` holds a clone; any P is one code path).  Per
edge the rule reads two masks, takes ``(mu & mv) or (mu | mv) or ALL``
and scans the candidate bits for the smallest ``float(load[p]) +
tie[p]``, so ``assign`` costs O(chunk), never O(``num_vertices``); the
bool ``(n, P)`` matrix is the derived :attr:`LibraState.member` and the
``.npz`` layout.  The 1e-9 tie noise is rounded away by that addition
past ~2**23 edges per partition; ties then fall to the lowest id
(inherited behaviour, preserved bit for bit).

Equivalence contract (pinned in ``tests/dyngraph/test_ingest.py``):
feeding any prefix/suffix split of an edge sequence through one
``LibraState`` — across process restarts via :meth:`save` /
:meth:`load` — produces byte-identical assignments, loads, and
membership to one :func:`repro.partition.libra.libra_partition` replay
over the concatenated sequence with ``shuffle_edges=False`` and the same
seed.  (The batch partitioner's optional pre-shuffle is an offline
luxury; an online stream *is* its own arrival order.)

Because the state carries the membership, it also knows the current
replication factor at every step.  Streaming assignment is greedy and
never revisits old decisions, so quality drifts as the graph grows:
:meth:`set_baseline` + :meth:`should_repartition` implement the drift
trigger that recommends an offline repartition once the replication
factor has degraded past a tolerance.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph, INDEX_DTYPE

#: edges converted to Python ints at a time (bounds assign's transients)
_SLICE = 1 << 16


class LibraStateError(ValueError):
    """A saved :class:`LibraState` file is truncated, corrupt or inconsistent."""


def _endpoints(a, num_vertices: int) -> np.ndarray:
    """One endpoint sequence as a validated int64 array."""
    a = np.atleast_1d(np.asarray(a))
    if a.size and a.dtype.kind not in "iu":  # asarray(dtype=int) would truncate 0.7
        raise ValueError(f"edge endpoints must be integers, got dtype {a.dtype}")
    a = a.astype(np.int64, copy=False)
    # one reduction for both bounds: a negative int64 viewed unsigned is >= 2**63
    if a.size and a.view(np.uint64).max() >= np.uint64(num_vertices):
        raise ValueError(f"edge endpoints must be in [0, {num_vertices})")
    return a


class LibraState:
    """Online Libra partitioner state (membership, loads, tie-break noise).

    Parameters
    ----------
    num_vertices:
        Size of the (fixed) vertex set the membership matrix covers.
    num_partitions:
        Number of partitions (sockets).
    seed:
        Seeds the tie-break noise exactly like
        ``libra_partition(..., seed, shuffle_edges=False)`` does, which
        is what makes streaming and batch replay bit-equal.
    """

    def __init__(self, num_vertices: int, num_partitions: int, seed: int = 0):
        n, p = int(num_vertices), int(num_partitions)
        if p < 1:
            raise ValueError("num_partitions must be >= 1")
        if n < 0:
            raise ValueError("num_vertices must be >= 0")
        self.num_vertices = n
        self.num_partitions = p
        self.seed = int(seed)
        #: vertex -> bitmask of the partitions holding a clone of it
        self._masks = [0] * n
        #: edges per partition
        self.load = np.zeros(p, dtype=np.int64)
        # Identical draw to libra_partition(shuffle_edges=False): the
        # permutation is never taken there, so random(p) is the first
        # consumption of the generator in both places.
        self.tie = np.random.default_rng(seed).random(p) * 1e-9
        self.num_assigned = 0
        self.baseline_rf: Optional[float] = None

    # -- assignment -------------------------------------------------------------

    def assign(self, src, dst) -> np.ndarray:
        """Assign a chunk of arriving edges, in order; returns partitions.

        The loop is sequential by construction (each decision feeds the
        next) and O(chunk): two masks, one load, one cached key per edge.
        """
        src = _endpoints(src, self.num_vertices)
        dst = _endpoints(dst, self.num_vertices)
        if src.shape != dst.shape or src.ndim != 1:
            raise ValueError("src/dst must be equal-length 1-D sequences")
        out = np.zeros(src.size, dtype=INDEX_DTYPE)
        masks, everywhere = self._masks, (1 << self.num_partitions) - 1
        load, tie = self.load.tolist(), self.tie.tolist()
        # key[p] is the IEEE double np.argmin(load + tie) would compare;
        # derived per call because callers may swap `tie` after __init__
        key = [float(l) + t for l, t in zip(load, tie)]
        for lo in range(0, src.size, _SLICE):
            hi, parts = lo + _SLICE, []
            for u, v in zip(src[lo:hi].tolist(), dst[lo:hi].tolist()):
                mu, mv = masks[u], masks[v]
                cand = (mu & mv) or (mu | mv) or everywhere
                part = (cand & -cand).bit_length() - 1
                cand &= cand - 1  # drop the lowest set bit
                while cand:  # ascending p, strict <: argmin's first-index ties
                    p = (cand & -cand).bit_length() - 1
                    cand &= cand - 1
                    if key[p] < key[part]:
                        part = p
                bit = 1 << part
                masks[u], masks[v] = mu | bit, mv | bit
                load[part] += 1
                key[part] = load[part] + tie[part]
                parts.append(part)
            out[lo:hi] = parts
        self.load[:] = load
        self.num_assigned += src.size
        return out

    def assign_graph(self, graph: CSRGraph) -> np.ndarray:
        """Stream a whole graph in CSR storage order.

        Returns the assignment indexed by **edge id** — the same indexing
        (and, by the equivalence contract, the same values) as
        ``libra_partition(graph, p, seed, shuffle_edges=False)``.
        """
        src, dst, eid = graph.to_coo()
        assignment = np.zeros(graph.num_edges, dtype=INDEX_DTYPE)
        assignment[eid] = self.assign(src, dst)
        return assignment

    # -- quality / drift --------------------------------------------------------

    @property
    def member(self) -> np.ndarray:
        """Bool ``(num_vertices, num_partitions)`` membership, unpacked
        from the masks on every read: O(n * P), not for hot loops."""
        width = (self.num_partitions + 7) // 8
        raw = b"".join(m.to_bytes(width, "little") for m in self._masks)
        rows = np.frombuffer(raw, dtype=np.uint8).reshape(-1, width)
        return np.unpackbits(
            rows, axis=1, count=self.num_partitions, bitorder="little"
        ).view(bool)

    @member.setter
    def member(self, member: np.ndarray) -> None:
        width = (self.num_partitions + 7) // 8
        raw = np.packbits(member, axis=1, bitorder="little").tobytes()
        rows = range(0, len(raw), width)
        self._masks = [int.from_bytes(raw[i:i + width], "little") for i in rows]

    @property
    def replication_factor(self) -> float:
        """Average clones per present vertex (paper Table 4 metric)."""
        present = self.num_vertices - self._masks.count(0)
        clones = sum(map(int.bit_count, self._masks))  # exact ints: == the mean
        return clones / present if present else 0.0

    def set_baseline(self, rf: Optional[float] = None) -> float:
        """Record the reference replication factor drift is measured from
        (defaults to the current one, e.g. right after bulk ingest)."""
        self.baseline_rf = float(
            self.replication_factor if rf is None else rf
        )
        return self.baseline_rf

    def drift(self) -> float:
        """Relative replication-factor growth over the baseline."""
        if not self.baseline_rf:
            return 0.0
        return self.replication_factor / self.baseline_rf - 1.0

    def should_repartition(self, tolerance: float = 0.1) -> bool:
        """Recommend an offline repartition once streaming quality has
        drifted more than ``tolerance`` (relative) past the baseline."""
        if tolerance < 0:
            raise ValueError("tolerance must be >= 0")
        return self.drift() > tolerance

    # -- persistence ------------------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "num_vertices": np.asarray(self.num_vertices),
            "num_partitions": np.asarray(self.num_partitions),
            "seed": np.asarray(self.seed),
            "member": np.packbits(self.member, axis=0),
            "load": self.load,
            "tie": self.tie,
            "num_assigned": np.asarray(self.num_assigned),
            "baseline_rf": np.asarray(
                np.nan if self.baseline_rf is None else self.baseline_rf
            ),
        }

    def save(self, path: str) -> None:
        """Persist to ``.npz`` so ingestion survives a process restart (temp
        file + ``os.replace``: a crash mid-save keeps the previous file)."""
        path = os.fspath(path)
        path = path if path.endswith(".npz") else path + ".npz"
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                np.savez_compressed(fh, **self.state_dict())
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    @classmethod
    def load(cls, path: str) -> "LibraState":
        """Resume from :meth:`save`; a truncated, corrupt or inconsistent
        file raises :class:`LibraStateError`."""
        import zipfile  # deferred like numpy's own: ~10 ms only a resume needs
        import zlib

        if not os.path.exists(path) and os.path.exists(path + ".npz"):
            path = path + ".npz"
        with open(path, "rb") as fh:
            try:
                with np.load(fh) as data:
                    f = dict(data)
                state = cls(
                    int(f["num_vertices"]), int(f["num_partitions"]),
                    seed=int(f["seed"]),
                )
                n, p = state.num_vertices, state.num_partitions
                state.load = f["load"].astype(np.int64)
                state.tie = f["tie"]  # resumed verbatim, not re-drawn
                state.num_assigned = int(f["num_assigned"])
                shapes = [f["member"].shape, state.load.shape, state.tie.shape]
                if shapes != [((n + 7) // 8, p), (p,), (p,)]:
                    raise ValueError(f"member/load/tie shapes {shapes} do not"
                                     f" fit {n} vertices x {p} partitions")
                if state.load.sum() != state.num_assigned:
                    raise ValueError("load does not sum to num_assigned")
                state.member = np.unpackbits(f["member"], axis=0, count=n)
                baseline = float(f["baseline_rf"])
                state.baseline_rf = None if np.isnan(baseline) else baseline
            except (OSError, ValueError, KeyError, TypeError, EOFError,
                    NotImplementedError, zipfile.BadZipFile, zlib.error) as exc:
                # everything np.load / zipfile raise on a damaged archive
                raise LibraStateError(f"{path}: not a usable LibraState "
                                      f"file ({exc!r})") from exc
        return state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LibraState(p={self.num_partitions}, "
            f"assigned={self.num_assigned}, rf={self.replication_factor:.3f})"
        )


def streaming_libra_partition(
    graph: CSRGraph, num_partitions: int, seed: int = 0
) -> Tuple[np.ndarray, LibraState]:
    """Partition a whole graph through :class:`LibraState` in one go.

    Convenience for bootstrapping: returns the assignment (edge-id
    indexed, equal to ``libra_partition(..., shuffle_edges=False)``) plus
    the live state, ready to keep assigning arriving edges.
    """
    n = max(graph.num_vertices, graph.num_src)
    state = LibraState(n, num_partitions, seed=seed)
    assignment = state.assign_graph(graph)
    state.set_baseline()
    return assignment, state
