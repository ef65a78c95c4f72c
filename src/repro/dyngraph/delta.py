"""Dynamic graph: the current immutable CSR, rebuilt once per batch.

:meth:`DynamicGraph.update` drops the batch's removed edges from the
current :class:`~repro.graph.csr.CSRGraph`, appends its added edges with
fresh ids and calls ``coo_to_csr`` once.  That sort is a *stable*
destination-major one, so the result is the from-scratch rebuild over
the surviving edges in arrival order, ids included.  Ids are never
reused, so edge-indexed arrays stay valid.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graph.builders import coo_to_csr, sorted_unique
from repro.graph.csr import CSRGraph, INDEX_DTYPE, multi_row_take


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
    ends = np.concatenate([src, dst])
    if ends.size and (ends.min() < 0 or ends.max() >= num_vertices):
        raise ValueError(
            f"{what} endpoints must be in [0, {num_vertices}); the vertex "
            "set of a DynamicGraph is fixed (features/labels align to it)"
        )
    return src, dst


def _matching_edges(graph: CSRGraph, src, dst) -> np.ndarray:
    """Positions of every edge matching a pair ``(src[i], dst[i])``;
    ``ValueError`` if a pair matches none or appears twice (its first
    copy already takes every parallel edge)."""
    n = graph.num_vertices
    keys = dst * n + src
    order = np.argsort(keys, kind="stable")
    wanted = keys[order]
    rows = sorted_unique(dst)
    pos = multi_row_take(graph.indptr, rows)
    row_of = np.repeat(rows, graph.indptr[rows + 1] - graph.indptr[rows])
    have = row_of * n + graph.indices[pos]
    slot = np.minimum(np.searchsorted(wanted, have), keys.size - 1)
    hit = wanted[slot] == have
    found = np.zeros(keys.size, dtype=bool)
    # a repeated pair's edges all land on its leftmost slot: the copy after stays unfound
    found[slot[hit]] = True
    if not found.all():
        i = int(order[~found].min())
        raise ValueError(f"no live edge {src[i]} -> {dst[i]} to remove")
    return pos[hit]


class DynamicGraph:
    """Mutable directed graph over the fixed vertex set of a square
    ``base`` (features, labels and embedding tables are sized to it)."""

    def __init__(self, base: CSRGraph):
        if not base.is_square:
            raise ValueError(
                "DynamicGraph requires a square base graph "
                f"(num_src={base.num_src} != num_vertices={base.num_vertices})"
            )
        self._graph = base
        #: next edge id to hand out (ids are never reused)
        self._next_eid = int(base.edge_ids.max(initial=-1)) + 1

    @property
    def num_vertices(self) -> int:
        return self._graph.num_vertices

    def update(self, add=None, remove=None) -> CSRGraph:
        """Apply one batch and return the new graph.

        ``add`` and ``remove`` are ``(src, dst)`` endpoint sequences (or
        ``None``).  Every live edge matching a removed pair goes, parallel
        copies included; then the added edges append with fresh ids — so
        an add and a remove of the same pair in one batch replace the
        existing edges.  A pair out of range, a removed pair with no live
        edge, or one named twice raises ``ValueError`` before anything
        changes.
        """
        n = self.num_vertices
        empty = (np.zeros(0, dtype=INDEX_DTYPE),) * 2
        add_src, add_dst = _as_endpoint_arrays(*(add or empty), n, "add")
        rem_src, rem_dst = _as_endpoint_arrays(*(remove or empty), n, "remove")
        graph = self._graph
        gone = _matching_edges(graph, rem_src, rem_dst) if rem_src.size else empty[0]
        dst = np.repeat(np.arange(n, dtype=INDEX_DTYPE), graph.in_degrees())
        new_ids = np.arange(
            self._next_eid, self._next_eid + add_src.size, dtype=INDEX_DTYPE
        )
        self._graph = coo_to_csr(
            np.concatenate([np.delete(graph.indices, gone), add_src]),
            np.concatenate([np.delete(dst, gone), add_dst]),
            num_dst=n,
            num_src=n,
            edge_ids=np.concatenate([np.delete(graph.edge_ids, gone), new_ids]),
        )
        self._next_eid += add_src.size
        return self._graph

    def csr(self) -> CSRGraph:
        """The current topology."""
        return self._graph

    def compact(self) -> CSRGraph:
        """The current topology: an update leaves nothing to fold."""
        return self._graph

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicGraph(num_vertices={self.num_vertices}, "
            f"num_edges={self._graph.num_edges})"
        )
