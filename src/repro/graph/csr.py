"""Immutable CSR graph container.

The aggregation primitive (paper Alg. 1) is defined over the adjacency
matrix ``A`` in CSR format where ``A[v]`` lists the *in*-neighbours of a
destination vertex ``v`` (DGL "pulls" messages from sources into
destinations).  We therefore store the graph destination-major: row ``v``
of the CSR holds the source vertices ``u`` of all edges ``u -> v``.

Edge identifiers are preserved alongside the column indices so that edge
feature matrices (``f_E`` in the paper) can be gathered per edge in the
same pass, exactly as DGL does.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Iterator, Tuple

import numpy as np

INDEX_DTYPE = np.int64


def _as_index_array(a, name: str) -> np.ndarray:
    arr = np.asarray(a, dtype=INDEX_DTYPE)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    return arr


def multi_row_take(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Edge positions of the given CSR rows, row order preserved
    (vectorized multi-range gather — no per-row Python loop)."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    ends = np.cumsum(counts)
    total = int(ends[-1]) if rows.size else 0
    if total == 0:
        return np.zeros(0, dtype=INDEX_DTYPE)
    offsets = np.repeat(starts - np.concatenate(([0], ends[:-1])), counts)
    return offsets + np.arange(total, dtype=INDEX_DTYPE)


_ONES = weakref.WeakValueDictionary()  # (n, dtype) -> ones, freed with their last graph


def operand_dtype(dtype) -> np.dtype:
    """The value dtype a CSR product with ``dtype`` features accumulates
    in: float32 features stay float32, every other dtype goes to float64."""
    return np.dtype(np.float32 if dtype == np.float32 else np.float64)


def _ones(n: int, dtype: np.dtype) -> np.ndarray:
    """Read-only ``(n,)`` ones, one buffer per ``(n, dtype)``: a graph and
    its reverse (and any other graph of ``n`` edges) share it."""
    ones = _ONES.get((n, dtype))
    if ones is None:
        ones = _ONES[n, dtype] = np.ones(n, dtype=dtype)
        ones.setflags(write=False)
    return ones


@dataclass(frozen=True)
class CSRGraph:
    """Directed graph in destination-major CSR form.

    Attributes
    ----------
    indptr:
        ``(num_vertices + 1,)`` row pointers; row ``v`` spans
        ``indptr[v]:indptr[v + 1]``.
    indices:
        ``(num_edges,)`` source vertex of each stored edge.
    edge_ids:
        ``(num_edges,)`` identifier of each stored edge, indexing into the
        edge feature matrix.  Defaults to ``arange(num_edges)``.
    num_src:
        Number of source vertices.  For ordinary square graphs this equals
        ``num_vertices``; partitioned block CSRs (paper Alg. 2 line 2) may
        be rectangular.
    """

    indptr: np.ndarray
    indices: np.ndarray
    edge_ids: np.ndarray = field(default=None)  # type: ignore[assignment]
    num_src: int = -1

    def __post_init__(self) -> None:
        indptr = _as_index_array(self.indptr, "indptr")
        indices = _as_index_array(self.indices, "indices")
        if indptr.size == 0:
            raise ValueError("indptr must have at least one entry")
        if indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if indptr[-1] != indices.size:
            raise ValueError(
                f"indptr[-1]={indptr[-1]} does not match num_edges={indices.size}"
            )
        if self.edge_ids is None:
            eids = np.arange(indices.size, dtype=INDEX_DTYPE)
        else:
            eids = _as_index_array(self.edge_ids, "edge_ids")
            if eids.size != indices.size:
                raise ValueError("edge_ids must align with indices")
        num_src = self.num_src
        if num_src < 0:
            num_src = int(indices.max(initial=-1)) + 1
            num_src = max(num_src, indptr.size - 1)
        elif indices.size and int(indices.max()) >= num_src:
            raise ValueError("indices reference a source >= num_src")
        for name, val in (("indptr", indptr), ("indices", indices), ("edge_ids", eids)):
            val.setflags(write=False)
            object.__setattr__(self, name, val)
        object.__setattr__(self, "num_src", num_src)

    # -- basic properties ---------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of destination vertices (rows)."""
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        return self.indices.size

    @property
    def is_square(self) -> bool:
        return self.num_src == self.num_vertices

    @property
    def has_contiguous_edge_ids(self) -> bool:
        """True when ``edge_ids`` is exactly ``arange(num_edges)``.

        The common case for freshly built graphs; the vectorized kernel
        then reads edge-feature rows as a zero-copy slice instead of a
        gather.  Computed once and cached (arrays are immutable).
        """
        cached = getattr(self, "_trivial_eids", None)
        if cached is None:
            eids = self.edge_ids
            cached = eids.size == 0 or (
                eids[0] == 0
                and eids[-1] == eids.size - 1
                and bool(np.all(np.diff(eids) == 1))
            )
            object.__setattr__(self, "_trivial_eids", bool(cached))
        return cached

    def in_degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def in_degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        """Source vertices with an edge into ``v`` (the paper's ``A[v]``)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def edge_ids_of(self, v: int) -> np.ndarray:
        return self.edge_ids[self.indptr[v] : self.indptr[v + 1]]

    def iter_rows(self) -> Iterator[Tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(v, neighbors, edge_ids)`` per destination vertex."""
        for v in range(self.num_vertices):
            lo, hi = self.indptr[v], self.indptr[v + 1]
            yield v, self.indices[lo:hi], self.edge_ids[lo:hi]

    # -- conversions ----------------------------------------------------------

    def to_coo(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(src, dst, edge_ids)`` arrays of all edges: ``src`` and
        ``edge_ids`` are the stored read-only arrays, not copies."""
        dst = np.repeat(
            np.arange(self.num_vertices, dtype=INDEX_DTYPE), self.in_degrees()
        )
        return self.indices, dst, self.edge_ids

    def to_dense(self) -> np.ndarray:
        """Dense adjacency (dst x src) with multiplicity counts.

        For testing only; O(V^2) memory.
        """
        dense = np.zeros((self.num_vertices, self.num_src), dtype=np.float64)
        src, dst, _ = self.to_coo()
        np.add.at(dense, (dst, src), 1.0)
        return dense

    def to_scipy(self, dtype=np.float64):
        """The adjacency as ``scipy.sparse.csr_matrix`` (dst x src) for
        features of ``dtype``: its all-ones ``data`` (:func:`_ones`) has
        their :func:`operand_dtype`, so the product accumulates in it.
        Built once per graph instance and value dtype and shared, so the
        arrays are read-only; the float32 and the float64 operand hold the
        same (scipy's int32) copy of the indices."""
        dtype = operand_dtype(dtype)
        cache = self.__dict__.setdefault("_scipy", {})
        adj = cache.get(dtype)
        if adj is None:
            import scipy.sparse as sp

            data = _ones(self.num_edges, dtype)
            shape = (self.num_vertices, self.num_src)
            if not cache:
                adj = sp.csr_matrix((data, self.indices, self.indptr), shape=shape)
                for arr in (adj.indices, adj.indptr):
                    arr.setflags(write=False)
            else:
                other = next(iter(cache.values()))
                adj = sp.csr_matrix(shape, dtype=dtype)
                # assigned, not passed in: the constructor re-views its inputs
                adj.data, adj.indices, adj.indptr = data, other.indices, other.indptr
            adj = cache.setdefault(dtype, adj)  # a racing builder's twin is dropped
        return adj

    def reverse(self) -> "CSRGraph":
        """Graph with every edge direction flipped (source-major view).

        One stable transpose of the stored arrays (serving's out-edge
        walks read it):
        row ``u`` lists the destinations of ``u``'s edges in stored order.
        """
        from repro.graph.builders import _sort_rows

        order, indptr = _sort_rows(self.indices, self.num_src)
        return CSRGraph(
            indptr=indptr,
            indices=self.to_coo()[1][order],  # each edge's destination
            edge_ids=self.edge_ids[order],
            num_src=self.num_vertices,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(num_vertices={self.num_vertices}, num_src={self.num_src}, "
            f"num_edges={self.num_edges})"
        )
