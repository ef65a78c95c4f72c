"""SDDMM — sampled dense-dense matrix multiplication.

DGL's second core primitive (paper Section 2.2): "For computations on
edges, the message-passing functionality is formulated as sampled
dense-dense matrix multiplication (SDDMM)".  For each edge ``u -> v`` it
combines the endpoint feature rows:

    f_E[e] = f_src[u] (op) f_dst[v]

with ``op`` in {dot, add, sub, mul} — ``dot`` produces the attention
logits of GAT-style models, the element-wise ops produce edge features.

The kernel is one gather per endpoint plus a fused row-wise op, i.e. it
is memory-bound on the same ``f_V`` gather stream the AP analysis covers.
The ``dot`` path — whose output is a single column — never materializes
the full ``(E, d)`` endpoint gathers: it walks the edges in edge-id-
ordered chunks of :data:`~repro.kernels.engine.DEFAULT_CHUNK_ROWS`
(the same bucket bound the reordered preset uses), keeping peak scratch
at ``2 * chunk * d`` floats instead of ``2 * E * d``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.kernels.engine import DEFAULT_CHUNK_ROWS

SDDMM_OPS = ("dot", "add", "sub", "mul")


def sddmm(
    graph: CSRGraph,
    f_src: np.ndarray,
    f_dst: Optional[np.ndarray] = None,
    op: str = "dot",
    chunk_edges: Optional[int] = DEFAULT_CHUNK_ROWS,
) -> np.ndarray:
    """Edge-wise combination of endpoint features.

    Parameters
    ----------
    graph:
        Destination-major CSR; output is ordered by **edge id** so edge
        feature matrices compose with any CSR ordering.
    f_src:
        ``(num_src, d)`` source-side features.
    f_dst:
        ``(num_vertices, d)`` destination-side features (defaults to
        ``f_src`` for square graphs).
    op:
        ``dot`` -> ``(num_edges, 1)``; element-wise ops -> ``(num_edges, d)``.
    chunk_edges:
        ``dot`` only: edges per pass.  Each chunk gathers, multiplies and
        row-reduces independently (the dot is edge-local), so results are
        byte-identical to the unchunked pass (``chunk_edges=None``) while
        the endpoint gathers stay cache-sized.  Element-wise ops return an
        ``(E, d)`` matrix anyway, so chunking buys them nothing.
    """
    if op not in SDDMM_OPS:
        raise ValueError(f"unknown sddmm op {op!r}; use one of {SDDMM_OPS}")
    if f_dst is None:
        f_dst = f_src
    src, dst, eid = graph.to_coo()
    if op == "dot":
        return _sddmm_dot_chunked(graph, f_src, f_dst, src, dst, eid, chunk_edges)
    lhs = f_src[src]
    rhs = f_dst[dst]
    if op == "add":
        vals = lhs + rhs
    elif op == "sub":
        vals = lhs - rhs
    else:
        vals = lhs * rhs
    out = np.empty_like(vals)
    out[eid] = vals
    return out


def _sddmm_dot_chunked(
    graph: CSRGraph,
    f_src: np.ndarray,
    f_dst: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    eid: np.ndarray,
    chunk_edges: Optional[int],
) -> np.ndarray:
    """Row-wise dot over edge-id-ordered chunks (bounded scratch).

    Processing in *edge-id* order keeps the output writes of every chunk
    contiguous; since the row reduction is edge-local, the chunked result
    is byte-identical to one full pass.
    """
    num_edges = graph.num_edges
    out = np.empty((num_edges, 1), dtype=np.result_type(f_src, f_dst))
    step = max(num_edges, 1) if not chunk_edges else max(int(chunk_edges), 1)
    if graph.has_contiguous_edge_ids:
        # COO rows already are edge-id order: chunk by plain slices.
        for lo in range(0, num_edges, step):
            sl = slice(lo, min(lo + step, num_edges))
            out[sl, 0] = np.sum(f_src[src[sl]] * f_dst[dst[sl]], axis=1)
    else:
        # Positions of the COO rows sorted by edge id, so chunk k computes
        # output rows [lo, hi) directly.
        order = np.empty(num_edges, dtype=eid.dtype)
        order[eid] = np.arange(num_edges, dtype=eid.dtype)
        for lo in range(0, num_edges, step):
            rows = order[lo : min(lo + step, num_edges)]
            out[lo : lo + rows.size, 0] = np.sum(
                f_src[src[rows]] * f_dst[dst[rows]], axis=1
            )
    return out


def edge_softmax(graph: CSRGraph, logits: np.ndarray) -> np.ndarray:
    """Per-destination softmax over incoming-edge logits (GAT attention).

    ``logits`` is ``(num_edges, 1)`` in edge-id order; the result sums to
    1 over each vertex's in-edges.
    """
    logits = np.asarray(logits)
    if logits.ndim != 2 or logits.shape[1] != 1:
        raise ValueError("edge_softmax expects (num_edges, 1) logits")
    out = np.empty_like(logits, dtype=np.float64)
    indptr, eids = graph.indptr, graph.edge_ids
    for v in range(graph.num_vertices):
        lo, hi = indptr[v], indptr[v + 1]
        if lo == hi:
            continue
        rows = eids[lo:hi]
        z = logits[rows, 0]
        z = z - z.max()
        e = np.exp(z)
        out[rows, 0] = e / e.sum()
    return out.astype(logits.dtype)


def edge_softmax_vectorized(graph: CSRGraph, logits: np.ndarray) -> np.ndarray:
    """Vectorized :func:`edge_softmax` via segment max/sum (production path)."""
    logits = np.asarray(logits)
    if logits.ndim != 2 or logits.shape[1] != 1:
        raise ValueError("edge_softmax expects (num_edges, 1) logits")
    indptr, eids = graph.indptr, graph.edge_ids
    vals = logits[eids, 0].astype(np.float64)  # CSR order
    starts = indptr[:-1]
    nonempty = indptr[1:] > starts
    if not nonempty.any():
        return logits.copy()
    seg_max = np.maximum.reduceat(vals, starts[nonempty])
    # broadcast each segment's max back over its edges
    deg = np.diff(indptr)
    per_edge_max = np.repeat(seg_max, deg[nonempty])
    exp = np.exp(vals - per_edge_max)
    seg_sum = np.add.reduceat(exp, starts[nonempty])
    per_edge_sum = np.repeat(seg_sum, deg[nonempty])
    normalized = exp / per_edge_sum
    out = np.empty_like(logits, dtype=np.float64)
    out[eids, 0] = normalized
    return out.astype(logits.dtype)
