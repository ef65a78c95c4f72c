"""Baseline aggregation primitive — paper Algorithm 1.

This is the un-optimized DGL-style kernel: one pass over destination
vertices, pulling each neighbour's feature row and reducing it into
``f_O[v]``.  Parallelisation in DGL distributes destinations over OpenMP
threads; in this Python reproduction the per-destination loop is a real
Python-level loop, playing the role of the scalar-ordered, unblocked C++
kernel that the optimized variants beat.

The dense reference implementation (`aggregate_dense_reference`) is used
by the test suite as ground truth for every operator combination.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.kernels.operators import finalize_with_graph, init_output, resolve_pass


def aggregate_baseline(
    graph: CSRGraph,
    f_v: Optional[np.ndarray],
    f_e: Optional[np.ndarray] = None,
    binary_op="copylhs",
    reduce_op="sum",
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Algorithm 1: for each destination ``v``, reduce ``f_V[u] ⊗ f_E[e_uv]``.

    Parameters
    ----------
    graph:
        Destination-major CSR adjacency.
    f_v:
        ``(num_src, d)`` vertex features (``None`` only for ``copyrhs``).
    f_e:
        ``(num_edges_global, d)`` edge features, indexed by the graph's
        ``edge_ids`` (``None`` for unary ``copylhs``).
    out:
        Optional pre-initialized accumulator (used to chain partial
        passes).  When given, the kernel ⊕-accumulates into it and skips
        finalization; the caller finalizes after the last pass.
    """
    bop, rop, dim, dtype = resolve_pass(f_v, f_e, binary_op, reduce_op)
    created = out is None
    if created:
        out = init_output(graph.num_vertices, dim, rop, dtype)
    indptr, indices, eids = graph.indptr, graph.indices, graph.edge_ids
    for v in range(graph.num_vertices):
        lo, hi = indptr[v], indptr[v + 1]
        if lo == hi:
            continue
        lhs = f_v[indices[lo:hi]] if bop.uses_lhs else None
        rhs = f_e[eids[lo:hi]] if bop.uses_rhs else None
        msg = bop(lhs, rhs)
        out[v] = rop.ufunc(out[v], rop.ufunc.reduce(msg, axis=0))
    if created:
        finalize_with_graph(out, rop, graph)
    return out


def aggregate_dense_reference(
    graph: CSRGraph,
    f_v: Optional[np.ndarray],
    f_e: Optional[np.ndarray] = None,
    binary_op="copylhs",
    reduce_op="sum",
    out: None = None,
) -> np.ndarray:
    """Edge-at-a-time reference (the literal Alg. 1 inner loop).

    O(E) Python iterations — test-only ground truth.  Always allocates
    and finalizes its own output; ``out`` exists only so every kernel
    takes the same arguments, and must stay ``None``.
    """
    if out is not None:
        raise ValueError("the reference kernel does not accumulate into out")
    bop, rop, dim, dtype = resolve_pass(f_v, f_e, binary_op, reduce_op)
    out = init_output(graph.num_vertices, dim, rop, dtype)
    for v, nbrs, eids in graph.iter_rows():
        for u, e in zip(nbrs, eids):
            lhs = f_v[u] if bop.uses_lhs else None
            rhs = f_e[e] if bop.uses_rhs else None
            out[v] = rop.ufunc(out[v], bop(lhs, rhs))
    return finalize_with_graph(out, rop, graph)
