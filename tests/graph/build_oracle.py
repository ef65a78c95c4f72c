"""The comparison-sort graph builders, kept as the oracle of the radix ones.

These are ``coo_to_csr``, ``dedupe_edges`` and ``build_blocks`` as they
were before ``repro.graph.builders._stable_order`` replaced their
``np.argsort(kind="stable")`` / ``np.unique`` with O(E) radix passes, and
``np.unique`` itself, which ``sorted_unique`` replaced.  The radix builds
must equal these byte for byte, dtypes included.
"""

import numpy as np

from repro.graph.csr import CSRGraph, INDEX_DTYPE
from repro.kernels.blocked import block_bounds


def unique(x):
    return np.unique(x)


def coo_to_csr(src, dst, num_dst=None, num_src=None, edge_ids=None):
    src = np.asarray(src, dtype=INDEX_DTYPE).ravel()
    dst = np.asarray(dst, dtype=INDEX_DTYPE).ravel()
    m = src.size
    if num_dst is None:
        num_dst = int(dst.max(initial=-1)) + 1
    if num_src is None:
        num_src = int(src.max(initial=-1)) + 1
    if edge_ids is None:
        edge_ids = np.arange(m, dtype=INDEX_DTYPE)
    else:
        edge_ids = np.asarray(edge_ids, dtype=INDEX_DTYPE).ravel()
    order = np.argsort(dst, kind="stable")
    counts = np.bincount(dst, minlength=num_dst).astype(INDEX_DTYPE)
    indptr = np.zeros(num_dst + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    return CSRGraph(
        indptr=indptr,
        indices=src[order],
        edge_ids=edge_ids[order],
        num_src=num_src,
    )


def reverse(graph):
    src, dst, eid = graph.to_coo()
    return coo_to_csr(
        dst, src, num_dst=graph.num_src, num_src=graph.num_vertices, edge_ids=eid
    )


def dedupe_edges(src, dst):
    src = np.asarray(src, dtype=INDEX_DTYPE)
    dst = np.asarray(dst, dtype=INDEX_DTYPE)
    if src.size == 0:
        return src, dst
    n = max(int(src.max()), int(dst.max())) + 1
    keys = src.astype(np.int64) * n + dst
    _, first = np.unique(keys, return_index=True)
    first.sort()
    return src[first], dst[first]


def build_blocks(graph, num_blocks):
    bounds = block_bounds(graph.num_src, num_blocks)
    if num_blocks == 1:
        return [graph]
    src, dst, eid = graph.to_coo()
    block_size = int(bounds[1] - bounds[0])
    block_of = np.minimum(src // max(block_size, 1), num_blocks - 1)
    order = np.argsort(block_of, kind="stable")
    src, dst, eid, block_of = src[order], dst[order], eid[order], block_of[order]
    edge_splits = np.searchsorted(block_of, np.arange(num_blocks + 1))
    blocks = []
    n = graph.num_vertices
    for b in range(num_blocks):
        lo, hi = edge_splits[b], edge_splits[b + 1]
        counts = np.bincount(dst[lo:hi], minlength=n).astype(INDEX_DTYPE)
        indptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=indptr[1:])
        blocks.append(
            CSRGraph(indptr=indptr, indices=src[lo:hi], edge_ids=eid[lo:hi],
                     num_src=graph.num_src)
        )
    return blocks


def graph_bytes(graph):
    """The arrays a build must reproduce, as ``(dtype, shape, bytes)``."""
    return [
        (a.dtype.str, a.shape, a.tobytes())
        for a in (graph.indptr, graph.indices, graph.edge_ids)
    ] + [graph.num_src]
