"""The comparison-sort graph builders, kept as the oracle of the radix ones.

These are ``coo_to_csr``, ``dedupe_edges`` and ``build_blocks`` as they
were before ``repro.graph.builders._stable_order`` replaced their
``np.argsort(kind="stable")`` / ``np.unique`` with O(E) radix passes, and
``np.unique`` itself, which ``sorted_unique`` replaced.  ``to_coo``,
``reverse``, ``to_bidirected`` and ``union`` are the graph-level forms
that copied what they read and held every intermediate: ``CSRGraph.to_coo``
now returns the stored arrays, ``CSRGraph.reverse`` is one stable
transpose, and ``generators._distinct_graph`` drops each recipe stage's
arrays before the next.  The builds must equal these byte for byte,
dtypes included.  ``community_features`` is the one-shot feature build
that held the whole matrix in float64 (twice) before casting; the
chunked build must equal it byte for byte.
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


def to_coo(graph):
    dst = np.repeat(
        np.arange(graph.num_vertices, dtype=INDEX_DTYPE), graph.in_degrees()
    )
    return graph.indices.copy(), dst, graph.edge_ids.copy()


def reverse(graph):
    src, dst, eid = to_coo(graph)
    return coo_to_csr(
        dst, src, num_dst=graph.num_src, num_src=graph.num_vertices, edge_ids=eid
    )


def to_bidirected(g):
    src, dst, _ = to_coo(g)
    bsrc = np.concatenate([src, dst])
    bdst = np.concatenate([dst, src])
    bsrc, bdst = dedupe_edges(bsrc, bdst)
    n = max(g.num_vertices, g.num_src)
    return coo_to_csr(bsrc, bdst, num_dst=n, num_src=n)


def union(a, b, n):
    asrc, adst, _ = to_coo(a)
    bsrc, bdst, _ = to_coo(b)
    keep = (bsrc < n) & (bdst < n)
    src = np.concatenate([asrc, bsrc[keep]])
    dst = np.concatenate([adst, bdst[keep]])
    src, dst = dedupe_edges(src, dst)
    return coo_to_csr(src, dst, num_dst=n, num_src=n)


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
    src, dst, eid = to_coo(graph)
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


def community_features(labels, dim, signal=1.0, noise=1.0, seed=0, dtype=np.float32):
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    num_classes = int(labels.max()) + 1
    centroids = rng.standard_normal((num_classes, dim))
    feats = signal * centroids[labels] + noise * rng.standard_normal((labels.size, dim))
    return feats.astype(dtype)


def graph_bytes(graph):
    """The arrays a build must reproduce, as ``(dtype, shape, bytes)``."""
    return [
        (a.dtype.str, a.shape, a.tobytes())
        for a in (graph.indptr, graph.indices, graph.edge_ids)
    ] + [graph.num_src]
