"""Synthetic graph generators.

The paper's datasets occupy distinct structural regimes (Section 6):

- *Reddit*: dense (density 2e-3), heavy-tailed, average degree ~492.
- *OGBN-Products / OGBN-Papers*: sparse power-law, average degree ~50/~15.
- *Proteins*: strong natural clusters (protein families), which is why
  Libra achieves a very low replication factor on it (Table 4).

We provide the generators needed to synthesize graphs in each regime:
R-MAT (Kronecker-style power law used by Graph500), a stochastic block
model (planted communities, used for Proteins-like clustering *and* to
give datasets learnable labels) and a power-law cluster hybrid.  All generators are deterministic given ``seed``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.graph.builders import coo_to_csr, dedupe_edges, remove_self_loops
from repro.graph.builders import sorted_unique
from repro.graph.csr import CSRGraph, INDEX_DTYPE


def rmat_graph(
    scale: int,
    edge_factor: float,
    a: float = 0.57,
    b: Optional[float] = None,
    c: Optional[float] = None,
    seed: int = 0,
    dedupe: bool = True,
    self_loops: bool = False,
) -> CSRGraph:
    """R-MAT / Kronecker power-law generator (Graph500 parameters by default).

    Produces a directed graph with ``2**scale`` vertices and approximately
    ``edge_factor * 2**scale`` edges.  Each edge picks one of the four
    adjacency-matrix quadrants per bit with probabilities ``(a, b, c, d)``;
    skewed quadrant probabilities yield a power-law degree distribution.

    Parameters
    ----------
    scale:
        log2 of the vertex count.
    edge_factor:
        Average out-degree before dedup.
    a, b, c:
        Quadrant probabilities (``d = 1 - a - b - c``).  When ``b``/``c``
        are omitted they default to the Graph500 proportions rescaled to
        the chosen ``a``: ``b = c = 0.44 * (1 - a)``.
    dedupe:
        Remove duplicate edges (duplicates concentrate on hubs).
    self_loops:
        Keep self loops when True.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    if b is None:
        b = 0.44 * (1.0 - a)
    if c is None:
        c = 0.44 * (1.0 - a)
    d = 1.0 - a - b - c
    if d < 0:
        raise ValueError("quadrant probabilities must sum to <= 1")
    n = 1 << scale
    m = int(round(edge_factor * n))
    rng = np.random.default_rng(seed)

    src = np.zeros(m, dtype=INDEX_DTYPE)
    dst = np.zeros(m, dtype=INDEX_DTYPE)
    r, bits = np.empty(m), np.empty(m, dtype=INDEX_DTYPE)
    # Per-bit quadrant draws, vectorized across all edges, in reused buffers.
    for bit in range(scale):
        rng.random(out=r)
        # Quadrants: [a | b ; c | d] -> (src_bit, dst_bit); rows c, d set the src bit
        src |= np.left_shift(r >= a + b, bit, out=bits, dtype=INDEX_DTYPE)
        dst |= np.left_shift((r >= a) & (r < a + b) | (r >= a + b + c), bit, out=bits,
                             dtype=INDEX_DTYPE)
    del r, bits

    if not self_loops:
        src, dst = remove_self_loops(src, dst)
    if dedupe:
        src, dst = dedupe_edges(src, dst)
    return coo_to_csr(src, dst, num_dst=n, num_src=n)


def sbm_graph(
    block_sizes: Sequence[int],
    p_in: float,
    p_out: float,
    seed: int = 0,
    directed: bool = True,
) -> CSRGraph:
    """Stochastic block model with planted communities.

    Samples each intra-block edge with probability ``p_in`` and each
    inter-block edge with probability ``p_out``.  Sampling is done with the
    binomial-count + uniform-placement trick so the cost is O(edges), not
    O(n^2).

    Returns a directed graph; when ``directed=False`` each sampled edge is
    emitted in both directions (the paper's datasets store undirected edges
    as directed pairs, Table 2).
    """
    block_sizes = [int(s) for s in block_sizes]
    if any(s <= 0 for s in block_sizes):
        raise ValueError("block sizes must be positive")
    for p in (p_in, p_out):
        if not 0.0 <= p <= 1.0:
            raise ValueError("probabilities must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    offsets = np.concatenate([[0], np.cumsum(block_sizes)]).astype(INDEX_DTYPE)
    n = int(offsets[-1])
    srcs, dsts = [], []
    k = len(block_sizes)
    for i in range(k):
        for j in range(k):
            p = p_in if i == j else p_out
            if p == 0.0:
                continue
            ni, nj = block_sizes[i], block_sizes[j]
            cells = ni * nj
            cnt = rng.binomial(cells, p)
            if cnt == 0:
                continue
            flat = rng.choice(cells, size=cnt, replace=False) if cells < 4 * cnt else (
                sorted_unique(rng.integers(0, cells, size=int(cnt * 1.1) + 8))[:cnt]
            )
            s = offsets[i] + flat // nj
            t = offsets[j] + flat % nj
            srcs.append(s)
            dsts.append(t)
    empty = [np.zeros(0, dtype=INDEX_DTYPE)]
    src, dst = np.concatenate(srcs or empty), np.concatenate(dsts or empty)
    del srcs, dsts  # the pieces
    src, dst = remove_self_loops(src, dst)
    if not directed:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        src, dst = dedupe_edges(src, dst)
    return coo_to_csr(src, dst, num_dst=n, num_src=n)


def sbm_labels(block_sizes: Sequence[int]) -> np.ndarray:
    """Ground-truth community label per vertex for an SBM graph."""
    return np.repeat(
        np.arange(len(block_sizes), dtype=INDEX_DTYPE), np.asarray(block_sizes)
    )


def powerlaw_cluster_graph(
    num_vertices: int,
    num_blocks: int,
    avg_degree: float,
    intra_fraction: float = 0.8,
    rmat_skew: float = 0.57,
    seed: int = 0,
    directed: bool = True,
) -> CSRGraph:
    """Hybrid generator: power-law degrees *and* planted block structure.

    Mixes an R-MAT-style skewed graph (global hubs) with an SBM (local
    clusters).  ``intra_fraction`` of the target edges are intra-block; the
    rest follow the skewed global distribution.  This matches graphs like
    Proteins that are simultaneously heavy-tailed and highly clusterable.
    ``directed=False`` returns its ``to_bidirected``, as ``sbm_graph``'s."""
    if not 0.0 <= intra_fraction <= 1.0:
        raise ValueError("intra_fraction must lie in [0, 1]")
    n = num_vertices
    block = max(1, n // num_blocks)
    sizes = [block] * (num_blocks - 1) + [n - block * (num_blocks - 1)]
    target_edges = int(avg_degree * n)
    intra_edges = int(target_edges * intra_fraction)
    # intra-block probability chosen to hit the intra edge budget
    cells = sum(s * s for s in sizes)
    p_in = min(1.0, intra_edges / max(cells, 1))

    def join():
        g_local = sbm_graph(sizes, p_in=p_in, p_out=0.0, seed=seed, directed=True)
        global_edges = target_edges - g_local.num_edges
        scale = max(1, int(np.ceil(np.log2(max(n, 2)))))
        g_global = rmat_graph(
            scale,
            edge_factor=max(global_edges, 1) / (1 << scale),
            a=rmat_skew,
            seed=seed + 1,
        )
        return _join_edges(g_local, g_global, n)

    return _distinct_graph(join, n, bidirected=not directed)


def _join_edges(a: CSRGraph, b: CSRGraph, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``a``'s edges, then ``b``'s within ``[0, n)``."""
    asrc, adst, _ = a.to_coo()
    bsrc, bdst, _ = b.to_coo()
    keep = (bsrc < n) & (bdst < n)
    return np.concatenate([asrc, bsrc[keep]]), np.concatenate([adst, bdst[keep]])


def _distinct_graph(join, n: int, bidirected: bool = False) -> CSRGraph:
    """The graph over ``n`` vertices of the distinct edges ``join()`` returns
    (``bidirected``: its ``to_bidirected``).  Each stage's arrays are locals
    here, dropped before the next stage: no callee has to free an argument,
    which Python 3.10 keeps alive in the caller until the call returns."""
    src, dst = dedupe_edges(*join())
    g = coo_to_csr(src, dst, num_dst=n, num_src=n)
    if bidirected:
        src, dst = g.to_coo()[:2]
        del g
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        src, dst = dedupe_edges(src, dst)
        g = coo_to_csr(src, dst, num_dst=n, num_src=n)
    return g


def random_features(
    num_vertices: int, dim: int, seed: int = 0, dtype=np.float32
) -> np.ndarray:
    """I.i.d. normal vertex features (the paper randomizes Proteins features)."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((num_vertices, dim)).astype(dtype)


#: rows of :func:`community_features` built per step
FEATURE_CHUNK_ROWS = 4096


def community_features(
    labels: np.ndarray,
    dim: int,
    signal: float = 1.0,
    noise: float = 1.0,
    seed: int = 0,
    dtype=np.float32,
) -> np.ndarray:
    """Features = class centroid * signal + i.i.d. noise.

    Gives GraphSAGE a learnable signal so the accuracy experiments
    (paper Table 5) are meaningful on synthetic data.  Rows are built
    :data:`FEATURE_CHUNK_ROWS` at a time into the output, so the float64
    arithmetic never spans the whole matrix; chunked ``standard_normal``
    draws continue the one-shot stream, so the bytes are the same.
    """
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    num_classes = int(labels.max()) + 1
    centroids = rng.standard_normal((num_classes, dim))
    feats = np.empty((labels.size, dim), dtype=dtype)
    for lo in range(0, labels.size, FEATURE_CHUNK_ROWS):
        hi = min(lo + FEATURE_CHUNK_ROWS, labels.size)
        feats[lo:hi] = signal * centroids[labels[lo:hi]] + noise * rng.standard_normal(
            (hi - lo, dim)
        )
    return feats
