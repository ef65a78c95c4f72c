"""Structural graph utilities used across the reproduction."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.graph.builders import coo_to_csr, dedupe_edges, sorted_unique
from repro.graph.csr import CSRGraph, INDEX_DTYPE


def in_degrees(g: CSRGraph) -> np.ndarray:
    """In-degree per destination vertex."""
    return g.in_degrees()


def out_degrees(g: CSRGraph) -> np.ndarray:
    """Out-degree per source vertex."""
    return np.bincount(g.indices, minlength=g.num_src).astype(INDEX_DTYPE)


def average_degree(g: CSRGraph) -> float:
    """Average in-degree (paper's "Avg. deg." in Tables 7/8)."""
    if g.num_vertices == 0:
        return 0.0
    return g.num_edges / g.num_vertices


def density(g: CSRGraph) -> float:
    """Nonzeros / total adjacency cells (paper Table 3 definition)."""
    cells = g.num_vertices * g.num_src
    return g.num_edges / cells if cells else 0.0


def to_bidirected(g: CSRGraph) -> CSRGraph:
    """Emit each edge in both directions and dedupe.

    Mirrors the paper's Table 2 convention: each undirected edge of Reddit,
    OGBN-Products and Proteins is stored as two directed edges.
    """
    src, dst, _ = g.to_coo()
    bsrc = np.concatenate([src, dst])
    bdst = np.concatenate([dst, src])
    bsrc, bdst = dedupe_edges(bsrc, bdst)
    n = max(g.num_vertices, g.num_src)
    return coo_to_csr(bsrc, bdst, num_dst=n, num_src=n)


def induced_subgraph(g: CSRGraph, vertices: np.ndarray) -> Tuple[CSRGraph, np.ndarray]:
    """Subgraph induced by ``vertices``.

    Returns the relabelled subgraph and the old->new id map (``-1`` for
    vertices not retained).
    """
    vertices = sorted_unique(np.asarray(vertices, dtype=INDEX_DTYPE))
    n = max(g.num_vertices, g.num_src)
    remap = np.full(n, -1, dtype=INDEX_DTYPE)
    remap[vertices] = np.arange(vertices.size, dtype=INDEX_DTYPE)
    src, dst, _ = g.to_coo()
    keep = (remap[src] >= 0) & (remap[dst] >= 0)
    sub = coo_to_csr(
        remap[src[keep]],
        remap[dst[keep]],
        num_dst=vertices.size,
        num_src=vertices.size,
    )
    return sub, remap


def degree_histogram(g: CSRGraph, bins: int = 32) -> Tuple[np.ndarray, np.ndarray]:
    """Log-spaced in-degree histogram (counts, bin_edges)."""
    deg = g.in_degrees()
    maxd = max(int(deg.max(initial=1)), 1)
    edges = sorted_unique(
        np.round(np.logspace(0, np.log10(maxd + 1), bins)).astype(np.int64)
    )
    counts, edges = np.histogram(deg, bins=edges)
    return counts, edges


def powerlaw_exponent_estimate(g: CSRGraph) -> float:
    """Crude MLE estimate of the degree power-law exponent (alpha).

    Uses the Clauset-style continuous MLE over degrees >= dmin=max(1, median).
    Only intended for sanity checks that generated graphs are heavy-tailed.
    """
    deg = g.in_degrees().astype(np.float64)
    deg = deg[deg > 0]
    if deg.size < 2:
        return float("nan")
    dmin = max(1.0, float(np.median(deg)))
    tail = deg[deg >= dmin]
    if tail.size < 2:
        return float("nan")
    return 1.0 + tail.size / np.sum(np.log(tail / dmin))


def split_train_val_test(
    num_vertices: int,
    train_frac: float = 0.6,
    val_frac: float = 0.2,
    seed: int = 0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random boolean masks for train/val/test vertex splits."""
    if train_frac + val_frac > 1.0:
        raise ValueError("train_frac + val_frac must be <= 1")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(num_vertices)
    n_train = int(train_frac * num_vertices)
    n_val = int(val_frac * num_vertices)
    train = np.zeros(num_vertices, dtype=bool)
    val = np.zeros(num_vertices, dtype=bool)
    test = np.zeros(num_vertices, dtype=bool)
    train[perm[:n_train]] = True
    val[perm[n_train : n_train + n_val]] = True
    test[perm[n_train + n_val :]] = True
    return train, val, test


def gcn_normalization(g: CSRGraph) -> np.ndarray:
    """Per-destination 1/(in_degree + 1) normalizer.

    The paper's GCN aggregation operator adds the vertex's own features to
    the aggregate and normalizes by in-degree (Section 6.1 "Models and
    Parameters"); the +1 accounts for the self term.
    """
    deg = g.in_degrees().astype(np.float64)
    return (1.0 / (deg + 1.0)).astype(np.float32)
