"""Structural graph utilities used across the reproduction."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graph.builders import coo_to_csr, dedupe_edges
from repro.graph.csr import CSRGraph


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
