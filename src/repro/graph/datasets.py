"""Benchmark dataset stand-ins.

The paper evaluates on five datasets (Table 2).  We cannot ship Reddit or
the OGB graphs (no network access, and OGBN-Papers alone is 1.4 TB in
training footprint), so each dataset is replaced by a *structural stand-in*
generated to sit in the same regime that drives the paper's phenomena:

=================  ==========================================================
Dataset            Structural signature we match (and why it matters)
=================  ==========================================================
``reddit``         Dense power-law (paper density 2e-3, avg deg 492).  Drives
                   the cache-blocking sweet spot (Table 3) and the *high*
                   replication factor under vertex-cut (Table 4).
``ogbn-products``  Sparse power-law (avg deg ~50).  Flat cache reuse ~2,
                   scheduling-dominated single-socket gains (Fig. 4),
                   mid-range replication factor.
``proteins``       Strong planted clusters (protein families).  Lowest
                   replication factor, near-linear scaling (Fig. 5).  The
                   paper randomizes its features; so do we.
``ogbn-papers``    Largest, sparse power-law (avg deg ~15).  Exercises the
                   128-socket scaling path and the memory model (Table 6).
``am``             Small heterogeneous museum graph with typed edges for the
                   R-GCN workload of Fig. 2(d).
=================  ==========================================================

Every stand-in is scaled by ``scale`` (default targets quick CI-size runs)
and carries SBM-planted labels plus community-correlated features so that
accuracy experiments (Table 5) measure real learning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from repro.graph.builders import coo_to_csr, dedupe_edges
from repro.graph.csr import CSRGraph, INDEX_DTYPE
from repro.graph.generators import (
    _distinct_graph,
    _join_edges,
    community_features,
    powerlaw_cluster_graph,
    random_features,
    rmat_graph,
    sbm_graph,
    sbm_labels,
)
from repro.graph.utils import split_train_val_test


@dataclass(frozen=True)
class PaperDatasetStats:
    """Row of the paper's Table 2 (for reporting side-by-side)."""

    name: str
    num_vertices: int
    num_edges: int
    num_features: int
    num_classes: int


PAPER_DATASET_STATS: Dict[str, PaperDatasetStats] = {
    "am": PaperDatasetStats("AM", 881_680, 5_668_682, 1, 11),
    "reddit": PaperDatasetStats("Reddit", 232_965, 114_615_892, 602, 41),
    "ogbn-products": PaperDatasetStats(
        "OGBN-Products", 2_449_029, 123_718_280, 100, 47
    ),
    "proteins": PaperDatasetStats("Proteins", 8_745_542, 1_309_240_502, 128, 256),
    "ogbn-papers": PaperDatasetStats(
        "OGBN-Papers", 111_059_956, 1_615_685_872, 128, 172
    ),
}


@dataclass
class Dataset:
    """A loaded (stand-in) dataset ready for training.

    ``relations`` is populated only for heterogeneous datasets (AM): it maps
    relation name -> CSRGraph over the same vertex set, and ``graph`` is the
    union of all relations.
    """

    name: str
    graph: CSRGraph
    features: np.ndarray
    labels: np.ndarray
    num_classes: int
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray
    paper_stats: Optional[PaperDatasetStats] = None
    relations: Dict[str, CSRGraph] = field(default_factory=dict)

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])

    def summary(self) -> str:
        return (
            f"{self.name}: |V|={self.num_vertices} |E|={self.num_edges} "
            f"d={self.feature_dim} classes={self.num_classes} "
            f"avg_deg={self.num_edges / max(self.num_vertices, 1):.1f}"
        )


def _finalize(
    name: str,
    graph: CSRGraph,
    labels: np.ndarray,
    num_classes: int,
    feature_dim: int,
    seed: int,
    random_feats: bool = False,
    relations: Optional[Dict[str, CSRGraph]] = None,
) -> Dataset:
    if random_feats:
        feats = random_features(graph.num_vertices, feature_dim, seed=seed + 7)
    else:
        feats = community_features(
            labels, feature_dim, signal=1.5, noise=1.0, seed=seed + 7
        )
    train, val, test = split_train_val_test(graph.num_vertices, seed=seed + 11)
    return Dataset(
        name=name,
        graph=graph,
        features=feats,
        labels=np.asarray(labels, dtype=INDEX_DTYPE),
        num_classes=num_classes,
        train_mask=train,
        val_mask=val,
        test_mask=test,
        paper_stats=PAPER_DATASET_STATS.get(name),
        relations=relations or {},
    )


def make_reddit_sim(scale: float = 1.0, seed: int = 0) -> Dataset:
    """Dense power-law stand-in for Reddit.

    Base size 8192 vertices at avg degree ~96 gives density ~1.2e-2 — in the
    "dense" regime where cache blocking has a pronounced sweet spot, like
    Reddit's 2e-3 vs Products' 2e-5 (paper Table 3).
    """
    n = max(int(8192 * scale), 256)
    num_classes = 16
    sizes = _block_sizes(n, num_classes)
    # dense community graph + heavy global hub structure
    g = _distinct_graph(lambda: _join_edges(
        sbm_graph(sizes, p_in=min(0.15, 600.0 / n), p_out=4.0 / n, seed=seed),
        rmat_graph(max(int(np.ceil(np.log2(n))), 2), edge_factor=48.0, a=0.65, seed=seed + 1),
        n,
    ), n, bidirected=True)
    labels = sbm_labels(sizes)
    return _finalize("reddit", g, labels, num_classes, feature_dim=64, seed=seed)


def make_products_sim(scale: float = 1.0, seed: int = 0) -> Dataset:
    """Sparse power-law stand-in for OGBN-Products (avg deg ~25 here vs 50)."""
    n = max(int(16384 * scale), 512)
    num_classes = 24
    sizes = _block_sizes(n, num_classes)
    g = _distinct_graph(lambda: _join_edges(
        sbm_graph(sizes, p_in=min(0.05, 180.0 / n), p_out=1.0 / n, seed=seed),
        rmat_graph(max(int(np.ceil(np.log2(n))), 2), edge_factor=10.0, a=0.6, seed=seed + 1),
        n,
    ), n, bidirected=True)
    labels = sbm_labels(sizes)
    return _finalize("ogbn-products", g, labels, num_classes, feature_dim=50, seed=seed)


def make_proteins_sim(scale: float = 1.0, seed: int = 0) -> Dataset:
    """Clustered stand-in for Proteins.

    Strong intra-community structure (intra_fraction=0.95) so Libra finds
    near-clean cuts, reproducing the paper's lowest replication factor
    (Table 4) and near-linear scaling (Fig. 5).  Features are random, as in
    the paper.
    """
    n = max(int(20000 * scale), 512)
    num_blocks = 64
    g = powerlaw_cluster_graph(
        n, num_blocks=num_blocks, avg_degree=30.0, intra_fraction=0.95, seed=seed,
        directed=False,
    )
    sizes = _block_sizes(n, num_blocks)
    labels = sbm_labels(sizes)
    ds = _finalize(
        "proteins", g, labels, num_blocks, feature_dim=64, seed=seed, random_feats=True
    )
    return ds


def make_papers_sim(scale: float = 1.0, seed: int = 0) -> Dataset:
    """Sparse citation-style stand-in for OGBN-Papers (avg deg ~15)."""
    n = max(int(32768 * scale), 512)
    num_classes = 32
    sizes = _block_sizes(n, num_classes)
    g = _distinct_graph(lambda: _join_edges(
        sbm_graph(sizes, p_in=min(0.02, 60.0 / n), p_out=0.5 / n, seed=seed),
        rmat_graph(max(int(np.ceil(np.log2(n))), 2), edge_factor=6.0, a=0.62, seed=seed + 1),
        n,
    ), n)
    labels = sbm_labels(sizes)
    return _finalize("ogbn-papers", g, labels, num_classes, feature_dim=64, seed=seed)


AM_RELATIONS = ("material", "creator", "relatedTo", "partOf", "exhibits")


def make_am_sim(scale: float = 1.0, seed: int = 0) -> Dataset:
    """Heterogeneous stand-in for the Amsterdam Museum graph.

    Five relation types over one vertex set; the homogeneous ``graph`` field
    is their union.  The paper assigns vertex-id-derived features (feature
    dim 1); we keep a small feature dim and SBM labels for trainability.
    """
    n = max(int(4096 * scale), 256)
    num_classes = 11
    sizes = _block_sizes(n, num_classes)
    labels = sbm_labels(sizes)
    rng = np.random.default_rng(seed)
    relations: Dict[str, CSRGraph] = {}
    all_src, all_dst = [], []
    for k, rel in enumerate(AM_RELATIONS):
        g_rel = sbm_graph(
            sizes, p_in=min(0.03, 30.0 / n), p_out=0.8 / n, seed=seed + 13 * (k + 1)
        )
        relations[rel] = g_rel
        s, d, _ = g_rel.to_coo()
        all_src.append(s)
        all_dst.append(d)
    src = np.concatenate(all_src)
    dst = np.concatenate(all_dst)
    src, dst = dedupe_edges(src, dst)
    union = coo_to_csr(src, dst, num_dst=n, num_src=n)
    ds = _finalize(
        "am", union, labels, num_classes, feature_dim=16, seed=seed, relations=relations
    )
    return ds


def _block_sizes(n: int, k: int) -> list:
    base = n // k
    sizes = [base] * (k - 1)
    sizes.append(n - base * (k - 1))
    return sizes


DATASET_REGISTRY: Dict[str, Callable[..., Dataset]] = {
    "reddit": make_reddit_sim,
    "ogbn-products": make_products_sim,
    "proteins": make_proteins_sim,
    "ogbn-papers": make_papers_sim,
    "am": make_am_sim,
}


def load_dataset(name: str, scale: float = 1.0, seed: int = 0) -> Dataset:
    """Load a stand-in dataset by paper name.

    ``scale`` multiplies the base vertex count (1.0 = CI-friendly default;
    benchmarks use larger scales).
    """
    key = name.lower()
    if key not in DATASET_REGISTRY:
        raise KeyError(
            f"unknown dataset {name!r}; available: {sorted(DATASET_REGISTRY)}"
        )
    return DATASET_REGISTRY[key](scale=scale, seed=seed)
