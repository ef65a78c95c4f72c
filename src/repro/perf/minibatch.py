"""Dist-DGL neighbourhood-sampling work model (Tables 7 and 9).

Dist-DGL trains with mini-batches sampled by fan-out: starting from a
batch of training vertices (hop-0), each hop samples up to ``fanout``
neighbours per frontier vertex and de-duplicates the union.  Work per hop
is counted with the paper's metric (vertices x degree x feats), where the
"degree" of a sampled hop is its fan-out.

``sampled_frontier_sizes`` also runs the *actual* sampling procedure on a
graph so the closed-form de-dup model can be validated empirically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.builders import sorted_unique
from repro.graph.csr import CSRGraph
from repro.perf.workmodel import (
    LayerWork,
    PRODUCTS_TRAIN_VERTICES,
)
from repro.sampling.sampler import sample_neighbors


@dataclass(frozen=True)
class MinibatchHop:
    """One sampled hop (paper Table 7 row)."""

    hop: int
    num_vertices: float
    fanout: int
    feature_dim: int

    @property
    def ops(self) -> float:
        return self.num_vertices * self.fanout * self.feature_dim

    @property
    def b_ops(self) -> float:
        return self.ops / 1e9


def expected_unique(draws: float, population: float) -> float:
    """Expected distinct values when ``draws`` samples hit ``population``
    uniformly (birthday-style de-dup model)."""
    if population <= 0:
        return 0.0
    return population * (1.0 - np.exp(-draws / population))


def minibatch_hops(
    batch_size: int,
    fanouts: Sequence[int],
    feature_dims: Sequence[int],
    population: float,
) -> List[MinibatchHop]:
    """Closed-form per-hop table for one mini-batch.

    ``fanouts`` ordered hop-0 outward (paper: 15, 10, 5);
    ``feature_dims`` the input width of each hop's aggregation
    (256, 256, 100).  Frontier growth de-duplicates against the vertex
    population.
    """
    if len(fanouts) != len(feature_dims):
        raise ValueError("fanouts and feature_dims must align")
    hops: List[MinibatchHop] = []
    frontier = float(batch_size)
    for i, (fanout, dim) in enumerate(zip(fanouts, feature_dims)):
        hops.append(
            MinibatchHop(
                hop=i, num_vertices=frontier, fanout=fanout, feature_dim=dim
            )
        )
        frontier = expected_unique(frontier * fanout, population)
    return hops


def minibatch_epoch_work(
    batch_size: int,
    fanouts: Sequence[int],
    feature_dims: Sequence[int],
    population: float,
    train_vertices: int = PRODUCTS_TRAIN_VERTICES,
    num_sockets: int = 1,
) -> Tuple[List[MinibatchHop], float, int]:
    """(hops of one batch, epoch B Ops per socket, batches per socket).

    Training vertices are split evenly across sockets; each socket runs
    ``ceil(train/sockets/batch)`` mini-batches per epoch (Table 7 reports
    99 batches at 1 socket, 7 at 16 for OGBN-Products).
    """
    hops = minibatch_hops(batch_size, fanouts, feature_dims, population)
    per_batch = sum(h.b_ops for h in hops)
    batches = int(np.ceil(train_vertices / num_sockets / batch_size))
    return hops, per_batch * batches, batches


def sampled_frontier_sizes(
    graph: CSRGraph,
    seeds: np.ndarray,
    fanouts: Sequence[int],
    seed: int = 0,
) -> List[int]:
    """Empirical de-duplicated frontier sizes of fan-out sampling.

    Returns ``[len(hop0), len(hop1), ...]`` including the seed set.  Used
    to validate :func:`expected_unique` against real graph structure.
    """
    rng = np.random.default_rng(seed)
    frontier = sorted_unique(seeds)
    sizes = [int(frontier.size)]
    for fanout in fanouts:
        _, src = sample_neighbors(graph, frontier, fanout, rng)
        frontier = sorted_unique(src)
        sizes.append(int(frontier.size))
    return sizes


#: Table 7 configuration for OGBN-Products.
PRODUCTS_BATCH_SIZE = 2000
PRODUCTS_FANOUTS = (15, 10, 5)
PRODUCTS_MB_FEATURE_DIMS = (256, 256, 100)
