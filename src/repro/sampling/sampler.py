"""Fan-out neighbourhood sampling (the Dist-DGL training mode).

Sampling proceeds from the seed (output) vertices backwards: each hop
draws up to ``fanout`` in-edges per frontier vertex from the full graph
and materializes a bipartite **message-flow block** (rows: the frontier,
columns: the next, larger one) in one array pass, :func:`sample_neighbors`.
Its contract, each point tested against the per-vertex loop it replaced
(``tests/sampling``): (1) a row's sample is uniform over the ``min(deg,
fanout)``-subsets of its edge *positions*; (2) a hop keeps ``sum(min(deg,
fanout))`` edges, no position twice; (3) with no row over the fan-out the
block is the loop's, array for array; (4) self rows lead the source
frontier (the GCN self-connection, ``z + h`` in the combine step, is a
plain row slice), new vertices ascending after them; (5) same seed, same
batches.  ``sample`` holds the instance's lock: concurrent callers of
one sampler take turns.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.builders import sorted_unique
from repro.graph.csr import CSRGraph, INDEX_DTYPE


@dataclass
class MessageFlowBlock:
    """One bipartite hop: edges from the src frontier into the dst frontier.

    ``graph`` is a rectangular CSR with ``num_vertices == len(dst_global)``
    rows and ``num_src == len(src_global)`` columns; ``src_global[:len(
    dst_global)] == dst_global`` (self rows lead the source frontier).
    """

    graph: CSRGraph
    src_global: np.ndarray
    dst_global: np.ndarray

    @property
    def num_dst(self) -> int:
        return self.dst_global.size

    @property
    def num_src(self) -> int:
        return self.src_global.size

    @property
    def num_sampled_edges(self) -> int:
        return self.graph.num_edges

    def norm(self) -> np.ndarray:
        """GCN normalizer over sampled degrees: 1 / (deg + 1), column."""
        deg = self.graph.in_degrees().astype(np.float32)
        return (1.0 / (deg + 1.0)).reshape(-1, 1)


@dataclass
class SampledBatch:
    """Blocks ordered input-side first (apply ``blocks[0]`` at layer 0)."""

    seeds: np.ndarray
    blocks: List[MessageFlowBlock]

    @property
    def input_vertices(self) -> np.ndarray:
        """Global ids whose features feed the first layer."""
        return self.blocks[0].src_global

    @property
    def total_sampled_edges(self) -> int:
        return sum(b.num_sampled_edges for b in self.blocks)

    def work_ops(self, feature_dims: Sequence[int]) -> float:
        """Paper Table 7 accounting: sampled edges x feature width per hop."""
        if len(feature_dims) != len(self.blocks):
            raise ValueError("one feature dim per block required")
        return float(
            sum(
                b.num_sampled_edges * d
                for b, d in zip(self.blocks, feature_dims)
            )
        )


def sample_neighbors(
    graph: CSRGraph, frontier: np.ndarray, fanout: int, rng: np.random.Generator
) -> Tuple[np.ndarray, np.ndarray]:
    """One hop's selection: ``row`` (index into ``frontier``) and global
    ``src`` of every kept edge, in CSR order.  When a row is over-full each
    candidate edge draws a uniform key and one sort on ``row + key`` (rows
    are contiguous: it orders within rows) ranks them; ``fanout`` per row stay."""
    starts = graph.indptr[frontier]
    deg = graph.indptr[frontier + 1] - starts
    first = np.cumsum(deg) - deg  # each row's first candidate
    row = np.repeat(np.arange(frontier.size, dtype=INDEX_DTYPE), deg)
    cand = np.arange(row.size, dtype=INDEX_DTYPE)
    if deg.max(initial=0) > fanout:
        order = np.argsort(row + rng.random(row.size))
        cand = np.sort(order[cand - first[row] < fanout])  # back to CSR order
        row = row[cand]
    return row, graph.indices[cand + (starts - first)[row]]


class NeighborSampler:
    """Fan-out sampler over a full graph."""

    def __init__(
        self,
        graph: CSRGraph,
        fanouts: Sequence[int],
        seed: int = 0,
    ):
        if not fanouts or any(f < 1 for f in fanouts):
            raise ValueError("fanouts must be positive, one per layer")
        self.graph = graph
        #: fanouts[i] applies at layer i (innermost = seeds' layer is last).
        self.fanouts = list(fanouts)
        self.rng = np.random.default_rng(seed)
        #: global id -> row of the hop's source frontier, -1 between hops; the
        #: first ``sample`` allocates it (serving builds samplers it never calls)
        self._local: Optional[np.ndarray] = None
        self._lock = threading.Lock()  # guards ``_local`` and ``rng``

    def sample(self, seeds: np.ndarray) -> SampledBatch:
        """Sample a batch: one block per fanout, seeds outward."""
        seeds = np.asarray(seeds)
        n = self.graph.num_vertices
        if seeds.size == 0:
            raise ValueError("cannot sample an empty seed set")
        if not np.issubdtype(seeds.dtype, np.integer):
            raise ValueError(f"seeds must be integer vertex ids, got {seeds.dtype}")
        for bad in (seeds.min(), seeds.max()):
            if not 0 <= bad < n:
                raise ValueError(f"seed vertex id {bad} outside [0, {n})")
        seeds = sorted_unique(seeds.astype(INDEX_DTYPE))
        blocks_rev: List[MessageFlowBlock] = []
        frontier = seeds
        with self._lock:
            if self._local is None:
                self._local = np.full(max(n, self.graph.num_src), -1, dtype=INDEX_DTYPE)
            try:
                # iterate output-side inwards; fanouts apply innermost-last
                for fanout in reversed(self.fanouts):
                    block = self._sample_hop(frontier, fanout)
                    blocks_rev.append(block)
                    frontier = block.src_global
            except BaseException:
                self._local = None  # a half-written map must not outlive the call
                raise
        return SampledBatch(seeds=seeds, blocks=list(reversed(blocks_rev)))

    def _sample_hop(self, dst_frontier: np.ndarray, fanout: int) -> MessageFlowBlock:
        """Select, relabel through the scratch map (restored on the way out:
        nothing per hop is O(V)), write the CSR of the row-grouped edges."""
        num_dst = dst_frontier.size
        local = self._local
        row, src = sample_neighbors(self.graph, dst_frontier, fanout, self.rng)
        local[dst_frontier] = np.arange(num_dst, dtype=INDEX_DTYPE)
        extra = sorted_unique(src[local[src] < 0])  # newly discovered vertices
        local[extra] = np.arange(num_dst, num_dst + extra.size, dtype=INDEX_DTYPE)
        src_global = np.concatenate([dst_frontier, extra])
        indptr = np.concatenate([[0], np.cumsum(np.bincount(row, minlength=num_dst))])
        graph = CSRGraph(indptr=indptr, indices=local[src], num_src=src_global.size)
        local[src_global] = -1
        return MessageFlowBlock(graph, src_global, dst_frontier)
