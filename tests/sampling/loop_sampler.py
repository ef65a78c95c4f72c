"""The per-vertex sampling loop ``NeighborSampler._sample_hop`` was until
ISSUE 23, kept as the oracle of ``test_sampler.py``: the array pass must
reproduce it exactly whenever no frontier row exceeds the fan-out, and
match its distribution (not its RNG stream) otherwise.
"""

from typing import List

import numpy as np

from repro.graph.builders import coo_to_csr
from repro.graph.csr import INDEX_DTYPE
from repro.sampling import MessageFlowBlock, NeighborSampler


class LoopSampler(NeighborSampler):
    """``NeighborSampler`` with the displaced hop: ``g.neighbors(v)`` /
    ``rng.choice`` per destination, dict relabelling, ``coo_to_csr``."""

    def _sample_hop(self, dst_frontier: np.ndarray, fanout: int) -> MessageFlowBlock:
        g = self.graph
        src_parts: List[np.ndarray] = []
        dst_parts: List[np.ndarray] = []
        for v in dst_frontier.tolist():
            nbrs = g.neighbors(v)
            if nbrs.size == 0:
                continue
            if nbrs.size > fanout:
                nbrs = self.rng.choice(nbrs, size=fanout, replace=False)
            src_parts.append(nbrs.astype(INDEX_DTYPE))
            dst_parts.append(np.full(nbrs.size, v, dtype=INDEX_DTYPE))
        if src_parts:
            src = np.concatenate(src_parts)
            dst = np.concatenate(dst_parts)
        else:
            src = np.zeros(0, dtype=INDEX_DTYPE)
            dst = np.zeros(0, dtype=INDEX_DTYPE)
        # source frontier: dst rows first, then newly discovered vertices
        extra = np.setdiff1d(src, dst_frontier)
        src_global = np.concatenate([dst_frontier, extra]).astype(INDEX_DTYPE)
        lookup = {int(gv): i for i, gv in enumerate(src_global.tolist())}
        dst_lookup = {int(gv): i for i, gv in enumerate(dst_frontier.tolist())}
        lsrc = np.array([lookup[int(s)] for s in src], dtype=INDEX_DTYPE)
        ldst = np.array([dst_lookup[int(d)] for d in dst], dtype=INDEX_DTYPE)
        block_graph = coo_to_csr(
            lsrc,
            ldst,
            num_dst=dst_frontier.size,
            num_src=src_global.size,
        )
        return MessageFlowBlock(
            graph=block_graph, src_global=src_global, dst_global=dst_frontier
        )
