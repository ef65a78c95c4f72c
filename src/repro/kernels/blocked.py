"""Source-block construction for cache blocking — paper Algorithm 2.

Blocking splits the *source* vertex range into ``nB`` contiguous blocks
and makes one pass over all destinations per block, so that the active
slice of ``f_V`` stays cache-resident (the paper blocks ``f_V`` rather
than ``f_O`` to keep destination ownership race-free, Section 4.2).

``build_blocks`` materializes the per-block CSR matrices of Alg. 2 line 2
in a single O(E) pass.  :class:`BlockedGraph` is that block list built
ahead of time by the caller, exactly as DistGNN builds it once per graph;
passing it to ``aggregate`` makes its blocks the source-block axis of the
pass plan (:func:`repro.kernels.engine.plan_pass`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.graph.builders import _stable_order
from repro.graph.csr import CSRGraph, INDEX_DTYPE


def block_bounds(num_src: int, num_blocks: int) -> np.ndarray:
    """Source-range boundaries for ``num_blocks`` equal blocks.

    Returns ``(num_blocks + 1,)`` offsets; block ``i`` spans
    ``[bounds[i], bounds[i+1])``.  Matches the paper's
    ``B = ceil(|V| / nB)`` convention.
    """
    if num_blocks < 1:
        raise ValueError("num_blocks must be >= 1")
    block_size = -(-num_src // num_blocks)  # ceil division
    bounds = np.minimum(
        np.arange(num_blocks + 1, dtype=INDEX_DTYPE) * block_size, num_src
    )
    return bounds


def build_blocks(graph: CSRGraph, num_blocks: int) -> List[CSRGraph]:
    """Per-block CSR matrices (Alg. 2 line 2) in one pass over the edges.

    Each block keeps the full destination row set but only the edges whose
    source falls in the block's range; column ids remain global so feature
    gathers need no translation.
    """
    bounds = block_bounds(graph.num_src, num_blocks)
    if num_blocks == 1:
        return [graph]
    src, dst, eid = graph.to_coo()
    block_size = int(bounds[1] - bounds[0]) if num_blocks > 0 else graph.num_src
    block_of = np.minimum(src // max(block_size, 1), num_blocks - 1)
    order = _stable_order(block_of, num_blocks)  # preserves dst-major order
    src, dst, eid, block_of = src[order], dst[order], eid[order], block_of[order]
    edge_splits = np.searchsorted(block_of, np.arange(num_blocks + 1))
    blocks: List[CSRGraph] = []
    n = graph.num_vertices
    for b in range(num_blocks):
        lo, hi = edge_splits[b], edge_splits[b + 1]
        counts = np.bincount(dst[lo:hi], minlength=n).astype(INDEX_DTYPE)
        indptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=indptr[1:])
        blocks.append(
            CSRGraph(
                indptr=indptr,
                indices=src[lo:hi],
                edge_ids=eid[lo:hi],
                num_src=graph.num_src,
            )
        )
    return blocks


@dataclass
class BlockedGraph:
    """A graph pre-split into source blocks, reusable across epochs."""

    graph: CSRGraph
    num_blocks: int
    blocks: List[CSRGraph]
    bounds: np.ndarray

    @classmethod
    def build(cls, graph: CSRGraph, num_blocks: int) -> "BlockedGraph":
        return cls(
            graph=graph,
            num_blocks=num_blocks,
            blocks=build_blocks(graph, num_blocks),
            bounds=block_bounds(graph.num_src, num_blocks),
        )
