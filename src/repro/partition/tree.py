"""1-level split-vertex trees (paper Section 5.3 / Alg. 4).

For every original vertex that got split, a 1-level tree is built over
its clones: one clone is chosen (randomly) as the **root**, the rest are
**leaves**.  Synchronization of partial aggregates runs leaves -> root
(send partials), root reduces, then root -> leaves (send the final
aggregate back).

``build_split_trees`` also produces, per partition, the index arrays the
communication pre/post-processing steps need: which local rows to gather
into send buffers and which to scatter-reduce receives into — the
"local gather" and "scatter-reduce" operations of Alg. 4 lines 10/14/15/20.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.graph.csr import INDEX_DTYPE
from repro.partition.partition import PartitionedGraph


@dataclass
class TreeExchangePlan:
    """Vectorized routing tables for the tree exchanges of one tree set.

    For tree ``t`` with root on partition ``r`` and a leaf on partition
    ``p``, the leaf->root phase sends row ``leaf_local[t]`` from ``p`` to
    ``r`` where it reduces into ``root_local[t]``; root->leaf reverses the
    route.  All four directions are flattened into per-(src_part,
    dst_part) index arrays so each phase is pure fancy-indexing.
    """

    #: leaf->root routes: arrays of (leaf_part, leaf_local, root_part, root_local)
    leaf_part: np.ndarray
    leaf_local: np.ndarray
    root_part: np.ndarray
    root_local: np.ndarray
    #: tree index of each route (for binning in cd-r).
    tree_index: np.ndarray
    #: total number of split-vertex trees
    num_trees: int = 0

    @property
    def num_routes(self) -> int:
        return self.leaf_part.size

    def select(self, route_indices: np.ndarray) -> "TreeExchangePlan":
        """Sub-plan containing only the given routes (used for binning)."""
        return TreeExchangePlan(
            leaf_part=self.leaf_part[route_indices],
            leaf_local=self.leaf_local[route_indices],
            root_part=self.root_part[route_indices],
            root_local=self.root_local[route_indices],
            tree_index=self.tree_index[route_indices],
            num_trees=self.num_trees,
        )


def build_split_trees(
    parted: PartitionedGraph, seed: Optional[int] = 0, build_tree_objects: bool = False
) -> TreeExchangePlan:
    """Build the 1-level trees as their flattened exchange plan.

    Roots are drawn uniformly among each vertex's clones ("we randomly
    assign one of its split-vertices as the root", Section 5.3).  The whole
    construction is vectorized over the (split-vertex, clone) pair list so
    large partitionings (hundreds of thousands of split vertices) build in
    milliseconds.  A tree is its routes (``tree_index``); there are no
    per-tree objects.  ``build_tree_objects`` is accepted and unused:
    the frozen ``benchmarks/suite/suite_train.py`` passes it.
    """
    rng = np.random.default_rng(seed)
    split = parted.split_vertices
    if split.size == 0:
        empty = np.zeros(0, dtype=INDEX_DTYPE)
        return TreeExchangePlan(
            leaf_part=empty, leaf_local=empty,
            root_part=empty, root_local=empty, tree_index=empty, num_trees=0,
        )
    sub = parted.membership[split]  # (num_split, P)
    rows, cols = np.nonzero(sub)  # clone pairs, row-major (sorted by tree)
    counts = sub.sum(axis=1)
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(INDEX_DTYPE)
    choice = rng.integers(0, counts)
    root_pos = offsets[:-1] + choice
    root_parts = cols[root_pos].astype(INDEX_DTYPE)

    # Local ids of every clone pair, translated in one batch per partition.
    pair_local = np.empty(rows.size, dtype=INDEX_DTYPE)
    for p in range(parted.num_partitions):
        mask = cols == p
        if mask.any():
            pair_local[mask] = np.searchsorted(
                parted.parts[p].global_ids, split[rows[mask]]
            )
    root_locals = pair_local[root_pos]

    leaf_mask = np.ones(rows.size, dtype=bool)
    leaf_mask[root_pos] = False
    leaf_rows = rows[leaf_mask]
    lp = cols[leaf_mask].astype(INDEX_DTYPE)
    ll = pair_local[leaf_mask]
    rp = root_parts[leaf_rows]
    rl = root_locals[leaf_rows]
    ti = leaf_rows.astype(INDEX_DTYPE)

    return TreeExchangePlan(
        leaf_part=lp,
        leaf_local=ll,
        root_part=rp,
        root_local=rl,
        tree_index=ti,
        num_trees=int(split.size),
    )


def bin_routes(plan: TreeExchangePlan, num_bins: int) -> List[TreeExchangePlan]:
    """Split the exchange plan into ``r`` bins by tree (Alg. 4 lines 3–6).

    cd-r communicates one bin per epoch ("Communication can be further
    reduced by involving only a subset of split-vertices (through binning)
    in each epoch").  Binning by *tree* keeps each split vertex's full
    leaf set in one bin so a root reduction always sees all partials.
    """
    if num_bins < 1:
        raise ValueError("num_bins must be >= 1")
    bins = []
    num_trees = plan.num_trees
    if num_trees == 0:
        return [plan.select(np.zeros(0, dtype=np.int64)) for _ in range(num_bins)]
    for b in range(num_bins):
        # Trees are dealt contiguously, mirroring S_i <- {T_{i*k} ... T_{(i+1)*k}}.
        k = -(-num_trees // num_bins)
        lo, hi = b * k, min((b + 1) * k, num_trees)
        routes = np.flatnonzero((plan.tree_index >= lo) & (plan.tree_index < hi))
        bins.append(plan.select(routes))
    return bins
