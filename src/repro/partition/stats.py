"""Partition-quality metrics (paper Tables 4 and 6)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.partition.partition import PartitionedGraph


@dataclass(frozen=True)
class PartitionStats:
    """Quality summary of one partitioning."""

    num_partitions: int
    replication_factor: float
    edge_balance: float  # max edges / mean edges, 1.0 = perfect
    vertex_balance: float
    split_vertex_fraction: float  # split vertices / present vertices
    avg_split_fraction_per_partition: float  # paper Table 6 last row
    max_edges: int
    min_edges: int

def partition_stats(parted: PartitionedGraph) -> PartitionStats:
    """Compute replication factor, balance, and split-vertex shares."""
    edges = np.array([p.num_edges for p in parted.parts], dtype=np.float64)
    verts = np.array([p.num_vertices for p in parted.parts], dtype=np.float64)
    clones = parted.membership.sum(axis=1)
    present = clones > 0
    num_present = int(present.sum())
    split_global = int((clones >= 2).sum())

    # Per-partition fraction of local vertices that are split (Table 6 reports
    # "Split-vertices/partition (%)").
    fractions = []
    split_mask = clones >= 2
    for p in parted.parts:
        if p.num_vertices:
            fractions.append(float(split_mask[p.global_ids].mean()))
    avg_split_frac = float(np.mean(fractions)) if fractions else 0.0

    mean_edges = edges.mean() if edges.size else 0.0
    mean_verts = verts.mean() if verts.size else 0.0
    return PartitionStats(
        num_partitions=parted.num_partitions,
        replication_factor=parted.replication_factor,
        edge_balance=float(edges.max() / mean_edges) if mean_edges else 1.0,
        vertex_balance=float(verts.max() / mean_verts) if mean_verts else 1.0,
        split_vertex_fraction=split_global / num_present if num_present else 0.0,
        avg_split_fraction_per_partition=avg_split_frac,
        max_edges=int(edges.max()) if edges.size else 0,
        min_edges=int(edges.min()) if edges.size else 0,
    )


def communication_volume(
    parted: PartitionedGraph, feature_dim: int, feature_bytes: int = 4
) -> float:
    """Bytes per full split-vertex synchronization round (cd-0).

    Each leaf sends one feature row up and receives one row down, so the
    volume is ``2 * num_leaf_routes * d * bytes``.
    """
    clones = parted.membership.sum(axis=1)
    leaf_routes = int(np.maximum(clones - 1, 0).sum())
    return 2.0 * leaf_routes * feature_dim * feature_bytes
