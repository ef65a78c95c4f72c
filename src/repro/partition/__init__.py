"""Vertex-cut graph partitioning (paper Section 5.1–5.2).

DistGNN distributes *edges* across partitions (vertex-cut): every edge
lives in exactly one partition while a vertex may be replicated ("split")
into clones across several.  The partitioner of record is Libra — greedy
assignment of each edge to the least-loaded partition already containing
one of its endpoints — which the paper shows yields balanced partitions
and low replication factors on power-law graphs (Table 4).

- :mod:`repro.partition.libra` — the Libra partitioner.
- :mod:`repro.partition.baselines` — random / hash edge-cut baselines for
  the partitioner ablation.
- :mod:`repro.partition.partition` — partition data structures: local and
  global IDs, the ``vertex_map`` locating any local ID, split-vertex clone
  lists (paper Section 5.2).
- :mod:`repro.partition.tree` — the 1-level root/leaves trees coordinating
  split-vertex communication in Alg. 4.
- :mod:`repro.partition.stats` — replication factor and balance metrics.

Libra's greedy rule is inherently streaming, so it also runs online:
:class:`~repro.dyngraph.ingest.LibraState` (re-exported here) assigns
partitions to edges as they arrive, byte-equal to a batch replay.
"""

from repro.dyngraph.ingest import LibraState, streaming_libra_partition
from repro.partition.baselines import hash_edge_partition, random_edge_partition
from repro.partition.libra import libra_partition
from repro.partition.partition import (
    GraphPartition,
    PartitionedGraph,
    build_partitions,
)
from repro.partition.stats import PartitionStats, partition_stats
from repro.partition.tree import build_split_trees

__all__ = [
    "libra_partition",
    "LibraState",
    "streaming_libra_partition",
    "random_edge_partition",
    "hash_edge_partition",
    "GraphPartition",
    "PartitionedGraph",
    "build_partitions",
    "build_split_trees",
    "PartitionStats",
    "partition_stats",
]
