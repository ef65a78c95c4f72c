"""Partition data structures (paper Section 5.2).

A partition holds every edge assigned to it plus a *local* copy of each
endpoint vertex.  Vertices present in several partitions are
*split-vertices*; each clone owns its own feature rows and participates in
local aggregation, and the clones synchronize through the trees of
:mod:`repro.partition.tree`.

Local IDs are consecutive within a partition, and the global
``vertex_map`` records each partition's range so that a (partition,
local-id) pair — or equivalently a single *unified* id — pinpoints any
clone, exactly as described in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.graph.builders import coo_to_csr
from repro.graph.csr import CSRGraph, INDEX_DTYPE


@dataclass
class GraphPartition:
    """One partition: local CSR graph + local<->global vertex maps."""

    part_id: int
    #: local id -> global id (sorted ascending, enabling binary search).
    global_ids: np.ndarray
    #: local destination-major CSR; ``graph.edge_ids`` are **global** edge
    #: ids so global edge-feature matrices can be gathered directly.
    graph: CSRGraph

    @property
    def num_vertices(self) -> int:
        return self.global_ids.size

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def local_of(self, global_vertices: np.ndarray) -> np.ndarray:
        """Translate global vertex ids to local ids (must be present)."""
        gv = np.asarray(global_vertices, dtype=INDEX_DTYPE)
        idx = np.searchsorted(self.global_ids, gv)
        ok = (idx < self.global_ids.size) & (
            self.global_ids[np.minimum(idx, self.global_ids.size - 1)] == gv
        )
        if not np.all(ok):
            missing = gv[~ok]
            raise KeyError(f"vertices not in partition {self.part_id}: {missing[:5]}")
        return idx.astype(INDEX_DTYPE)

    def contains(self, global_vertices: np.ndarray) -> np.ndarray:
        gv = np.asarray(global_vertices, dtype=INDEX_DTYPE)
        idx = np.searchsorted(self.global_ids, gv)
        return (idx < self.global_ids.size) & (
            self.global_ids[np.minimum(idx, self.global_ids.size - 1)] == gv
        )


@dataclass
class PartitionedGraph:
    """The full vertex-cut partitioning of a graph."""

    graph: CSRGraph
    num_partitions: int
    #: edge id -> partition.
    assignment: np.ndarray
    parts: List[GraphPartition]
    #: ``(num_partitions + 1,)`` offsets of the consecutive local-id ranges
    #: (the paper's ``vertex_map``): unified id of (p, local) =
    #: ``vertex_map[p] + local``.
    vertex_map: np.ndarray
    #: boolean ``(num_global_vertices, num_partitions)`` clone membership.
    membership: np.ndarray

    @property
    def split_vertices(self) -> np.ndarray:
        """Global ids of vertices replicated into >= 2 partitions."""
        return np.flatnonzero(self.membership.sum(axis=1) >= 2).astype(INDEX_DTYPE)

    def clones_of(self, global_vertex: int) -> List[Tuple[int, int]]:
        """All ``(partition, local_id)`` clones of a global vertex."""
        out = []
        for p in np.flatnonzero(self.membership[global_vertex]):
            part = self.parts[p]
            out.append((int(p), int(part.local_of(np.array([global_vertex]))[0])))
        return out

    @property
    def replication_factor(self) -> float:
        """Average clones per present vertex (paper Table 4 metric)."""
        clones = self.membership.sum(axis=1)
        present = clones > 0
        return float(clones[present].mean()) if present.any() else 0.0


def build_partitions(
    graph: CSRGraph,
    assignment: np.ndarray,
    num_partitions: int,
) -> PartitionedGraph:
    """Materialize partition structures from an edge assignment.

    Parameters
    ----------
    assignment:
        ``(num_edges,)`` partition per **edge id** (from
        :func:`repro.partition.libra.libra_partition` or a baseline).

    Vertices with no edges are absent from every partition under a pure
    edge distribution; training still needs their features/labels, so
    they are dealt round-robin to partitions.
    """
    assignment = np.asarray(assignment, dtype=INDEX_DTYPE)
    if assignment.size != graph.num_edges:
        raise ValueError("assignment must map every edge")
    if assignment.size and (
        assignment.min() < 0 or assignment.max() >= num_partitions
    ):
        raise ValueError("assignment references an out-of-range partition")

    src, dst, eid = graph.to_coo()
    parts_of_edges = assignment[eid]
    n = max(graph.num_vertices, graph.num_src)

    membership = np.zeros((n, num_partitions), dtype=bool)
    membership[src, parts_of_edges] = True
    membership[dst, parts_of_edges] = True
    isolated = np.flatnonzero(~membership.any(axis=1))
    membership[isolated, isolated % num_partitions] = True

    parts: List[GraphPartition] = []
    offsets = np.zeros(num_partitions + 1, dtype=INDEX_DTYPE)
    for p in range(num_partitions):
        global_ids = np.flatnonzero(membership[:, p]).astype(INDEX_DTYPE)
        emask = parts_of_edges == p
        lsrc = np.searchsorted(global_ids, src[emask])
        ldst = np.searchsorted(global_ids, dst[emask])
        local = coo_to_csr(
            lsrc,
            ldst,
            num_dst=global_ids.size,
            num_src=global_ids.size,
            edge_ids=eid[emask],
        )
        parts.append(GraphPartition(part_id=p, global_ids=global_ids, graph=local))
        offsets[p + 1] = offsets[p] + global_ids.size

    return PartitionedGraph(
        graph=graph,
        num_partitions=num_partitions,
        assignment=assignment,
        parts=parts,
        vertex_map=offsets,
        membership=membership,
    )
