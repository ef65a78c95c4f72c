"""Libra vertex-cut partitioner.

Libra (Xie et al. [32] in the paper) "works on a simple principle ... it
partitions the edges by assigning them to the least-loaded relevant
(based on edge vertices) partition" (Section 5.1).  Concretely, for each
edge ``(u, v)`` in turn:

1. if some partition already holds both ``u`` and ``v``, pick the
   least-loaded such partition (no new replica);
2. else if partitions hold ``u`` or ``v``, pick the least-loaded among
   them (one new replica);
3. else pick the globally least-loaded partition (two new replicas).

Load is the partition's edge count, which is why Libra "produces highly
balanced partitions in terms of the number of edges" despite having no
hard balance constraint (Section 6.3).

Membership is one packed bitmask per vertex (bit ``p`` <=> partition
``p`` holds a clone), so each step is two integer reads and a scan of
the candidate bits; the edge loop is sequential because each decision
depends on all previous ones.  It lives in
:class:`repro.dyngraph.ingest.LibraState` (which documents the tie-noise
limit) — this batch entry point replays that state over one (optionally
shuffled) edge sequence, so streaming ≡ batch holds by construction.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.dyngraph.ingest import LibraState
from repro.graph.csr import CSRGraph, INDEX_DTYPE


def libra_partition(
    graph: CSRGraph,
    num_partitions: int,
    seed: Optional[int] = 0,
    shuffle_edges: bool = True,
) -> np.ndarray:
    """Assign every edge of ``graph`` to a partition.

    Parameters
    ----------
    graph:
        Input graph (edges taken in CSR order unless shuffled).
    num_partitions:
        Number of partitions (sockets).
    seed:
        Seed for the edge-order shuffle and tie-breaking.
    shuffle_edges:
        Stream edges in random order (reduces order artifacts; Libra's
        greedy rule is order-sensitive).

    Returns
    -------
    ``(num_edges,)`` int array: partition of each edge, indexed by the
    graph's **edge id** (so the assignment composes with any CSR reorder).
    """
    p = int(num_partitions)
    if p < 1:
        raise ValueError("num_partitions must be >= 1")
    src, dst, eid = graph.to_coo()
    m = src.size
    assignment = np.zeros(graph.num_edges, dtype=INDEX_DTYPE)
    if p == 1 or m == 0:
        return assignment

    rng = np.random.default_rng(seed)
    order = rng.permutation(m) if shuffle_edges else np.arange(m)

    n = max(graph.num_vertices, graph.num_src)
    state = LibraState(n, p, seed=seed)
    # Tiny random tie-break noise keeps argmin from always favouring low
    # ids.  Drawn from *this* generator, after the permutation, so the
    # historical RNG stream (and every shuffled assignment ever
    # produced) is preserved; without a shuffle the permutation is never
    # drawn and this equals the state's own first-draw tie.
    state.tie = rng.random(p) * 1e-9
    assignment[eid[order]] = state.assign(src[order], dst[order])
    return assignment


def replication_factor_of_assignment(
    graph: CSRGraph, assignment: np.ndarray, num_partitions: int
) -> float:
    """Average clones per present vertex (paper Table 4 metric)."""
    src, dst, eid = graph.to_coo()
    parts = assignment[eid]
    n = max(graph.num_vertices, graph.num_src)
    member = np.zeros((n, num_partitions), dtype=bool)
    member[src, parts] = True
    member[dst, parts] = True
    clones = member.sum(axis=1)
    present = clones > 0
    if not present.any():
        return 0.0
    return float(clones[present].mean())
