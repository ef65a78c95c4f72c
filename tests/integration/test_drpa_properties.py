"""Property-based DRPA invariants over random graphs and partitionings."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import World
from repro.core.drpa import DRPAExchanger, owned_mask, route_bins
from repro.graph.builders import coo_to_csr
from repro.kernels import aggregate
from repro.partition import build_partitions, build_split_trees
from repro.partition.baselines import random_edge_partition


def _synchronous_round(world, plan, vals, **kwargs):
    """Every rank's side of one synchronous round, stepped by the sim driver."""
    bins = route_bins(plan)
    world.run_programs(
        [
            DRPAExchanger(comm, bins, **kwargs).synchronous_round(
                vals[comm.rank], layer=0, epoch=0
            )
            for comm in world.communicators()
        ]
    )


@st.composite
def partitioned_problem(draw):
    n = draw(st.integers(min_value=3, max_value=20))
    m = draw(st.integers(min_value=2, max_value=50))
    p = draw(st.integers(min_value=2, max_value=4))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    seed = draw(st.integers(0, 500))
    g = coo_to_csr(
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        num_dst=n,
        num_src=n,
    )
    parted = build_partitions(g, random_edge_partition(g, p, seed=seed), p)
    return g, parted, seed


@given(partitioned_problem())
@settings(max_examples=30, deadline=None)
def test_cd0_sync_equals_full_aggregate(problem):
    """For ANY graph and ANY edge partitioning, the synchronous DRPA round
    reconstructs the full-graph aggregate at every clone."""
    g, parted, seed = problem
    plan = build_split_trees(parted, seed=seed, build_tree_objects=False)
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((g.num_vertices, 2))
    full = aggregate(g, h)
    vals = [
        aggregate(part.graph, h[part.global_ids])
        for part in parted.parts
    ]
    _synchronous_round(World(parted.num_partitions), plan, vals, delay=0)
    for part in parted.parts:
        np.testing.assert_allclose(
            vals[part.part_id], full[part.global_ids], atol=1e-9
        )


@given(partitioned_problem())
@settings(max_examples=30, deadline=None)
def test_ownership_is_a_partition(problem):
    g, parted, seed = problem
    plan = build_split_trees(parted, seed=seed, build_tree_objects=False)
    count = np.zeros(g.num_vertices, dtype=int)
    for r in range(parted.num_partitions):
        mask = owned_mask(parted, plan, r)
        count[parted.parts[r].global_ids[mask]] += 1
    present = parted.membership.any(axis=1)
    assert np.all(count[present] == 1)
    assert np.all(count[~present] == 0)


@given(partitioned_problem(), st.integers(min_value=1, max_value=4))
@settings(max_examples=25, deadline=None)
def test_gradient_tree_sum(problem, dim):
    """The gradient round (up-reduce + down-scatter) leaves every clone
    holding the SUM of all clones' original rows."""
    g, parted, seed = problem
    plan = build_split_trees(parted, seed=seed, build_tree_objects=False)
    rng = np.random.default_rng(seed + 1)
    vals = [
        rng.standard_normal((part.num_vertices, dim)) for part in parted.parts
    ]
    # expected: per global vertex, sum of all clone rows
    expected = np.zeros((g.num_vertices, dim))
    for part in parted.parts:
        np.add.at(expected, part.global_ids, vals[part.part_id])
    _synchronous_round(
        World(parted.num_partitions), plan, vals, delay=0, tag_prefix="grad"
    )
    for part in parted.parts:
        np.testing.assert_allclose(
            vals[part.part_id], expected[part.global_ids], atol=1e-9
        )
