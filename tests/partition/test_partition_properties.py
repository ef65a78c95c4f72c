"""Property-based partitioning invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builders import coo_to_csr
from repro.partition import build_partitions, libra_partition
from repro.partition.baselines import hash_edge_partition, random_edge_partition


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=2, max_value=25))
    m = draw(st.integers(min_value=1, max_value=60))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    return coo_to_csr(
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        num_dst=n,
        num_src=n,
    )


@given(graphs(), st.integers(min_value=1, max_value=6), st.integers(0, 100))
@settings(max_examples=50, deadline=None)
def test_libra_assignment_complete(g, p, seed):
    asn = libra_partition(g, p, seed=seed)
    assert asn.shape == (g.num_edges,)
    assert np.all((asn >= 0) & (asn < p))


@given(graphs(), st.integers(min_value=1, max_value=5), st.integers(0, 50))
@settings(max_examples=50, deadline=None)
def test_partition_edge_conservation(g, p, seed):
    asn = libra_partition(g, p, seed=seed)
    parted = build_partitions(g, asn, p)
    assert sum(pt.num_edges for pt in parted.parts) == g.num_edges
    # every edge's endpoints are present in its partition
    src, dst, eid = g.to_coo()
    for s, d, e in zip(src, dst, eid):
        part = parted.parts[int(asn[e])]
        assert part.contains(np.array([s]))[0]
        assert part.contains(np.array([d]))[0]


@given(graphs(), st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_replication_factor_bounds(g, p):
    asn = libra_partition(g, p, seed=0)
    parted = build_partitions(g, asn, p)
    rf = parted.replication_factor
    assert 1.0 - 1e-9 <= rf <= p + 1e-9


@given(graphs(), st.integers(min_value=2, max_value=5), st.integers(0, 50))
@settings(max_examples=40, deadline=None)
def test_trees_cover_every_clone_exactly_once(g, p, seed):
    from repro.partition import build_split_trees

    asn = random_edge_partition(g, p, seed=seed)
    parted = build_partitions(g, asn, p)
    plan = build_split_trees(parted, seed=seed)
    clones = parted.membership.sum(axis=1)
    assert plan.num_routes == int(np.maximum(clones - 1, 0).sum())
    # each (tree, leaf_part) pair appears at most once
    pairs = list(zip(plan.tree_index.tolist(), plan.leaf_part.tolist()))
    assert len(pairs) == len(set(pairs))
