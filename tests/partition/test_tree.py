"""Split-vertex trees and exchange-plan routing."""

import numpy as np
import pytest

from repro.partition import build_partitions, build_split_trees, libra_partition
from repro.partition.tree import bin_routes


@pytest.fixture
def setup(small_rmat):
    asn = libra_partition(small_rmat, 4, seed=0)
    parted = build_partitions(small_rmat, asn, 4)
    plan = build_split_trees(parted, seed=1)
    return parted, plan


class TestTrees:
    def test_one_tree_per_split_vertex(self, setup):
        parted, plan = setup
        assert plan.num_trees == parted.split_vertices.size
        # every tree has at least one route: a split vertex has >= 2 clones
        assert np.array_equal(np.unique(plan.tree_index), np.arange(plan.num_trees))

    def test_tree_covers_all_clones(self, setup):
        """Per tree, its root's partition and its leaves' partitions are
        exactly the vertex's clones."""
        parted, plan = setup
        split = parted.split_vertices
        for t in range(plan.num_trees):
            routes = plan.tree_index == t
            root_parts = set(plan.root_part[routes].tolist())
            assert len(root_parts) == 1
            tree_parts = root_parts | set(plan.leaf_part[routes].tolist())
            assert tree_parts == set(np.flatnonzero(parted.membership[split[t]]))

    def test_root_not_among_leaves(self, setup):
        _, plan = setup
        assert not np.any(plan.root_part == plan.leaf_part)
        # no leaf clone is routed twice within its tree
        pairs = set(zip(plan.tree_index.tolist(), plan.leaf_part.tolist()))
        assert len(pairs) == plan.num_routes

    def test_locals_resolve_to_global(self, setup):
        parted, plan = setup
        want = parted.split_vertices[plan.tree_index]
        for p, part in enumerate(parted.parts):
            leaves, roots = plan.leaf_part == p, plan.root_part == p
            assert np.array_equal(part.global_ids[plan.leaf_local[leaves]], want[leaves])
            assert np.array_equal(part.global_ids[plan.root_local[roots]], want[roots])

    def test_routes_count(self, setup):
        parted, plan = setup
        clones = parted.membership.sum(axis=1)
        expected = int(np.maximum(clones - 1, 0).sum())
        assert plan.num_routes == expected

    def test_deterministic_given_seed(self, small_rmat):
        asn = libra_partition(small_rmat, 4, seed=0)
        parted = build_partitions(small_rmat, asn, 4)
        a = build_split_trees(parted, seed=7)
        b = build_split_trees(parted, seed=7)
        assert np.array_equal(a.root_part, b.root_part)
        assert np.array_equal(a.leaf_local, b.leaf_local)

    def test_no_tree_objects_mode(self, small_rmat):
        """``build_tree_objects`` is accepted and changes nothing."""
        asn = libra_partition(small_rmat, 4, seed=0)
        parted = build_partitions(small_rmat, asn, 4)
        plan = build_split_trees(parted, seed=0, build_tree_objects=False)
        same = build_split_trees(parted, seed=0, build_tree_objects=True)
        for name in ("leaf_part", "leaf_local", "root_part", "root_local", "tree_index"):
            assert np.array_equal(getattr(plan, name), getattr(same, name))
        assert plan.num_trees == same.num_trees == parted.split_vertices.size
        assert plan.num_routes > 0

    def test_empty_when_no_splits(self, line_graph):
        parted = build_partitions(line_graph, np.zeros(3, dtype=int), 1)
        plan = build_split_trees(parted)
        assert plan.num_routes == 0 and plan.num_trees == 0


class TestBinning:
    def test_bins_partition_routes(self, setup):
        _, plan = setup
        for r in (1, 2, 5):
            bins = bin_routes(plan, r)
            assert len(bins) == r
            assert sum(b.num_routes for b in bins) == plan.num_routes

    def test_tree_stays_in_one_bin(self, setup):
        _, plan = setup
        bins = bin_routes(plan, 3)
        seen = {}
        for i, b in enumerate(bins):
            for t in np.unique(b.tree_index):
                assert t not in seen, "tree split across bins"
                seen[int(t)] = i

    def test_invalid_bins(self, setup):
        _, plan = setup
        with pytest.raises(ValueError):
            bin_routes(plan, 0)

    def test_more_bins_than_trees(self, setup):
        _, plan = setup
        bins = bin_routes(plan, plan.num_trees + 5)
        assert sum(b.num_routes for b in bins) == plan.num_routes
