"""DRPA exchanger: cd-0 exactness, cd-r staleness, binning."""

import numpy as np
import pytest

from repro.comm import World
from repro.core.drpa import BinRouting, DRPAExchanger, owned_mask, route_bins
from repro.kernels import aggregate
from repro.partition import (
    build_partitions,
    build_split_trees,
    hash_edge_partition,
    libra_partition,
    random_edge_partition,
)


@pytest.fixture
def setup(small_rmat):
    P = 3
    asn = libra_partition(small_rmat, P, seed=0)
    parted = build_partitions(small_rmat, asn, P)
    plan = build_split_trees(parted, seed=0, build_tree_objects=False)
    return small_rmat, parted, plan, P


def _exchangers(world, plan, num_bins=1, **kwargs):
    """One per-rank exchanger per communicator, sharing the routing bins."""
    bins = route_bins(plan, num_bins)
    return [DRPAExchanger(comm, bins, **kwargs) for comm in world.communicators()]


def _synchronous_round(world, plan, vals, layer=0, epoch=0, **kwargs):
    """Every rank's side of one synchronous round, stepped by the sim driver."""
    world.run_programs(
        [
            ex.synchronous_round(vals[ex.comm.rank], layer, epoch)
            for ex in _exchangers(world, plan, **kwargs)
        ]
    )


def _local_partials(graph, parted, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((graph.num_vertices, dim))
    full = aggregate(graph, h)
    vals = [
        aggregate(p.graph, h[p.global_ids])
        for p in parted.parts
    ]
    return h, full, vals


class TestSynchronousRound:
    def test_cd0_recovers_full_aggregate(self, setup):
        graph, parted, plan, P = setup
        _, full, vals = _local_partials(graph, parted)
        _synchronous_round(World(P), plan, vals, delay=0)
        for p in parted.parts:
            np.testing.assert_allclose(
                vals[p.part_id], full[p.global_ids], atol=1e-9
            )

    def test_clones_identical_after_sync(self, setup):
        graph, parted, plan, P = setup
        _, _, vals = _local_partials(graph, parted)
        _synchronous_round(World(P), plan, vals)
        for gv in parted.split_vertices[:15]:
            rows = [vals[p][l] for p, l in parted.clones_of(int(gv))]
            for r in rows[1:]:
                np.testing.assert_allclose(r, rows[0], atol=1e-12)

    def test_requires_delay_zero(self, setup):
        _, parted, plan, P = setup
        with pytest.raises(RuntimeError, match="delay=0"):
            _synchronous_round(
                World(P), plan, [np.zeros((1, 1))] * P, num_bins=2, delay=2
            )

    def test_delayed_round_requires_delay(self, setup):
        _, parted, plan, P = setup
        (ex, *_) = _exchangers(World(P), plan, delay=0)
        with pytest.raises(RuntimeError, match="delay >= 1"):
            ex.delayed_round(np.zeros((1, 1)), 0, 0)

    def test_multiple_layers_independent(self, setup):
        graph, parted, plan, P = setup
        _, full, vals0 = _local_partials(graph, parted, seed=1)
        _, full2, vals1 = _local_partials(graph, parted, seed=2)
        exs = _exchangers(World(P), plan)
        # interleave sends of two layers; tags keep them apart
        for r, ex in enumerate(exs):
            ex.send_up(vals0[r], layer=0, epoch=0)
            ex.send_up(vals1[r], layer=1, epoch=0)
        for r, ex in enumerate(exs):
            ex.reduce_up(vals0[r], layer=0)
            ex.reduce_up(vals1[r], layer=1)
        for r, ex in enumerate(exs):
            ex.send_down(vals0[r], layer=0, epoch=0)
            ex.send_down(vals1[r], layer=1, epoch=0)
        for r, ex in enumerate(exs):
            ex.apply_down(vals0[r], layer=0)
            ex.apply_down(vals1[r], layer=1)
        for p in parted.parts:
            np.testing.assert_allclose(vals0[p.part_id], full[p.global_ids], atol=1e-9)
            np.testing.assert_allclose(vals1[p.part_id], full2[p.global_ids], atol=1e-9)


class TestDelayedRound:
    def test_no_delivery_before_r(self, setup):
        graph, parted, plan, P = setup
        world = World(P)
        r = 3
        exs = _exchangers(world, plan, num_bins=r, delay=r)
        _, _, vals = _local_partials(graph, parted)
        before = [v.copy() for v in vals]
        for epoch in range(r):
            for rank, ex in enumerate(exs):
                ex.delayed_round(vals[rank], layer=0, epoch=epoch)
            world.advance_epoch()
            if epoch < r - 1:
                for v, b in zip(vals, before):
                    np.testing.assert_array_equal(v, b)

    def test_full_sync_after_warmup_with_stationary_values(self, setup):
        """If partials never change, cd-r converges to the cd-0 answer
        after 2r epochs (all bins complete a round trip)."""
        graph, parted, plan, P = setup
        _, full, vals = _local_partials(graph, parted)
        pristine = [v.copy() for v in vals]
        world = World(P)
        r = 2
        exs = _exchangers(world, plan, num_bins=r, delay=r)
        for epoch in range(3 * r + 1):
            # re-send pristine partials every epoch (stationary input)
            sendable = [p.copy() for p in pristine]
            for rank, ex in enumerate(exs):
                ex.send_up(sendable[rank], layer=0, epoch=epoch)
            handled = [
                ex.reduce_up(sendable[rank], layer=0) for rank, ex in enumerate(exs)
            ]
            for rank, ex in enumerate(exs):
                if handled[rank]:
                    ex.send_down(sendable[rank], layer=0, epoch=epoch)
            for rank, ex in enumerate(exs):
                ex.apply_down(vals[rank], layer=0)
            world.advance_epoch()
        # leaf clones hold the root-completed rows (sum of all partials);
        # roots in this formulation kept their staging buffers separate.
        leaf_checked = 0
        for i in range(min(plan.num_routes, 60)):
            p = int(plan.leaf_part[i])
            l = int(plan.leaf_local[i])
            gv = int(parted.parts[p].global_ids[l])
            np.testing.assert_allclose(vals[p][l], full[gv], atol=1e-9)
            leaf_checked += 1
        assert leaf_checked > 0

    def test_bin_rotation_covers_all_bins(self, setup):
        _, parted, plan, P = setup
        (ex, *_) = _exchangers(World(P), plan, num_bins=4, delay=4)
        assert [ex.bin_for_epoch(e) for e in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_invalid_params(self, setup):
        _, parted, plan, P = setup
        comm = World(P).communicator(0)
        with pytest.raises(ValueError):
            DRPAExchanger(comm, route_bins(plan), delay=-1)
        with pytest.raises(ValueError):
            DRPAExchanger(comm, [])
        with pytest.raises(ValueError):
            route_bins(plan, 0)


class TestOwnership:
    def test_each_vertex_owned_exactly_once(self, setup):
        graph, parted, plan, P = setup
        owner_count = np.zeros(graph.num_vertices, dtype=int)
        for r in range(P):
            mask = owned_mask(parted, plan, r)
            owner_count[parted.parts[r].global_ids[mask]] += 1
        present = parted.membership.any(axis=1)
        assert np.all(owner_count[present] == 1)

    def test_owner_is_root(self, setup):
        _, parted, plan, P = setup
        masks = [owned_mask(parted, plan, r) for r in range(P)]
        for i in range(min(plan.num_routes, 50)):
            # leaves are never owners
            assert not masks[plan.leaf_part[i]][plan.leaf_local[i]]
            assert masks[plan.root_part[i]][plan.root_local[i]]


class TestBinRouting:
    def test_buckets_cover_routes(self, setup):
        _, parted, plan, P = setup
        routing = BinRouting.from_plan(plan)
        total = sum(v[0].size for v in routing.buckets.values())
        assert total == plan.num_routes

    def test_bucket_alignment(self, setup):
        _, parted, plan, P = setup
        routing = BinRouting.from_plan(plan)
        for (p, q), (leaf_rows, root_rows) in routing.buckets.items():
            assert leaf_rows.size == root_rows.size
            # rows translate to the same global vertex on both sides
            gl = parted.parts[p].global_ids[leaf_rows]
            gr = parted.parts[q].global_ids[root_rows]
            assert np.array_equal(gl, gr)

    @pytest.mark.parametrize("P", [2, 4, 8])
    @pytest.mark.parametrize(
        "partition",
        [
            lambda g, P: libra_partition(g, P, seed=0),
            lambda g, P: random_edge_partition(g, P, seed=0),
            hash_edge_partition,
        ],
        ids=["libra", "random", "hash"],
    )
    def test_bucket_rows_are_unique(self, reddit_mini, partition, P):
        """``reduce_up`` adds a bucket's payload as ``values[rows] +=``,
        which equals the unbuffered ``np.add.at`` only because no row
        repeats in a bucket: a vertex has at most one clone per partition."""
        parted = build_partitions(reddit_mini.graph, partition(reddit_mini.graph, P), P)
        plan = build_split_trees(parted, seed=0, build_tree_objects=False)
        assert plan.num_routes > 0
        for num_bins in (1, 5):
            for routing in route_bins(plan, num_bins):
                for leaf_rows, root_rows in routing.buckets.values():
                    assert np.unique(leaf_rows).size == leaf_rows.size
                    assert np.unique(root_rows).size == root_rows.size

    def test_empty_plan(self):
        from repro.partition.tree import TreeExchangePlan

        empty = np.zeros(0, dtype=np.int64)
        plan = TreeExchangePlan(
            leaf_part=empty, leaf_local=empty,
            root_part=empty, root_local=empty, tree_index=empty, num_trees=0,
        )
        assert BinRouting.from_plan(plan).buckets == {}
