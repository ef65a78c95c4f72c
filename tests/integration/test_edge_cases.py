"""Failure-injection and degenerate-input coverage across the stack."""

import numpy as np
import pytest

from repro.core import DistributedTrainer, Trainer, TrainConfig
from repro.core.algorithms import get_algorithm
from repro.graph.builders import from_edge_list
from repro.graph.datasets import Dataset
from repro.kernels import aggregate
from repro.partition import build_partitions, build_split_trees, libra_partition

CFG = TrainConfig(
    num_layers=2, hidden_features=8, learning_rate=0.01, eval_every=0, seed=0
)


def _dataset_from_graph(g, num_classes=3, dim=6, seed=0):
    rng = np.random.default_rng(seed)
    n = g.num_vertices
    labels = rng.integers(0, num_classes, size=n)
    train = np.zeros(n, dtype=bool)
    train[: max(n // 2, 1)] = True
    val = np.zeros(n, dtype=bool)
    test = ~train
    return Dataset(
        name="synthetic",
        graph=g,
        features=rng.standard_normal((n, dim)).astype(np.float32),
        labels=labels,
        num_classes=num_classes,
        train_mask=train,
        val_mask=val,
        test_mask=test,
    )


class TestDegenerateGraphs:
    def test_aggregate_empty_graph(self):
        g = from_edge_list([], num_vertices=5)
        out = aggregate(g, np.ones((5, 3), dtype=np.float32))
        assert np.all(out == 0)

    def test_aggregate_single_vertex_self_loop(self):
        g = from_edge_list([(0, 0)], num_vertices=1)
        out = aggregate(g, np.array([[2.0]]))
        assert out[0, 0] == 2.0

    def test_train_on_graph_with_isolated_vertices(self):
        # half the vertices have no edges at all
        g = from_edge_list([(0, 1), (1, 2), (2, 0)], num_vertices=8)
        ds = _dataset_from_graph(g)
        res = Trainer(ds, CFG).fit(num_epochs=3)
        assert np.isfinite(res.final_loss)

    def test_distributed_with_isolated_vertices(self):
        g = from_edge_list([(0, 1), (1, 2), (2, 0)], num_vertices=9)
        ds = _dataset_from_graph(g)
        dt = DistributedTrainer(ds, 3, algorithm="cd-0", config=CFG)
        res = dt.fit(num_epochs=3)
        assert np.isfinite(res.final_loss)
        # every train vertex still counted exactly once
        counted = sum(int((s.train_mask & s.owned).sum()) for s in dt.ranks)
        assert counted == int(ds.train_mask.sum())

    def test_more_partitions_than_useful(self):
        """P close to |V|: many partitions get almost nothing."""
        g = from_edge_list([(0, 1), (1, 2), (2, 3), (3, 0)], num_vertices=4)
        ds = _dataset_from_graph(g)
        dt = DistributedTrainer(ds, 4, algorithm="cd-0", config=CFG)
        res = dt.fit(num_epochs=2)
        assert np.isfinite(res.final_loss)

    def test_disconnected_components_partition_cleanly(self):
        # two disjoint triangles -> Libra should produce zero split vertices at P=2
        edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        g = from_edge_list(edges, num_vertices=6)
        parted = build_partitions(g, libra_partition(g, 2, seed=0), 2)
        assert parted.replication_factor == pytest.approx(1.0)
        plan = build_split_trees(parted)
        assert plan.num_routes == 0

    def test_no_split_vertices_still_trains(self):
        edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        g = from_edge_list(edges, num_vertices=6)
        ds = _dataset_from_graph(g)
        for algo in ("cd-0", "cd-2", "0c"):
            dt = DistributedTrainer(ds, 2, algorithm=algo, config=CFG)
            res = dt.fit(num_epochs=3)
            assert np.isfinite(res.final_loss)


class TestDegenerateConfigs:
    def test_single_partition_distributed(self, reddit_mini):
        """P=1 distributed must equal the single-socket trainer."""
        single = Trainer(reddit_mini, CFG).fit(num_epochs=5)
        dist = DistributedTrainer(
            reddit_mini, 1, algorithm="cd-0", config=CFG
        ).fit(num_epochs=5)
        np.testing.assert_allclose(
            dist.loss_curve(), single.loss_curve(), atol=1e-5
        )

    def test_delay_exceeding_epochs(self, reddit_mini):
        """cd-r with r larger than the training run: no exchange ever
        completes, which must degrade gracefully to 0c-like behaviour."""
        cfg = TrainConfig(**{**vars(CFG), "delay": 50})
        dt = DistributedTrainer(reddit_mini, 3, algorithm="cd-50", config=cfg)
        res = dt.fit(num_epochs=5)
        assert np.isfinite(res.final_loss)

    def test_delay_one(self, reddit_mini):
        dt = DistributedTrainer(reddit_mini, 3, algorithm="cd-1", config=CFG)
        res = dt.fit(num_epochs=6)
        assert res.final_loss < res.loss_curve()[0]

    def test_one_layer_distributed(self, reddit_mini):
        cfg = TrainConfig(**{**vars(CFG), "num_layers": 1})
        dt = DistributedTrainer(reddit_mini, 3, algorithm="cd-0", config=cfg)
        res = dt.fit(num_epochs=3)
        assert np.isfinite(res.final_loss)

    def test_algorithm_spec_object(self, reddit_mini):
        spec = get_algorithm("cd-3")
        dt = DistributedTrainer(reddit_mini, 2, algorithm=spec, config=CFG)
        assert dt.spec.delay == 3

    def test_precomputed_partitioning_reused(self, reddit_mini):
        asn = libra_partition(reddit_mini.graph, 3, seed=0)
        parted = build_partitions(reddit_mini.graph, asn, 3)
        dt1 = DistributedTrainer(
            reddit_mini, 3, algorithm="0c", config=CFG, parted=parted
        )
        dt2 = DistributedTrainer(
            reddit_mini, 3, algorithm="0c", config=CFG, parted=parted
        )
        r1 = dt1.fit(num_epochs=3)
        r2 = dt2.fit(num_epochs=3)
        assert r1.loss_curve() == r2.loss_curve()
