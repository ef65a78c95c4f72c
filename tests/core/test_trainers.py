"""Single-socket and distributed trainers."""

import numpy as np
import pytest

from repro.core import DistributedTrainer, Trainer, TrainConfig
from repro.core.sync import allreduce_gradients, assert_replicas_in_sync
from repro.comm import World
from repro.core.models import WEIGHT_DECAY
from repro.nn import Adam, GraphSAGE
from repro.sampling import DistMiniBatchTrainer, MiniBatchTrainer


CFG = TrainConfig(
    num_layers=2, hidden_features=16, learning_rate=0.01, eval_every=0, seed=0
)


class TestConfig:
    def test_for_dataset_reddit(self):
        cfg = TrainConfig().for_dataset("reddit")
        assert cfg.num_layers == 2 and cfg.hidden_features == 16

    def test_for_dataset_other(self):
        cfg = TrainConfig().for_dataset("ogbn-products")
        assert cfg.num_layers == 3 and cfg.hidden_features == 256


class TestSingleSocket:
    def test_loss_decreases(self, reddit_mini):
        t = Trainer(reddit_mini, CFG)
        res = t.fit(num_epochs=20)
        curve = res.loss_curve()
        assert curve[-1] < curve[0] * 0.8

    def test_learns_better_than_chance(self, reddit_mini):
        t = Trainer(reddit_mini, CFG)
        res = t.fit(num_epochs=40)
        assert res.final_test_acc > 2.0 / reddit_mini.num_classes

    def test_epoch_stats_recorded(self, reddit_mini):
        res = Trainer(reddit_mini, CFG).fit(num_epochs=3)
        assert len(res.epochs) == 3
        for e in res.epochs:
            assert e.total_time_s > 0
            assert 0 <= e.ap_time_s <= e.total_time_s + 1e-6

    def test_eval_every(self, reddit_mini):
        cfg = TrainConfig(**{**vars(CFG), "eval_every": 2})
        res = Trainer(reddit_mini, cfg).fit(num_epochs=5)
        assert res.epochs[0].test_acc is not None
        assert res.epochs[1].test_acc is None
        assert res.epochs[2].test_acc is not None

    def test_num_threads_training_is_bit_identical(self, reddit_mini):
        """Every AP riding the parallel engine changes nothing numeric:
        losses and final parameters match the single-threaded run bit
        for bit."""
        base = Trainer(reddit_mini, CFG).fit(num_epochs=4)
        cfg = TrainConfig(**{**vars(CFG), "num_threads": 2})
        threaded_trainer = Trainer(reddit_mini, cfg)
        assert threaded_trainer.model.layers[0].num_threads == 2
        threaded = threaded_trainer.fit(num_epochs=4)
        assert base.loss_curve() == threaded.loss_curve()
        ref_params = Trainer(reddit_mini, CFG)
        ref_params.fit(num_epochs=4)
        for (name, p), (_, q) in zip(
            ref_params.model.named_parameters(),
            threaded_trainer.model.named_parameters(),
        ):
            assert np.array_equal(p.data, q.data), name

    def test_deterministic(self, reddit_mini):
        r1 = Trainer(reddit_mini, CFG).fit(num_epochs=5)
        r2 = Trainer(reddit_mini, CFG).fit(num_epochs=5)
        assert r1.loss_curve() == r2.loss_curve()


class TestDistributed:
    @pytest.mark.parametrize("algo", ["0c", "cd-0", "cd-2"])
    def test_runs_and_learns(self, reddit_mini, algo):
        dt = DistributedTrainer(reddit_mini, 3, algorithm=algo, config=CFG)
        res = dt.fit(num_epochs=15)
        assert res.final_loss < res.loss_curve()[0]
        assert res.algorithm in (algo, "cd-2")

    def test_zero_c_no_training_comm(self, reddit_mini):
        dt = DistributedTrainer(reddit_mini, 3, algorithm="0c", config=CFG)
        dt.train_epoch(0)
        # only AllReduce traffic (parameter sync), no aggregate messages
        assert dt.world.counters.collective_calls.get("all_reduce", 0) > 0
        assert dt.world.counters.messages_sent == [0, 0, 0]

    def test_cd0_communicates_every_epoch(self, reddit_mini):
        dt = DistributedTrainer(reddit_mini, 3, algorithm="cd-0", config=CFG)
        before = dt.world.counters.snapshot()
        dt.train_epoch(0)
        delta = dt.world.counters.delta_since(before)
        assert sum(delta.messages_sent) > 0

    def test_cdr_sends_less_per_epoch_than_cd0(self, reddit_mini):
        cd0 = DistributedTrainer(reddit_mini, 3, algorithm="cd-0", config=CFG)
        cdr = DistributedTrainer(reddit_mini, 3, algorithm="cd-5", config=CFG)
        s0 = cd0.train_epoch(0).comm_bytes
        sr = cdr.train_epoch(0).comm_bytes
        assert sr < s0

    def test_replicas_stay_in_sync(self, reddit_mini):
        dt = DistributedTrainer(reddit_mini, 3, algorithm="cd-5", config=CFG)
        dt.fit(num_epochs=4)
        assert_replicas_in_sync([s.model for s in dt.ranks])

    def test_owned_loss_covers_all_train_vertices(self, reddit_mini):
        dt = DistributedTrainer(reddit_mini, 4, algorithm="0c", config=CFG)
        counted = sum(
            int((s.train_mask & s.owned).sum()) for s in dt.ranks
        )
        assert counted == int(reddit_mini.train_mask.sum())

    def test_partitioner_choices(self, reddit_mini):
        for name in ("libra", "random", "hash"):
            dt = DistributedTrainer(
                reddit_mini, 2, algorithm="0c", config=CFG, partitioner=name
            )
            dt.train_epoch(0)

    def test_unknown_partitioner(self, reddit_mini):
        with pytest.raises(ValueError):
            DistributedTrainer(
                reddit_mini, 2, algorithm="0c", config=CFG, partitioner="metis"
            )

    def test_result_metadata(self, reddit_mini):
        dt = DistributedTrainer(reddit_mini, 3, algorithm="cd-0", config=CFG)
        res = dt.fit(num_epochs=2)
        assert res.num_partitions == 3
        assert res.replication_factor > 1.0
        assert res.total_comm_bytes > 0


#: name -> (constructor, its first optimizer, its first model)
TRAINERS = {
    "Trainer": (
        lambda ds, cfg: Trainer(ds, cfg),
        lambda t: (t.optimizer, t.model),
    ),
    "DistributedTrainer": (
        lambda ds, cfg: DistributedTrainer(ds, 2, config=cfg),
        lambda t: (t.ranks[0].optimizer, t.ranks[0].model),
    ),
    "MiniBatchTrainer": (
        lambda ds, cfg: MiniBatchTrainer(ds, (5, 5), config=cfg),
        lambda t: (t.optimizer, t.model),
    ),
    "DistMiniBatchTrainer": (
        lambda ds, cfg: DistMiniBatchTrainer(ds, 2, (5, 5), config=cfg),
        lambda t: (t.optimizers[0], t.models[0]),
    ),
}


class TestSharedPlumbing:
    """The factories every trainer builds through."""

    @pytest.mark.parametrize("name", sorted(TRAINERS))
    def test_optimizer_is_adam_with_the_paper_decay(self, reddit_mini, name):
        cfg = TrainConfig(num_layers=2, hidden_features=16, learning_rate=0.05)
        build, first = TRAINERS[name]
        optimizer, model = first(build(reddit_mini, cfg))
        assert isinstance(optimizer, Adam) and optimizer.lr == 0.05
        assert optimizer.weight_decay == WEIGHT_DECAY == 5e-4
        assert list(map(id, optimizer.params)) == list(map(id, model.parameters()))

    @pytest.mark.parametrize("name", ["MiniBatchTrainer", "DistMiniBatchTrainer"])
    def test_minibatch_models_come_from_the_config(self, reddit_mini, name):
        cfg = TrainConfig(num_layers=2, hidden_features=16, num_threads=2)
        build, first = TRAINERS[name]
        _, model = first(build(reddit_mini, cfg))
        assert all(layer.num_threads == 2 for layer in model.layers)
        gcn = TrainConfig(num_layers=2, hidden_features=16, model="gcn")
        with pytest.raises(ValueError, match="supports model 'sage'"):
            build(reddit_mini, gcn)


class TestSharedFitLoop:
    """Every trainer's ``fit`` is ``core.trainer.fit_epochs``."""

    @pytest.mark.parametrize("name", sorted(TRAINERS))
    def test_eval_every_and_best_val(self, reddit_mini, name):
        cfg = TrainConfig(**{**vars(CFG), "eval_every": 2})
        trainer = TRAINERS[name][0](reddit_mini, cfg)
        res = trainer.fit(num_epochs=4)
        evaluated = [e for e in res.epochs if e.val_acc is not None]
        assert [e.epoch for e in evaluated] == [0, 2, 3]
        assert all(None not in (e.train_acc, e.test_acc) for e in evaluated)
        final = trainer.evaluate()
        assert res.final_test_acc == final["test"]
        assert res.best_val_acc == max([e.val_acc for e in evaluated] + [final["val"]])


def _allreduce(world, models):
    """Every rank's side of the gradient AllReduce, stepped by the sim driver."""
    world.run_programs(
        [
            allreduce_gradients(comm, model)
            for comm, model in zip(world.communicators(), models)
        ]
    )


class TestGradientSync:
    def test_allreduce_sums_grads(self):
        world = World(2)
        models = [GraphSAGE(4, 4, 2, num_layers=1, seed=0) for _ in range(2)]
        for i, m in enumerate(models):
            for p in m.parameters():
                p.grad = np.full_like(p.data, float(i + 1))
        _allreduce(world, models)
        for m in models:
            for p in m.parameters():
                assert np.all(p.grad == 3.0)

    def test_none_grads_are_zero(self):
        world = World(2)
        models = [GraphSAGE(4, 4, 2, num_layers=1, seed=0) for _ in range(2)]
        for p in models[0].parameters():
            p.grad = np.ones_like(p.data)
        _allreduce(world, models)
        for p in models[1].parameters():
            assert np.all(p.grad == 1.0)

    def test_replica_count_and_shape_mismatch_rejected(self):
        world = World(2)
        one = [GraphSAGE(4, 4, 2, num_layers=1, seed=0)]
        with pytest.raises(ValueError, match="one rank program per rank"):
            _allreduce(world, one)
        uneven = [  # same leading parameter shapes, different counts
            GraphSAGE(4, 2, 2, num_layers=1, seed=0),
            GraphSAGE(4, 2, 2, num_layers=2, seed=0),
        ]
        with pytest.raises(RuntimeError, match="disagree"):
            _allreduce(world, uneven)

    def test_replica_divergence_detected(self):
        a = GraphSAGE(4, 4, 2, seed=0)
        b = GraphSAGE(4, 4, 2, seed=1)
        with pytest.raises(AssertionError, match="divergence"):
            assert_replicas_in_sync([a, b])

    def test_one_ulp_divergence_detected(self):
        """Replicas are identical by construction: one float32 ulp on one
        element (relative ~1e-7, inside numpy's default rtol) diverges."""
        a, b = GraphSAGE(4, 4, 2, seed=0), GraphSAGE(4, 4, 2, seed=0)
        assert_replicas_in_sync([a, b])
        w = next(iter(b.parameters())).data
        old = w.flat[0]
        w.flat[0] = np.nextafter(old, np.float32(np.inf))
        assert 0 < abs(w.flat[0] - old) <= 2e-7 * abs(old)
        with pytest.raises(AssertionError, match="divergence"):
            assert_replicas_in_sync([a, b])
