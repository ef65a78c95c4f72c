"""Mini-batch trainer: learning, gradient flow, work accounting."""

import numpy as np
import pytest

from repro.core import TrainConfig, Trainer
from repro.sampling import MiniBatchTrainer
from repro.sampling.minibatch_trainer import epoch_seeds

CFG = TrainConfig(
    num_layers=2, hidden_features=16, learning_rate=0.01, eval_every=0, seed=0
)


@pytest.fixture
def trainer(reddit_mini):
    return MiniBatchTrainer(reddit_mini, fanouts=(6, 6), batch_size=64, config=CFG)


class TestTraining:
    def test_loss_decreases(self, trainer):
        res = trainer.fit(num_epochs=5)
        assert res.epochs[-1].loss < res.epochs[0].loss

    def test_learns(self, reddit_mini, trainer):
        res = trainer.fit(num_epochs=10)
        assert res.final_test_acc > 2.0 / reddit_mini.num_classes

    def test_work_accumulates(self, trainer):
        trainer.fit(num_epochs=1)
        assert trainer.total_work_ops > 0

    def test_gradients_flow_to_all_layers(self, trainer, reddit_mini):
        seeds = np.flatnonzero(reddit_mini.train_mask)[:32]
        assert np.isfinite(trainer.compute_gradients(seeds))
        for name, p in trainer.model.named_parameters():
            assert p.grad is not None, name
            assert np.any(p.grad != 0), name

    def test_batch_forward_shape(self, trainer, reddit_mini):
        seeds = np.arange(16)
        batch = trainer.sampler.sample(seeds)
        logits = trainer.forward_batch(batch)
        assert logits.shape == (batch.seeds.size, reddit_mini.num_classes)

    def test_fanout_layer_mismatch(self, reddit_mini):
        with pytest.raises(ValueError, match="fanout"):
            MiniBatchTrainer(reddit_mini, fanouts=(5,), config=CFG)

    def test_comparable_accuracy_to_fullbatch(self, reddit_mini):
        """Sampled training approaches the full-batch result (the paper's
        accuracy-vs-work tradeoff of Tables 7-9)."""
        full = Trainer(reddit_mini, CFG).fit(num_epochs=12)
        mini = MiniBatchTrainer(
            reddit_mini, fanouts=(8, 8), batch_size=64, config=CFG
        ).fit(num_epochs=12)
        assert mini.final_test_acc > full.final_test_acc - 0.25

    def test_minibatch_does_less_work_per_epoch(self, reddit_mini, trainer):
        """Table 7/8 contract, measured: sampled work per epoch is far
        below full-batch aggregation work."""
        trainer.fit(num_epochs=1)
        sampled_ops = trainer.total_work_ops
        dims = [reddit_mini.feature_dim, CFG.hidden_features]
        full_ops = sum(reddit_mini.num_edges * d for d in dims)
        # sampled training touches a fraction of the edges each epoch
        assert sampled_ops < full_ops


class TestEpochSeeds:
    """The one seed producer both sampled trainers draw their batches from."""

    def test_one_shard_is_the_permutation_cut_into_batches(self):
        train = np.arange(10, 110)
        steps = list(epoch_seeds(np.random.default_rng(3), [train], 32))
        order = np.random.default_rng(3).permutation(train)
        assert [len(step) for step in steps] == [1, 1, 1, 1]
        assert [seeds.size for (seeds,) in steps] == [32, 32, 32, 4]
        np.testing.assert_array_equal(np.concatenate([s for (s,) in steps]), order)

    def test_shards_step_together_until_the_longest_runs_out(self):
        shards = [np.arange(50), np.arange(50, 60), np.arange(60, 60)]
        steps = list(epoch_seeds(np.random.default_rng(0), shards, 16))
        assert len(steps) == 4  # ceil(50 / 16): the max over shards
        assert [[s.size for s in step] for step in steps] == [
            [16, 10, 0], [16, 0, 0], [16, 0, 0], [2, 0, 0],
        ]
        for r, shard in enumerate(shards):  # every shard partitioned
            cut = np.concatenate([step[r] for step in steps])
            np.testing.assert_array_equal(np.sort(cut), shard)

    def test_draws_one_permutation_per_shard_in_shard_order(self):
        shards = [np.arange(50), np.arange(10), np.arange(0)]
        a, b = np.random.default_rng(5), np.random.default_rng(5)
        steps = list(epoch_seeds(a, shards, 16))
        expected = [b.permutation(s) for s in shards]
        assert a.bit_generator.state == b.bit_generator.state
        for r, order in enumerate(expected):
            np.testing.assert_array_equal(
                np.concatenate([step[r] for step in steps]), order
            )
