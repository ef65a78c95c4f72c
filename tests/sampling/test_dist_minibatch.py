"""Distributed mini-batch (Dist-DGL stand-in)."""

import dataclasses

import numpy as np
import pytest

from repro.core import TrainConfig
from repro.core.sync import assert_replicas_in_sync
from repro.sampling.dist_minibatch import DistMiniBatchTrainer

CFG = TrainConfig(
    num_layers=2, hidden_features=16, learning_rate=0.01, eval_every=0, seed=0
)


@pytest.fixture
def trainer(reddit_mini):
    return DistMiniBatchTrainer(
        reddit_mini, num_ranks=3, fanouts=(5, 5), batch_size=48, config=CFG
    )


def test_shards_cover_train_set(reddit_mini, trainer):
    total = sum(s.size for s in trainer.shards)
    assert total == int(reddit_mini.train_mask.sum())
    combined = np.sort(np.concatenate(trainer.shards))
    assert np.array_equal(combined, np.flatnonzero(reddit_mini.train_mask))


def test_loss_decreases(trainer):
    res = trainer.fit(num_epochs=4)
    assert res.epochs[-1].loss < res.epochs[0].loss


def test_replicas_stay_synced(trainer):
    trainer.fit(num_epochs=2)
    assert_replicas_in_sync(trainer.models)


def test_remote_feature_fetches_counted(trainer):
    stats = trainer.train_epoch(0)
    # hash ownership means ~2/3 of frontier features are remote at 3 ranks
    assert stats.comm_bytes > 0


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_feature_fetch_owner_accounting(reddit_mini, dtype):
    """A remote row costs its width times the store's item size."""
    ds = dataclasses.replace(reddit_mini, features=reddit_mini.features.astype(dtype))
    trainer = DistMiniBatchTrainer(ds, num_ranks=3, fanouts=(5, 5), config=CFG)
    before = trainer.world.counters.snapshot()
    verts = np.arange(30)
    assert trainer._fetch_features(0, verts).dtype == dtype
    delta = trainer.world.counters.delta_since(before)
    remote = int((trainer.owner[verts] != 0).sum())
    row_bytes = ds.feature_dim * np.dtype(dtype).itemsize
    assert sum(delta.bytes_received) == remote * row_bytes


def test_learns(reddit_mini, trainer):
    res = trainer.fit(num_epochs=8)
    assert res.final_test_acc > 2.0 / reddit_mini.num_classes


def test_fanout_mismatch(reddit_mini):
    with pytest.raises(ValueError):
        DistMiniBatchTrainer(reddit_mini, 2, fanouts=(5,), config=CFG)


def test_rank_with_an_empty_shard(reddit_mini):
    """More ranks than training vertices: the rank with no seeds zeroes its
    gradients into the mean and steps with the others."""
    mask = np.zeros_like(reddit_mini.train_mask)
    mask[np.flatnonzero(reddit_mini.train_mask)[:2]] = True
    ds = dataclasses.replace(reddit_mini, train_mask=mask)
    trainer = DistMiniBatchTrainer(ds, 3, fanouts=(5, 5), batch_size=48, config=CFG)
    assert sorted(s.size for s in trainer.shards) == [0, 1, 1]
    res = trainer.fit(num_epochs=2)
    assert all(np.isfinite(e.loss) for e in res.epochs)
    assert_replicas_in_sync(trainer.models)
