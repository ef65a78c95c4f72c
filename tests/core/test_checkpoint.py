"""Checkpoint save/load round-trips and resumption equivalence."""

import numpy as np
import pytest

from repro.core import Trainer, TrainConfig
from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.nn import Adam, GraphSAGE

CFG = TrainConfig(
    num_layers=2, hidden_features=16, learning_rate=0.01, eval_every=0, seed=0
)


def test_model_round_trip(tmp_path):
    a = GraphSAGE(8, 16, 4, seed=1)
    b = GraphSAGE(8, 16, 4, seed=2)
    path = str(tmp_path / "ckpt.npz")
    save_checkpoint(path, a, epoch=7)
    epoch, extra = load_checkpoint(path, b)
    assert epoch == 7
    for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert np.array_equal(pa.data, pb.data), na


def test_extra_arrays(tmp_path):
    model = GraphSAGE(4, 8, 2, seed=0)
    path = str(tmp_path / "c.npz")
    save_checkpoint(path, model, extra={"loss_curve": np.array([1.0, 0.5])})
    _, extra = load_checkpoint(path, GraphSAGE(4, 8, 2, seed=9))
    assert np.array_equal(extra["loss_curve"], [1.0, 0.5])


def test_adam_state_round_trip(tmp_path, reddit_mini):
    t = Trainer(reddit_mini, CFG)
    for e in range(3):
        t.train_epoch(e)
    path = str(tmp_path / "adam.npz")
    save_checkpoint(path, t.model, t.optimizer, epoch=3)

    t2 = Trainer(reddit_mini, CFG)
    epoch, _ = load_checkpoint(path, t2.model, t2.optimizer)
    assert epoch == 3
    assert t2.optimizer._t == t.optimizer._t


def test_resume_equals_uninterrupted(tmp_path, reddit_mini):
    """Training 3+3 epochs with a checkpoint in between must equal
    training 6 straight epochs."""
    straight = Trainer(reddit_mini, CFG)
    losses_straight = [straight.train_epoch(e).loss for e in range(6)]

    first = Trainer(reddit_mini, CFG)
    for e in range(3):
        first.train_epoch(e)
    path = str(tmp_path / "mid.npz")
    save_checkpoint(path, first.model, first.optimizer, epoch=3)

    resumed = Trainer(reddit_mini, CFG)
    start, _ = load_checkpoint(path, resumed.model, resumed.optimizer)
    losses_resumed = [resumed.train_epoch(e).loss for e in range(start, 6)]
    np.testing.assert_allclose(
        losses_resumed, losses_straight[3:], rtol=1e-5, atol=1e-6
    )


def test_adam_moments_round_trip(tmp_path):
    model = GraphSAGE(4, 8, 2, seed=0)
    opt = Adam(model.parameters(), lr=0.1)
    for step in range(2):
        for p in model.parameters():
            p.grad = np.full_like(p.data, step + 1.0)
        opt.step()
    path = str(tmp_path / "adam.npz")
    save_checkpoint(path, model, opt)

    model2 = GraphSAGE(4, 8, 2, seed=5)
    opt2 = Adam(model2.parameters(), lr=0.1)
    load_checkpoint(path, model2, opt2)
    assert opt2._t == opt._t == 2
    for p1, p2 in zip(opt.params, opt2.params):
        np.testing.assert_array_equal(opt._m[id(p1)], opt2._m[id(p2)])
        np.testing.assert_array_equal(opt._v[id(p1)], opt2._v[id(p2)])


@pytest.mark.parametrize("model_name", ["sage", "gcn"])
def test_resume_bitwise_identical(tmp_path, reddit_mini, model_name):
    """N epochs + checkpoint + resume N epochs == 2N straight epochs,
    bit-for-bit: parameters AND Adam moments/step counter."""
    n = 3
    cfg = TrainConfig(**{**vars(CFG), "model": model_name})
    straight = Trainer(reddit_mini, cfg)
    straight.fit(num_epochs=2 * n)

    first = Trainer(reddit_mini, cfg)
    first.fit(num_epochs=n)
    path = str(tmp_path / f"resume_{model_name}.npz")
    save_checkpoint(path, first.model, first.optimizer, epoch=n)

    resumed = Trainer(reddit_mini, cfg)
    start, _ = load_checkpoint(path, resumed.model, resumed.optimizer)
    assert start == n
    resumed.fit(num_epochs=2 * n, start_epoch=start)

    for (name, p_s), (_, p_r) in zip(
        straight.model.named_parameters(), resumed.model.named_parameters()
    ):
        assert np.array_equal(p_s.data, p_r.data), f"params diverge at {name}"
    assert straight.optimizer._t == resumed.optimizer._t
    for p_s, p_r in zip(straight.optimizer.params, resumed.optimizer.params):
        assert np.array_equal(
            straight.optimizer._m[id(p_s)], resumed.optimizer._m[id(p_r)]
        )
        assert np.array_equal(
            straight.optimizer._v[id(p_s)], resumed.optimizer._v[id(p_r)]
        )


def test_peek_checkpoint_and_meta_round_trip(tmp_path):
    from repro.core.checkpoint import config_from_meta, peek_checkpoint, training_meta

    cfg = TrainConfig(model="gcn", num_layers=2, hidden_features=16)
    model = GraphSAGE(4, 8, 2, seed=0)
    path = str(tmp_path / "meta.npz")
    save_checkpoint(path, model, epoch=11, extra=training_meta(cfg))
    epoch, extra = peek_checkpoint(path)
    assert epoch == 11
    rebuilt = config_from_meta(extra, TrainConfig())
    assert rebuilt.model == "gcn"
    assert rebuilt.num_layers == 2
    assert rebuilt.hidden_features == 16
    assert isinstance(rebuilt.num_layers, int)


def test_config_from_meta_tolerates_missing_keys():
    from repro.core.checkpoint import config_from_meta

    base = TrainConfig(model="sage", num_layers=3)
    rebuilt = config_from_meta({}, base)
    assert rebuilt.model == "sage" and rebuilt.num_layers == 3


def test_version_check(tmp_path):
    model = GraphSAGE(4, 8, 2, seed=0)
    path = str(tmp_path / "v.npz")
    save_checkpoint(path, model)
    # corrupt the version
    data = dict(np.load(path))
    data["format_version"] = np.asarray(99)
    np.savez_compressed(path, **data)
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(path, model)
