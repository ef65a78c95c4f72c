"""Low-precision payload codec and its DRPA integration."""

import numpy as np
import pytest

from repro.comm.compression import PayloadCodec
from repro.core import DistributedTrainer, TrainConfig


def roundtrip_error(codec, x):
    """Max relative error of one encode/decode cycle."""
    back = codec.decode(codec.encode(x))
    return float(np.max(np.abs(back - x) / np.maximum(np.abs(x), 1e-12)))


class TestCodec:
    def test_none_is_identity(self):
        c = PayloadCodec("none")
        x = np.random.default_rng(0).standard_normal((4, 3)).astype(np.float32)
        assert np.array_equal(c.decode(c.encode(x)), x)

    @pytest.mark.parametrize("mode", ["fp16", "bf16"])
    def test_halves_wire_size(self, mode):
        c = PayloadCodec(mode)
        x = np.ones((8, 4), dtype=np.float32)
        assert c.encode(x).nbytes == x.nbytes // 2

    def test_fp16_roundtrip_accuracy(self):
        c = PayloadCodec("fp16")
        x = np.random.default_rng(1).standard_normal((64, 8)).astype(np.float32)
        assert roundtrip_error(c, x) < 1e-2

    def test_bf16_roundtrip_accuracy(self):
        c = PayloadCodec("bf16")
        x = np.random.default_rng(2).standard_normal((64, 8)).astype(np.float32)
        assert roundtrip_error(c, x) < 2e-2

    def test_bf16_preserves_float32_range(self):
        c = PayloadCodec("bf16")
        x = np.array([1e30, -1e-30, 1e38], dtype=np.float32)
        back = c.decode(c.encode(x))
        assert np.all(np.isfinite(back))
        assert np.allclose(back, x, rtol=0.01)

    def test_fp16_range_clips(self):
        # fp16 overflows above ~65504 — documents the tradeoff vs bf16
        c = PayloadCodec("fp16")
        back = c.decode(c.encode(np.array([1e6], dtype=np.float32)))
        assert np.isinf(back[0])

    def test_exact_values_survive(self):
        for mode in ("fp16", "bf16"):
            c = PayloadCodec(mode)
            x = np.array([0.0, 1.0, -2.0, 0.5], dtype=np.float32)
            assert np.array_equal(c.decode(c.encode(x)), x)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            PayloadCodec("int8")


class TestCompressedTraining:
    CFG = dict(num_layers=2, hidden_features=16, learning_rate=0.01,
               eval_every=0, seed=0)

    def test_comm_volume_halved(self, reddit_mini):
        plain = DistributedTrainer(
            reddit_mini, 3, algorithm="cd-0",
            config=TrainConfig(**self.CFG),
        )
        comp = DistributedTrainer(
            reddit_mini, 3, algorithm="cd-0",
            config=TrainConfig(**self.CFG, compression="bf16"),
        )
        b_plain = plain.train_epoch(0).comm_bytes
        b_comp = comp.train_epoch(0).comm_bytes
        # aggregate payloads halve; gradient sync and AllReduce stay fp32
        assert b_comp < b_plain

    @pytest.mark.parametrize("mode", ["fp16", "bf16"])
    def test_training_converges_compressed(self, reddit_mini, mode):
        cfg = TrainConfig(**self.CFG, compression=mode)
        res = DistributedTrainer(
            reddit_mini, 3, algorithm="cd-5", config=cfg
        ).fit(num_epochs=20)
        assert res.final_loss < res.loss_curve()[0]

    def test_compressed_cd0_close_to_exact(self, reddit_mini):
        exact = DistributedTrainer(
            reddit_mini, 3, algorithm="cd-0", config=TrainConfig(**self.CFG)
        ).fit(num_epochs=10)
        comp = DistributedTrainer(
            reddit_mini, 3, algorithm="cd-0",
            config=TrainConfig(**self.CFG, compression="bf16"),
        ).fit(num_epochs=10)
        np.testing.assert_allclose(
            comp.loss_curve(), exact.loss_curve(), rtol=0.05, atol=0.02
        )
