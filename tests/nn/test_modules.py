"""Module system, layers, losses, optimizers."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Dropout,
    Linear,
    Module,
    Parameter,
    SGD,
    Tensor,
    accuracy,
    masked_cross_entropy,
)
from repro.nn import functional as F


class TestModule:
    def test_parameter_registration(self):
        class M(Module):
            def __init__(self):
                super().__init__()
                self.w = Parameter(np.ones(2))
                self.sub = Linear(2, 3)

        m = M()
        names = [n for n, _ in m.named_parameters()]
        assert "w" in names
        assert "sub.weight" in names and "sub.bias" in names

    def test_zero_grad(self):
        lin = Linear(2, 2)
        F.matmul(Tensor(np.ones((1, 2))), lin.weight).sum().backward()
        assert lin.weight.grad is not None
        lin.zero_grad()
        assert lin.weight.grad is None

    def test_train_eval_propagates(self):
        class M(Module):
            def __init__(self):
                super().__init__()
                self.drop = Dropout(0.5)

        m = M()
        m.eval()
        assert not m.drop.training
        m.train()
        assert m.drop.training

    def test_state_dict_round_trip(self):
        a = Linear(3, 2, rng=np.random.default_rng(0))
        b = Linear(3, 2, rng=np.random.default_rng(99))
        b.load_state_dict(a.state_dict())
        assert np.array_equal(a.weight.data, b.weight.data)

    def test_state_dict_mismatch(self):
        a = Linear(3, 2)
        with pytest.raises(KeyError):
            a.load_state_dict({"weight": np.zeros((3, 2))})  # missing bias


class TestLinear:
    def test_forward_shape(self):
        lin = Linear(4, 3)
        out = lin(Tensor(np.ones((5, 4))))
        assert out.shape == (5, 3)

    def test_no_bias(self):
        lin = Linear(4, 3, bias=False)
        assert lin.bias is None
        assert len(lin.parameters()) == 1

    def test_deterministic_init(self):
        a = Linear(4, 3, rng=np.random.default_rng(7))
        b = Linear(4, 3, rng=np.random.default_rng(7))
        assert np.array_equal(a.weight.data, b.weight.data)


class TestLoss:
    def test_perfect_prediction_low_loss(self):
        logits = Tensor(np.eye(3) * 20.0)
        loss = masked_cross_entropy(logits, np.arange(3))
        assert float(loss.data) < 1e-6

    def test_mask_selects_rows(self):
        logits = Tensor(np.array([[10.0, 0.0], [0.0, 10.0], [-10.0, 0.0]]))
        labels = np.array([0, 1, 0])
        full = float(masked_cross_entropy(logits, labels).data)
        masked = float(
            masked_cross_entropy(logits, labels, np.array([True, True, False])).data
        )
        assert masked < full

    def test_empty_mask_raises(self):
        with pytest.raises(ValueError, match="no vertices"):
            masked_cross_entropy(
                Tensor(np.zeros((2, 2))), np.zeros(2, dtype=int), np.zeros(2, bool)
            )

    def test_normalizer_scales(self):
        logits = Tensor(np.random.default_rng(0).standard_normal((4, 3)))
        labels = np.array([0, 1, 2, 0])
        mean = float(masked_cross_entropy(logits, labels).data)
        normed = float(masked_cross_entropy(logits, labels, normalizer=8.0).data)
        assert normed == pytest.approx(mean / 2.0)

    def test_accuracy(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        labels = np.array([0, 1, 1])
        assert accuracy(logits, labels) == pytest.approx(2 / 3)
        assert accuracy(logits, labels, np.array([True, True, False])) == 1.0

    def test_accuracy_empty_mask(self):
        assert accuracy(np.zeros((2, 2)), np.zeros(2, int), np.zeros(2, bool)) == 0.0


class TestOptimizers:
    def _quadratic_step(self, opt_cls, **kw):
        p = Parameter(np.array([5.0]))
        opt = opt_cls([p], lr=0.1, **kw)
        for _ in range(200):
            p.zero_grad()
            (Tensor(np.array([1.0])) * p * p).sum().backward()
            opt.step()
        return abs(float(p.data[0]))

    def test_sgd_converges(self):
        assert self._quadratic_step(SGD) < 1e-3

    def test_sgd_momentum_converges(self):
        assert self._quadratic_step(SGD, momentum=0.9) < 1e-3

    def test_adam_converges(self):
        assert self._quadratic_step(Adam) < 1e-2

    def test_weight_decay_shrinks(self):
        p = Parameter(np.array([1.0]))
        p.grad = np.zeros(1)  # zero loss gradient -> pure decay step
        opt = SGD([p], lr=0.1, weight_decay=0.5)
        opt.step()
        assert float(p.data[0]) == pytest.approx(1.0 - 0.1 * 0.5)

    def test_missing_grad_treated_as_zero(self):
        p = Parameter(np.array([2.0]))
        Adam([p], lr=0.1).step()
        assert float(p.data[0]) == pytest.approx(2.0)

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_sgd_momentum_accumulates_velocity(self):
        """Two steps under a constant gradient g move by lr*g, then by
        lr*(momentum*g + g)."""
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1, momentum=0.5)
        for _ in range(2):
            p.grad = np.array([2.0])
            opt.step()
        assert float(p.data[0]) == pytest.approx(1.0 - 0.2 - 0.1 * (0.5 * 2.0 + 2.0))

    def test_adam_first_step_is_lr_sized(self):
        """Bias correction makes the first Adam step lr * sign(g) for any
        gradient scale."""
        for g in (1e-3, 50.0):
            p = Parameter(np.array([0.0, 0.0]))
            p.grad = np.array([g, -g])
            Adam([p], lr=0.01, eps=0.0).step()
            np.testing.assert_allclose(p.data, [-0.01, 0.01])

    def test_weight_decay_is_an_l2_gradient_term(self):
        p = Parameter(np.array([2.0]))
        p.grad = np.array([1.0])
        SGD([p], lr=0.1, weight_decay=0.25).step()
        assert float(p.data[0]) == pytest.approx(2.0 - 0.1 * (1.0 + 0.25 * 2.0))


class TestDropout:
    def test_eval_mode_is_identity(self):
        drop = Dropout(0.5)
        drop.eval()
        x = Tensor(np.ones((4, 3)))
        assert drop(x) is x

    def test_zero_rate_is_identity(self):
        x = Tensor(np.ones((4, 3)))
        assert Dropout(0.0)(x) is x

    def test_rate_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            Dropout(1.0)(Tensor(np.ones((2, 2))))

    def test_kept_units_are_rescaled(self):
        """Inverted dropout: kept units scale by 1/(1-p), so the mean
        activation is unbiased."""
        out = Dropout(0.25, seed=1)(Tensor(np.ones((200, 50)))).data
        assert set(np.unique(out).tolist()) <= {0.0, 1.0 / 0.75}
        assert float((out == 0).mean()) == pytest.approx(0.25, abs=0.02)
        assert float(out.mean()) == pytest.approx(1.0, abs=0.03)

    def test_seeded_masks_repeat_and_advance(self):
        """The module owns its RNG stream: one seed replays the same masks,
        and consecutive calls draw fresh ones."""
        x = Tensor(np.ones((8, 8)))
        a, b = Dropout(0.5, seed=3), Dropout(0.5, seed=3)
        first, again = a(x).data, b(x).data
        np.testing.assert_array_equal(first, again)
        assert not np.array_equal(first, a(x).data)

    def test_keeps_dtype(self):
        x = Tensor(np.ones((3, 3), dtype=np.float32))
        assert Dropout(0.5)(x).data.dtype == np.float32
