"""Module system, layers, losses, the optimizer."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Linear,
    Module,
    Parameter,
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
                self.sub = Linear(2, 2)

        m = M()
        m.eval()
        assert not m.sub.training
        m.train()
        assert m.sub.training

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
    def _quadratic_step(self, **kw):
        p = Parameter(np.array([5.0]))
        opt = Adam([p], lr=0.1, **kw)
        for _ in range(200):
            p.zero_grad()
            (Tensor(np.array([1.0])) * p * p).sum().backward()
            opt.step()
        return abs(float(p.data[0]))

    def test_adam_converges(self):
        assert self._quadratic_step() < 1e-2

    def test_weight_decay_shrinks(self):
        """A zero loss gradient leaves only the decay term, which pulls the
        weight toward 0 by one (bias-corrected) lr-sized step."""
        p = Parameter(np.array([1.0, -1.0]))
        p.grad = np.zeros(2)
        Adam([p], lr=0.1, eps=0.0, weight_decay=0.5).step()
        np.testing.assert_allclose(p.data, [0.9, -0.9])

    def test_missing_grad_treated_as_zero(self):
        p = Parameter(np.array([2.0]))
        Adam([p], lr=0.1).step()
        assert float(p.data[0]) == pytest.approx(2.0)

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_adam_first_step_is_lr_sized(self):
        """Bias correction makes the first Adam step lr * sign(g) for any
        gradient scale."""
        for g in (1e-3, 50.0):
            p = Parameter(np.array([0.0, 0.0]))
            p.grad = np.array([g, -g])
            Adam([p], lr=0.01, eps=0.0).step()
            np.testing.assert_allclose(p.data, [-0.01, 0.01])

    def test_weight_decay_is_an_l2_gradient_term(self):
        """Decay ``wd`` on gradient ``g`` steps exactly like no decay on
        ``g + wd * p``, step after step (the moments see the L2 term)."""
        decayed, plain = Parameter(np.array([2.0, -1.0])), Parameter(np.array([2.0, -1.0]))
        opt_d = Adam([decayed], lr=0.1, weight_decay=0.25)
        opt_p = Adam([plain], lr=0.1)
        for g in ([1.0, 0.5], [-3.0, 2.0], [0.25, 0.0]):
            decayed.grad = np.array(g)
            plain.grad = np.array(g) + 0.25 * plain.data
            opt_d.step()
            opt_p.step()
            np.testing.assert_array_equal(decayed.data, plain.data)
        np.testing.assert_array_equal(opt_d._m[id(decayed)], opt_p._m[id(plain)])
