"""Autograd tensor mechanics."""

import threading

import numpy as np
import pytest

from repro.nn import Tensor, no_grad
from repro.nn import functional as F


class TestBasics:
    def test_wraps_array(self):
        t = Tensor(np.ones((2, 3)))
        assert t.shape == (2, 3)
        assert t.ndim == 2

    def test_leaf_detection(self):
        a = Tensor(np.ones(2), requires_grad=True)
        b = F.add(a, a)
        assert a.is_leaf and not b.is_leaf

    def test_zero_grad(self):
        a = Tensor(np.ones(2), requires_grad=True)
        F.mul(a, a).backward(np.ones(2))
        assert a.grad is not None
        a.zero_grad()
        assert a.grad is None


class TestBackward:
    def test_scalar_backward_default_grad(self):
        a = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        a.sum().backward()
        assert np.array_equal(a.grad, [1.0, 1.0])

    def test_nonscalar_requires_gradient(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = F.mul(a, a)
        with pytest.raises(ValueError, match="scalar"):
            b.backward()

    def test_gradient_shape_checked(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = F.mul(a, a)
        with pytest.raises(ValueError, match="shape"):
            b.backward(np.ones(4))

    def test_grad_accumulates_across_backwards(self):
        a = Tensor(np.ones(2), requires_grad=True)
        F.mul(a, Tensor(np.full(2, 3.0))).backward(np.ones(2))
        F.mul(a, Tensor(np.full(2, 4.0))).backward(np.ones(2))
        assert np.array_equal(a.grad, [7.0, 7.0])

    def test_diamond_graph(self):
        # y = (a + a) * a -> dy/da = 2a + (a + a) = 4a at a
        a = Tensor(np.array([3.0]), requires_grad=True)
        y = F.mul(F.add(a, a), a)
        y.backward(np.ones(1))
        assert a.grad[0] == pytest.approx(12.0)

    def test_shared_subexpression(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        b = F.mul(a, a)  # a^2
        y = F.add(b, b)  # 2a^2 -> dy/da = 4a = 8
        y.backward(np.ones(1))
        assert a.grad[0] == pytest.approx(8.0)

    def test_deep_chain_no_recursion_error(self):
        a = Tensor(np.ones(1), requires_grad=True)
        x = a
        for _ in range(3000):
            x = F.add(x, Tensor(np.zeros(1)))
        x.backward(np.ones(1))
        assert a.grad[0] == 1.0


class TestNoGrad:
    def test_suppresses_tape(self):
        a = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            b = F.mul(a, a)
        assert b.is_leaf

    def test_restores_on_exit(self):
        a = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            pass
        b = F.mul(a, a)
        assert not b.is_leaf

    def test_restores_on_exception(self):
        from repro.nn.tensor import grad_enabled

        try:
            with no_grad():
                raise RuntimeError
        except RuntimeError:
            pass
        assert grad_enabled()

    def test_is_per_thread(self):
        """One thread holds ``no_grad`` while a second builds a tape (the
        sim driver's rank threads evaluate and train side by side): the
        tape keeps its parents, the first thread's ops record none, and
        both threads end with the tape on."""
        from repro.nn.tensor import grad_enabled

        a = Tensor(np.ones(2), requires_grad=True)
        entered, built, left = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def evaluator():
            with no_grad():
                entered.set()
                built.wait(10)
                seen["no_grad op is a leaf"] = F.mul(a, a).is_leaf
            seen["evaluator restored"] = grad_enabled()
            left.set()

        def trainer():
            entered.wait(10)
            seen["tape op has parents"] = not F.mul(a, a).is_leaf
            built.set()
            left.wait(10)
            seen["trainer restored"] = grad_enabled()

        threads = [threading.Thread(target=f) for f in (evaluator, trainer)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert seen == dict.fromkeys(
            ["no_grad op is a leaf", "tape op has parents",
             "evaluator restored", "trainer restored"], True
        )
        assert grad_enabled()


class TestOperatorSugar:
    def test_arith_operators(self):
        a = Tensor(np.array([4.0]), requires_grad=True)
        y = (a + 1.0) * 2.0 - a
        assert y.data[0] == pytest.approx(6.0)
        y.backward(np.ones(1))
        assert a.grad[0] == pytest.approx(1.0)

    def test_matmul_operator(self):
        a = Tensor(np.eye(2), requires_grad=True)
        b = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal((a @ b).data, b.data)

    def test_neg(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        (-a).backward(np.ones(1))
        assert a.grad[0] == -1.0
