"""Finite-difference gradient checks for every differentiable op."""

import numpy as np
import pytest

from repro.graph.builders import from_edge_list
from repro.nn import Tensor
from repro.nn import functional as F


def numeric_grad(fn, x, eps=1e-6):
    """Central finite differences of scalar fn w.r.t. array x."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += eps
        xm = x.copy()
        xm[idx] -= eps
        g[idx] = (fn(xp) - fn(xm)) / (2 * eps)
        it.iternext()
    return g


def check(op_builder, shape, seed=0, atol=1e-6):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape)
    t = Tensor(x.copy(), requires_grad=True)
    out = op_builder(t)
    out.backward()
    num = numeric_grad(lambda arr: float(op_builder(Tensor(arr)).data), x)
    np.testing.assert_allclose(t.grad, num, atol=atol)


def test_add_broadcast_bias():
    bias = np.array([0.5, -0.5, 1.0])
    check(lambda t: F.add(t, Tensor(bias)).sum(), (4, 3))


def test_add_grad_of_bias():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 3))
    b = rng.standard_normal(3)
    tb = Tensor(b.copy(), requires_grad=True)
    F.add(Tensor(x), tb).sum().backward()
    num = numeric_grad(
        lambda arr: float(F.add(Tensor(x), Tensor(arr)).sum().data), b
    )
    np.testing.assert_allclose(tb.grad, num, atol=1e-6)


def test_sub():
    check(lambda t: F.sub(t, Tensor(np.ones((3, 2)))).sum(), (3, 2))


def test_mul_broadcast_column():
    norm = np.random.default_rng(1).random((5, 1)) + 0.5
    check(lambda t: F.mul(t, Tensor(norm)).sum(), (5, 4))


def test_matmul_lhs():
    w = np.random.default_rng(2).standard_normal((3, 2))
    check(lambda t: F.matmul(t, Tensor(w)).sum(), (4, 3))


def test_matmul_rhs():
    x = np.random.default_rng(3).standard_normal((4, 3))
    check(lambda t: F.matmul(Tensor(x), t).sum(), (3, 2))


def test_relu():
    # keep values away from the kink
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 4))
    x[np.abs(x) < 0.1] += 0.3
    t = Tensor(x.copy(), requires_grad=True)
    F.relu(t).sum().backward()
    num = numeric_grad(lambda a: float(F.relu(Tensor(a)).sum().data), x)
    np.testing.assert_allclose(t.grad, num, atol=1e-6)


def test_mean():
    check(lambda t: t.mean(), (6, 2))


def test_log_softmax():
    check(lambda t: F.log_softmax(t).sum(), (3, 5), atol=1e-5)


def test_pick():
    rows = np.array([0, 1, 2])
    cols = np.array([1, 0, 2])
    check(lambda t: F.pick(F.log_softmax(t), rows, cols).sum(), (3, 4), atol=1e-5)


def test_spmm():
    g = from_edge_list([(0, 1), (1, 2), (2, 0), (0, 2), (1, 0)], num_vertices=3)
    check(lambda t: F.relu(F.spmm(g, t)).sum(), (3, 4), atol=1e-5)


def test_spmm_chain_through_matmul():
    g = from_edge_list([(0, 1), (1, 0), (1, 2)], num_vertices=3)
    w = np.random.default_rng(5).standard_normal((4, 2))
    check(
        lambda t: F.spmm(g, F.matmul(t, Tensor(w))).sum(),
        (3, 4),
        atol=1e-5,
    )
