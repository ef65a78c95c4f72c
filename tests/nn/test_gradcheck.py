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


def test_dropout_backward_matches_mask():
    rng = np.random.default_rng(0)
    x = Tensor(np.ones((100, 4)), requires_grad=True)
    out = F.dropout(x, 0.5, rng, training=True)
    out.sum().backward()
    # grad equals the applied mask (0 or 1/(1-p))
    assert set(np.unique(x.grad)) <= {0.0, 2.0}


def test_dropout_eval_is_identity():
    rng = np.random.default_rng(0)
    x = Tensor(np.ones((10, 2)), requires_grad=True)
    out = F.dropout(x, 0.9, rng, training=False)
    assert out is x


# -- attention autograd path (edge_scores -> edge_softmax -> weighted_spmm) ----
#
# Non-uniform in-degrees on purpose: vertex 1 has in-degree 4, vertex 4
# in-degree 1, and vertices 0 and 5 have **zero** in-edges (their softmax
# segment is empty and their aggregate row stays zero — both must still
# route gradients correctly).


def attention_graph():
    return from_edge_list(
        [(0, 1), (2, 1), (3, 1), (5, 1), (1, 2), (0, 2), (3, 4), (1, 3)],
        num_vertices=6,
    )


def test_edge_scores_grad_both_parents():
    g = attention_graph()
    rng = np.random.default_rng(7)
    s = rng.standard_normal((6, 1))
    d = rng.standard_normal((6, 1))
    coef = rng.standard_normal((g.num_edges, 1))

    def run(src_arr, dst_arr):
        out = F.edge_scores(g, Tensor(src_arr), Tensor(dst_arr))
        return float(F.mul(out, Tensor(coef)).sum().data)

    ts, td = Tensor(s.copy(), requires_grad=True), Tensor(d.copy(), requires_grad=True)
    F.mul(F.edge_scores(g, ts, td), Tensor(coef)).sum().backward()
    np.testing.assert_allclose(
        ts.grad, numeric_grad(lambda a: run(a, d), s), atol=1e-6
    )
    np.testing.assert_allclose(
        td.grad, numeric_grad(lambda a: run(s, a), d), atol=1e-6
    )


def test_edge_softmax_grad():
    g = attention_graph()
    rng = np.random.default_rng(8)
    coef = rng.standard_normal((g.num_edges, 1))
    check(
        lambda t: F.mul(F.edge_softmax(g, t), Tensor(coef)).sum(),
        (g.num_edges, 1),
        seed=8,
        atol=1e-5,
    )


@pytest.mark.parametrize("kernel", ["auto", "baseline"])
def test_weighted_spmm_grad_features(kernel):
    g = attention_graph()
    rng = np.random.default_rng(9)
    w = rng.random((g.num_edges, 1)) + 0.1
    check(
        lambda t: F.relu(F.weighted_spmm(g, t, Tensor(w), kernel=kernel)).sum(),
        (6, 3),
        seed=9,
        atol=1e-5,
    )


@pytest.mark.parametrize("kernel", ["auto", "baseline"])
def test_weighted_spmm_grad_weights(kernel):
    g = attention_graph()
    rng = np.random.default_rng(10)
    x = rng.standard_normal((6, 3))
    w = rng.random((g.num_edges, 1)) + 0.1
    tw = Tensor(w.copy(), requires_grad=True)
    F.weighted_spmm(g, Tensor(x), tw, kernel=kernel).sum().backward()
    num = numeric_grad(
        lambda arr: float(
            F.weighted_spmm(g, Tensor(x), Tensor(arr), kernel=kernel).sum().data
        ),
        w,
    )
    np.testing.assert_allclose(tw.grad, num, atol=1e-6)


@pytest.mark.parametrize("kernel", ["auto", "baseline"])
def test_attention_chain_grad(kernel):
    """Full GAT-style chain: scores -> softmax -> weighted aggregation."""
    g = attention_graph()
    rng = np.random.default_rng(11)
    s = rng.standard_normal((6, 1))
    d = rng.standard_normal((6, 1))

    def chain(t):
        att = F.edge_softmax(g, F.edge_scores(g, Tensor(s), Tensor(d)))
        return F.weighted_spmm(g, t, att, kernel=kernel).sum()

    check(chain, (6, 4), seed=11, atol=1e-5)


def test_edge_softmax_backward_honors_dtype():
    g = attention_graph()
    logits = Tensor(
        np.random.default_rng(3).standard_normal((g.num_edges, 1)).astype(np.float32),
        requires_grad=True,
    )
    F.edge_softmax(g, logits).sum().backward()
    assert logits.grad.dtype == np.float32


def test_edge_softmax_backward_caches_dst_map():
    g = attention_graph()
    for _ in range(2):
        t = Tensor(np.ones((g.num_edges, 1)), requires_grad=True)
        F.edge_softmax(g, t).sum().backward()
    from repro.nn.functional import _cached_dst_map

    assert getattr(g, "_csr_dst_map", None) is not None
    assert _cached_dst_map(g) is g._csr_dst_map
