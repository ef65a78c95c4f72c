"""Property-based autograd checks: random op compositions vs finite
differences, and algebraic gradient identities."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builders import coo_to_csr
from repro.nn import Tensor
from repro.nn import functional as F

from tests.nn.test_gradcheck import numeric_grad


@st.composite
def small_problem(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    d = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=12))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    seed = draw(st.integers(0, 999))
    g = coo_to_csr(
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        num_dst=n,
        num_src=n,
    )
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    # keep relu inputs away from the kink for finite differences
    x[np.abs(x) < 0.05] += 0.2
    return g, x


@given(small_problem())
@settings(max_examples=25, deadline=None)
def test_two_layer_composition_gradcheck(problem):
    g, x = problem
    d = x.shape[1]
    rng = np.random.default_rng(1)
    w1 = rng.standard_normal((d, 3))
    w2 = rng.standard_normal((3, 2))
    norm = Tensor(1.0 / (g.in_degrees().astype(np.float64) + 1.0).reshape(-1, 1))

    def forward(arr):
        h = Tensor(arr)
        z1 = F.mul(F.spmm(g, F.matmul(h, Tensor(w1))), norm)
        h1 = F.relu(z1)
        z2 = F.spmm(g, F.matmul(h1, Tensor(w2)))
        return z2.sum()

    t = Tensor(x.copy(), requires_grad=True)
    h = t
    z1 = F.mul(F.spmm(g, F.matmul(h, Tensor(w1))), norm)
    h1 = F.relu(z1)
    F.spmm(g, F.matmul(h1, Tensor(w2))).sum().backward()
    num = numeric_grad(lambda a: float(forward(a).data), x, eps=1e-6)
    np.testing.assert_allclose(t.grad, num, atol=5e-5)


@given(small_problem())
@settings(max_examples=25, deadline=None)
def test_gradient_linearity(problem):
    """grad of (2 * loss) == 2 * grad of loss."""
    g, x = problem

    def grad_of(scale):
        t = Tensor(x.copy(), requires_grad=True)
        out = F.spmm(g, t).sum() * scale
        out.backward()
        return t.grad

    np.testing.assert_allclose(grad_of(2.0), 2.0 * grad_of(1.0), rtol=1e-10)


@given(small_problem())
@settings(max_examples=25, deadline=None)
def test_spmm_adjoint_identity(problem):
    """<A x, y> == <x, A^T y> — the defining identity the spmm backward
    relies on."""
    g, x = problem
    rng = np.random.default_rng(0)
    y = rng.standard_normal((g.num_vertices, x.shape[1]))
    from repro.kernels import aggregate

    ax = aggregate(g, x)
    aty = aggregate(g.reverse(), y)
    np.testing.assert_allclose(
        float((ax * y).sum()), float((x * aty).sum()), rtol=1e-9, atol=1e-9
    )


@given(small_problem(), st.integers(0, 100))
@settings(max_examples=20, deadline=None)
def test_log_softmax_rows_normalized(problem, seed):
    _, x = problem
    out = F.log_softmax(Tensor(x))
    sums = np.exp(out.data).sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, rtol=1e-8)
