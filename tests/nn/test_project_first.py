"""``project → aggregate → combine`` against ``aggregate → combine``.

Row scaling commutes with right-multiplication, so a layer that narrows
(``out_features < in_features``) may run its AP on ``h @ W``.  Pinned
here in float64, where the two orders differ by rounding only: equal
outputs and equal gradients of ``h``, ``W`` and ``b`` over drawn shapes
and graphs (zero-in-degree rows, multi-edges), the identity ``project``
of a layer that does not narrow (byte-identical, nothing to compare),
the whole-model stacks, and the named error ``combine`` raises for a
width it cannot have been handed by either order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builders import coo_to_csr
from repro.nn import GCN, GCNConv, GraphSAGE, SageConvGCN, Tensor

from tests.nn.test_gradcheck import numeric_grad

LAYERS = {"sage": SageConvGCN, "gcn": GCNConv}
MODELS = {"sage": GraphSAGE, "gcn": GCN}


def _norm(graph, arch):
    deg = graph.in_degrees().astype(np.float64) + 1.0
    return Tensor((1.0 / (deg if arch == "sage" else np.sqrt(deg))).reshape(-1, 1))


def _to_float64(module, seed):
    """Float64 parameters with a non-zero bias (its gradient is compared)."""
    rng = np.random.default_rng(seed)
    for p in module.parameters():
        p.data = rng.standard_normal(p.data.shape)


@st.composite
def layer_problem(draw):
    n = draw(st.integers(2, 7))
    m = draw(st.integers(0, 14))  # lists repeat pairs: multi-edges
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    # destinations from a prefix only: the last vertex has in-degree zero
    dst = draw(st.lists(st.integers(0, max(n - 2, 0)), min_size=m, max_size=m))
    graph = coo_to_csr(
        np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64),
        num_dst=n, num_src=n,
    )
    d_in = draw(st.integers(1, 5))
    d_out = draw(st.integers(1, 5))
    return graph, d_in, d_out, draw(st.integers(0, 999))


def _run(layer, graph, norm, x, project, upstream):
    """One layer in the given order; returns the output and the
    gradients of ``h``, ``W``, ``b`` under ``sum(out * upstream)``."""
    layer.zero_grad()
    h = Tensor(x.copy(), requires_grad=True)
    inner = layer.project(h) if project else h
    out = layer.combine(layer.aggregate(graph, inner, norm), inner, norm)
    out.backward(upstream)
    lin = layer.linear
    return out.data, h.grad, lin.weight.grad.copy(), lin.bias.grad.copy()


@pytest.mark.parametrize("arch", sorted(LAYERS))
@given(layer_problem())
@settings(max_examples=40, deadline=None)
def test_layer_orders_agree_in_float64(arch, problem):
    graph, d_in, d_out, seed = problem
    assert graph.in_degrees()[-1] == 0
    layer = LAYERS[arch](d_in, d_out, activation=False)
    _to_float64(layer, seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.standard_normal((graph.num_vertices, d_in))
    upstream = rng.standard_normal((graph.num_vertices, d_out))
    norm = _norm(graph, arch)
    first = _run(layer, graph, norm, x, project=False, upstream=upstream)
    second = _run(layer, graph, norm, x, project=True, upstream=upstream)
    h = Tensor(x)
    if d_out < d_in:
        assert layer.project(h).shape == (graph.num_vertices, d_out)
        for got, want in zip(second, first):
            np.testing.assert_allclose(got, want, rtol=1e-11, atol=1e-11)
    else:
        # nothing narrows: project hands back its argument, same bytes
        assert layer.project(h) is h
        for got, want in zip(second, first):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("arch", sorted(LAYERS))
def test_projected_order_passes_a_finite_difference_check(arch, tiny_graph):
    layer = LAYERS[arch](4, 2, activation=True)
    _to_float64(layer, 3)
    norm = _norm(tiny_graph, arch)
    x = np.random.default_rng(4).standard_normal((tiny_graph.num_vertices, 4))

    def loss(h, w=None, b=None):
        lin = layer.linear
        lin.weight.data = lin.weight.data if w is None else w
        lin.bias.data = lin.bias.data if b is None else b
        inner = layer.project(h)
        return layer.combine(layer.aggregate(tiny_graph, inner, norm), inner, norm).sum()

    h = Tensor(x.copy(), requires_grad=True)
    layer.zero_grad()
    loss(h).backward()
    w0, b0 = layer.linear.weight.data.copy(), layer.linear.bias.data.copy()
    checks = [
        (h.grad, lambda a: float(loss(Tensor(a), w0, b0).data), x),
        (layer.linear.weight.grad, lambda a: float(loss(Tensor(x), a, b0).data), w0),
        (layer.linear.bias.grad, lambda a: float(loss(Tensor(x), w0, a).data), b0),
    ]
    for got, fn, at in checks:
        np.testing.assert_allclose(got, numeric_grad(fn, at), atol=1e-6)


@pytest.mark.parametrize("arch", sorted(MODELS))
@pytest.mark.parametrize("dims", [(6, 6, 3), (6, 4, 2), (3, 5, 5), (6, 3, 3), (4, 7, 3)])
def test_model_matches_the_layer_by_layer_forward(arch, dims, small_sbm):
    """``model(...)`` projects after layer 0; ``layer(...)`` (what serving
    runs) never does.  Float64: rounding apart, one function."""
    d_in, hidden, classes = dims
    model = MODELS[arch](d_in, hidden, classes, num_layers=3)
    _to_float64(model, 7)
    norm = _norm(small_sbm, arch)
    x = Tensor(np.random.default_rng(8).standard_normal((small_sbm.num_vertices, d_in)))
    h = x
    for layer in model.layers:
        h = layer(small_sbm, h, norm)
    got = model(small_sbm, x, norm).data
    narrows = any(
        l.linear.out_features < l.linear.in_features for l in model.layers[1:]
    )
    if narrows:
        np.testing.assert_allclose(got, h.data, rtol=1e-10, atol=1e-10)
    else:
        assert np.array_equal(got, h.data)


@pytest.mark.parametrize("arch", sorted(LAYERS))
def test_combine_names_a_width_it_cannot_have_been_handed(arch, tiny_graph):
    n = tiny_graph.num_vertices
    norm = _norm(tiny_graph, arch)
    narrowing, widening = LAYERS[arch](6, 3), LAYERS[arch](3, 6)

    def rows(width):
        return Tensor(np.ones((n, width), dtype=np.float32))

    # width 1 would broadcast through (z + x) * norm + b without a sound
    with pytest.raises(ValueError, match=r"in_features=6, out_features=3.*\(5, 1\)"):
        narrowing.combine(rows(1), rows(1), norm)
    # the output width is legal only where project produces it
    with pytest.raises(ValueError, match=r"in_features=3, out_features=6.*\(5, 6\)"):
        widening.combine(rows(6), rows(6), norm)
    # z and x must come from the same side of W
    with pytest.raises(ValueError, match=r"z \(5, 3\) and x \(5, 6\)"):
        narrowing.combine(rows(3), rows(6), norm)
    for width in (6, 3):
        assert narrowing.combine(rows(width), rows(width), norm).shape == (n, 3)
    assert widening.combine(rows(3), rows(3), norm).shape == (n, 6)
