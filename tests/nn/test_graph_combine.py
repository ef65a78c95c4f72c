"""``F.graph_combine`` against the composed chain it replaced.

``GraphConv.combine`` used to be ``F.mul(F.add(z, x), norm)`` → ``Linear``
(or ``F.add(mixed, b)`` at the projected width) → ``F.relu``: six tape
nodes and their temporaries.  That chain is kept here as the oracle, and
the one fused node must equal it bit for bit, forward and every gradient,
over: ``W`` applied or projected, activation on or off, ``z`` / ``x`` on or
off the tape, ``norm`` on the tape, GCN's pre-scaled ``x``, float32 and
float64 — and float32 rows under a float64 norm, where nothing may be
written in place.
"""

import itertools

import numpy as np
import pytest

from repro.nn import GCN, GCNConv, GraphSAGE, SageConvGCN, Tensor, masked_cross_entropy
from repro.nn import functional as F
from repro.nn.layers import GraphConv
from repro.nn.optim import Adam

LAYERS = {"sage": SageConvGCN, "gcn": GCNConv}
D_IN, D_OUT, N = 6, 3, 9
#: (rows and parameters, norm)
DTYPES = {
    "float32": (np.float32, np.float32),
    "float64": (np.float64, np.float64),
    "float32-rows-float64-norm": (np.float32, np.float64),
}


def composed_combine(layer, z, x, norm):
    """The displaced ``GraphConv.combine``: the oracle."""
    lin = layer.linear
    mixed = F.mul(F.add(z, x), norm)
    out = lin(mixed) if x.shape[-1] == lin.in_features else F.add(mixed, lin.bias)
    return F.relu(out) if layer.activation else out


@pytest.fixture
def oracle(monkeypatch):
    """Run ``fn`` with ``GraphConv.combine`` swapped for the composed chain
    (``GCNConv.combine`` reaches it through ``super()``)."""

    def run(fn):
        with monkeypatch.context() as m:
            m.setattr(GraphConv, "combine", composed_combine)
            return fn()

    return run


def assert_same_bits(got, want):
    if want is None:
        assert got is None
        return
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _layer(arch, activation, dtype, seed):
    layer = LAYERS[arch](D_IN, D_OUT, activation=activation)
    rng = np.random.default_rng(seed)
    for p in layer.parameters():  # a non-zero bias: its gradient is compared
        p.data = rng.standard_normal(p.data.shape).astype(dtype)
    return layer


def _combine_once(layer, rows, norm_col, live, norm_live, upstream):
    layer.zero_grad()
    z = Tensor(rows[0], requires_grad=live[0])
    x = Tensor(rows[1], requires_grad=live[1])
    norm = Tensor(norm_col, requires_grad=norm_live)
    out = layer.combine(z, x, norm)
    out.backward(upstream)
    lin = layer.linear
    return [out.data, z.grad, x.grad, norm.grad, lin.weight.grad, lin.bias.grad]


@pytest.mark.parametrize("dtypes", sorted(DTYPES))
@pytest.mark.parametrize("live", list(itertools.product([True, False], repeat=2)))
@pytest.mark.parametrize("norm_live", [False, True])
@pytest.mark.parametrize("activation", [True, False])
@pytest.mark.parametrize("width", [D_IN, D_OUT], ids=["W-applied", "projected"])
@pytest.mark.parametrize("arch", sorted(LAYERS))
def test_fused_node_equals_the_composed_chain(
    arch, width, activation, norm_live, live, dtypes, oracle
):
    row_dtype, norm_dtype = DTYPES[dtypes]
    layer = _layer(arch, activation, row_dtype, seed=width)
    rng = np.random.default_rng(1)
    # ~half the pre-activations negative, so the ReLU mask is mixed
    rows = [rng.standard_normal((N, width)).astype(row_dtype) for _ in range(2)]
    norm_col = rng.uniform(0.1, 1.0, (N, 1)).astype(norm_dtype)
    upstream = rng.standard_normal((N, D_OUT)).astype(
        np.result_type(row_dtype, norm_dtype)
    )
    kept = [a.copy() for a in (*rows, norm_col)]

    got = _combine_once(layer, rows, norm_col, live, norm_live, upstream)
    want = oracle(lambda: _combine_once(layer, rows, norm_col, live, norm_live, upstream))
    for g, w in zip(got, want):
        assert_same_bits(g, w)
    for a, b in zip((*rows, norm_col), kept):  # in place means into its own arrays
        assert_same_bits(a, b)


@pytest.mark.parametrize("width", [D_IN, D_OUT], ids=["W-applied", "projected"])
def test_one_tape_node_per_layer(width):
    layer = _layer("sage", True, np.float32, seed=0)
    z, x = (Tensor(np.ones((N, width), np.float32), requires_grad=True) for _ in range(2))
    norm = Tensor(np.ones((N, 1), np.float32))
    out = layer.combine(z, x, norm)
    lin = layer.linear
    want = (z, x, norm, lin.bias) + ((lin.weight,) if width == D_IN else ())
    assert out.name == "graph_combine"
    assert len(out._parents) == len(want)
    assert all(p is q for p, q in zip(out._parents, want))


@pytest.mark.parametrize("model_cls", [GraphSAGE, GCN])
def test_training_equals_the_composed_chain(model_cls, small_sbm, oracle):
    """Three Adam steps of a 3-layer stack (layer 1 applies ``W`` in
    combine, layer 2 projects): the same losses and parameters, bit for bit."""
    rng = np.random.default_rng(3)
    features = Tensor(rng.standard_normal((small_sbm.num_vertices, 8)).astype(np.float32))
    labels = rng.integers(0, 4, small_sbm.num_vertices)
    deg = small_sbm.in_degrees().astype(np.float32) + 1.0
    norm = Tensor((1.0 / deg).reshape(-1, 1))

    def train():
        model = model_cls(8, 16, 4, num_layers=3)
        opt = Adam(model.parameters(), lr=0.05)
        losses = []
        for _ in range(3):
            model.zero_grad()
            loss = masked_cross_entropy(model(small_sbm, features, norm), labels)
            loss.backward()
            opt.step()
            losses.append(loss.data.tobytes())
        return losses, [p.data.tobytes() for p in model.parameters()]

    assert train() == oracle(train)
