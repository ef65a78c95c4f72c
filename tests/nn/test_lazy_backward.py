"""Backward does no work nobody reads.

Two-parent closures skip the gradient of a parent that is not on the tape
(``Tensor.backward`` would drop it anyway), and ``F.spmm``'s backward
multiplies by the forward's own operand, transposed: no reversed
adjacency is built, in forward or backward, at any thread count.  Neither
moves a bit of a surviving gradient.  CI runs this file at
``REPRO_NUM_THREADS`` 1 and 4, which set the trainers' default thread count.
"""

import numpy as np
import pytest

from repro.core import DistributedTrainer, TrainConfig, Trainer
from repro.graph.csr import CSRGraph
from repro.graph.datasets import load_dataset
from repro.nn import Tensor, no_grad
from repro.nn import functional as F
from repro.sampling import MiniBatchTrainer

RNG = np.random.default_rng(0)
A = RNG.standard_normal((5, 4)).astype(np.float32)
COL = RNG.standard_normal((5, 1)).astype(np.float32)
W = RNG.standard_normal((4, 3)).astype(np.float32)

#: op, its two operands, and each parent's gradient for an upstream ``g``
CASES = {
    "add": (F.add, A, COL, lambda g: g, lambda g: g.sum(axis=1, keepdims=True)),
    "sub": (F.sub, A, COL, lambda g: g, lambda g: (-g).sum(axis=1, keepdims=True)),
    "mul": (F.mul, A, COL, lambda g: g * COL, lambda g: (g * A).sum(axis=1, keepdims=True)),
    "matmul": (F.matmul, A, W, lambda g: g @ W.T, lambda g: A.T @ g),
}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("live", [(True, False), (False, True), (True, True)])
def test_closures_skip_parents_off_the_tape(name, live):
    op, a, b, grad_a, grad_b = CASES[name]
    ta, tb = Tensor(a, requires_grad=live[0]), Tensor(b, requires_grad=live[1])
    out = op(ta, tb)
    g = RNG.standard_normal(out.shape).astype(np.float32)
    got = out._backward_fn(g)
    for pg, on_tape, want in zip(got, live, (grad_a(g), grad_b(g))):
        if on_tape:
            assert np.array_equal(pg, want)  # the formula it always was
        else:
            assert pg is None
    out.backward(g)
    for t, on_tape in ((ta, live[0]), (tb, live[1])):
        assert (t.grad is not None) == on_tape


def test_an_interior_parent_still_gets_its_gradient():
    """On the tape means ``requires_grad`` *or* computed from something
    that is: the hidden activation of a layer has only ``_parents``."""
    w = Tensor(W, requires_grad=True)
    hidden = F.matmul(Tensor(A), w)  # requires_grad False, has parents
    out = F.mul(hidden, Tensor(np.full((5, 1), 2.0, np.float32)))
    g = np.ones(out.shape, np.float32)
    assert out._backward_fn(g)[1] is None
    out.backward(g)
    assert np.array_equal(w.grad, A.T @ (g * 2.0))


# -- no reversed adjacency is built ------------------------------------------------


@pytest.fixture
def reversals(monkeypatch):
    built = []
    real = CSRGraph.reverse

    def counting_reverse(self):
        built.append(self)
        return real(self)

    monkeypatch.setattr(CSRGraph, "reverse", counting_reverse)
    return built


def test_forward_alone_builds_no_reverse(small_rmat, small_features, reversals):
    with no_grad():
        F.spmm(small_rmat, Tensor(small_features, requires_grad=True), num_threads=4)
    # input off the tape: nothing to differentiate
    assert F.spmm(small_rmat, Tensor(small_features))._backward_fn is None
    assert reversals == []


@pytest.mark.parametrize("threads", [1, 4])
def test_spmm_backward_builds_no_reverse(small_rmat, small_features, reversals, threads):
    x = Tensor(small_features, requires_grad=True)
    for _ in range(3):
        out = F.spmm(small_rmat, x, num_threads=threads)
        out.backward(np.ones(out.shape, np.float32))
    assert reversals == []
    want = small_rmat.to_dense().T.astype(np.float32) @ np.ones(out.shape, np.float32)
    assert np.allclose(x.grad, 3 * want)


def _trainer(kind):
    ds = load_dataset("reddit", scale=0.03, seed=11)  # a graph no other test holds
    cfg = TrainConfig(num_layers=2, hidden_features=8, seed=0)  # REPRO_NUM_THREADS
    if kind == "full":
        return Trainer(ds, cfg)
    if kind == "minibatch":
        return MiniBatchTrainer(ds, fanouts=(4, 4), batch_size=128, config=cfg)
    return DistributedTrainer(ds, 2, algorithm="cd-0", config=cfg, backend="sim")


@pytest.mark.parametrize("kind", ["full", "minibatch", "dist"])
def test_training_builds_no_reverse(kind, reversals):
    trainer = _trainer(kind)
    for epoch in range(2):
        trainer.train_epoch(epoch)
    assert reversals == []
