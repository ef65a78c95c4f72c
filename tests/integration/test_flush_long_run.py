"""A distributed run trained into the subnormal regime, flushed and not.

Once a classifier is confident, its ``log_softmax`` gradient carries
entries below float32's smallest normal number, and every backward GEMM
that reads them takes the CPU's slow path.  ``Tensor.backward`` flushes
them (``repro.kernels.flush_subnormals``); this file pins that the flush
moves no bit on a small cd-5 run that provably reaches the regime:

- with the flush replaced by a no-op (here only), the ``log_softmax``
  gradient has subnormal entries — with it, none;
- losses and every rank's weights are equal, bit for bit, either way;
- the shm backend equals sim on the same run.
"""

import contextlib
import platform
import sys

import numpy as np
import pytest

import repro.nn.tensor
from repro.core import DistributedTrainer, TrainConfig
from repro.graph.datasets import load_dataset
from repro.nn import functional as F

pytestmark = pytest.mark.skipif(
    not (sys.platform == "linux" and platform.machine() == "x86_64"),
    reason="FTZ/DAZ is set through glibc's x86-64 fenv_t",
)

#: ogbn-products 0.05 (819 vertices), the suite's 3 x 256 model, P = 2:
#: the regime starts around epoch 6 and 24 epochs take about a second
EPOCHS = 24


@pytest.fixture(scope="module")
def ds():
    return load_dataset("ogbn-products", scale=0.05, seed=0)


@pytest.fixture
def log_softmax_subnormals(monkeypatch):
    """Subnormal entries of every ``log_softmax`` gradient, counted."""
    counts = []
    real = F.log_softmax
    tiny = np.finfo(np.float32).tiny

    def spied(a):
        out = real(a)
        inner = out._backward_fn

        def backward(g):
            (grad,) = inner(g)
            counts.append(int(np.count_nonzero((grad != 0) & (np.abs(grad) < tiny))))
            return (grad,)

        out._backward_fn = backward
        return out

    monkeypatch.setattr(F, "log_softmax", spied)
    return counts


def _fit(ds, backend="sim"):
    cfg = TrainConfig(num_threads=1, seed=0, eval_every=0).for_dataset(ds.name)
    trainer = DistributedTrainer(
        ds, 2, algorithm="cd-5", config=cfg, partitioner="libra", backend=backend
    )
    result = trainer.fit(EPOCHS)
    weights = [
        [p.data.tobytes() for p in rank.model.parameters()] for rank in trainer.ranks
    ]
    return result.loss_curve(), weights, result.total_comm_bytes


def test_the_flush_moves_no_bit_in_the_subnormal_regime(
    ds, log_softmax_subnormals, monkeypatch
):
    flushed = _fit(ds)
    assert sum(log_softmax_subnormals) == 0
    monkeypatch.setattr(repro.nn.tensor, "flush_subnormals", contextlib.nullcontext)
    unflushed = _fit(ds)
    assert sum(log_softmax_subnormals) > 0, "the run never reached the regime"
    assert flushed == unflushed


def test_shm_equals_sim_in_the_subnormal_regime(ds):
    assert _fit(ds, backend="shm") == _fit(ds, backend="sim")
