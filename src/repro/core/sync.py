"""Data-parallel parameter synchronization.

The model is replicated per socket; each epoch the weight gradients are
AllReduced ("For parameter sync among the models, in each epoch, we use
AllReduce collective operation", Section 6.1).  Per-rank losses are
normalized by the *global* training-vertex count, so the sum-AllReduce of
gradients reproduces the single-socket mean-loss gradient exactly.
"""

from __future__ import annotations

from typing import Generator, Sequence

import numpy as np

from repro.nn.module import Module


def grad_or_zeros(t) -> np.ndarray:
    """``t.grad``, or zeros where no loss term reached ``t``."""
    return t.grad if t.grad is not None else np.zeros_like(t.data)


def allreduce_gradients(comm, model: Module, op: str = "sum") -> Generator:
    """One rank's side of the AllReduce of every parameter gradient
    across the replicas — a rank program yielding at each collective.

    A parameter with no gradient on this rank contributes zeros (the
    rank had no loss terms touching it).
    """
    for param in model.parameters():
        param.grad = yield comm.all_reduce(grad_or_zeros(param), op=op)


def assert_replicas_in_sync(models: Sequence[Module], atol: float = 0.0) -> None:
    """Debug check: all replicas hold identical weights (to ``atol``,
    absolute: the default 0 means exactly)."""
    ref = models[0].state_dict()
    for m in models[1:]:
        for name, arr in m.state_dict().items():
            if not np.allclose(ref[name], arr, rtol=0.0, atol=atol):
                raise AssertionError(f"replica divergence in parameter {name}")
