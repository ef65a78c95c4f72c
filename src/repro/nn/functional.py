"""Differentiable operations.

Each op builds a child :class:`~repro.nn.tensor.Tensor` whose backward
closure returns per-parent gradients.  Broadcasting ops reduce gradients
back to the parent shape with :func:`_unbroadcast` (summing the expanded
axes), matching NumPy broadcast semantics.

``spmm`` is the differentiable aggregation primitive: forward runs the
optimized kernel of :mod:`repro.kernels` (``kernel="auto"``, which
rides the vectorized segment-reduce engine — see
``docs/ARCHITECTURE.md``); backward is the engine's adjoint pass ``Aᵀ g``,
exactly the adjoint of ``f_O = A f_V``, which reads the forward's own
operand and builds no reversed graph.  Both directions of
every graph op here therefore run array-native end to end; no
Python-level per-destination loop remains on the training path.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.kernels.engine import adjoint_pass
from repro.kernels.spmm import aggregate
from repro.nn.tensor import Tensor, grad_enabled


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of NumPy broadcasting)."""
    if grad.shape == tuple(shape):
        return grad
    # sum leading extra dims
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _on_tape(t: Tensor) -> bool:
    return t.requires_grad or bool(t._parents)


def _grad_for(parent: Tensor, compute):
    """``compute()`` if ``parent`` is on the tape, else ``None``:
    ``Tensor.backward`` would drop a constant's gradient, so a closure
    with several parents does not compute it."""
    return compute() if _on_tape(parent) else None


def _make(data, parents, backward_fn, name=""):
    track = grad_enabled() and any(map(_on_tape, parents))
    return Tensor(
        data,
        requires_grad=False,
        _parents=tuple(parents) if track else (),
        _backward_fn=backward_fn if track else None,
        name=name,
    )


# -- arithmetic -----------------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def backward(g):
        return (
            _grad_for(a, lambda: _unbroadcast(g, a.shape)),
            _grad_for(b, lambda: _unbroadcast(g, b.shape)),
        )

    return _make(out, (a, b), backward, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data

    def backward(g):
        return (
            _grad_for(a, lambda: _unbroadcast(g, a.shape)),
            _grad_for(b, lambda: _unbroadcast(-g, b.shape)),
        )

    return _make(out, (a, b), backward, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def backward(g):
        return (
            _grad_for(a, lambda: _unbroadcast(g * b.data, a.shape)),
            _grad_for(b, lambda: _unbroadcast(g * a.data, b.shape)),
        )

    return _make(out, (a, b), backward, "mul")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("matmul supports 2-D tensors only")
    out = a.data @ b.data

    def backward(g):
        return (
            _grad_for(a, lambda: g @ b.data.T),
            _grad_for(b, lambda: a.data.T @ g),
        )

    return _make(out, (a, b), backward, "matmul")


# -- reductions -------------------------------------------------------------------


def sum_all(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum(), dtype=a.dtype)

    def backward(g):
        return (np.broadcast_to(g, a.shape).astype(a.dtype),)

    return _make(out, (a,), backward, "sum")


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size
    out = np.asarray(a.data.mean(), dtype=a.dtype)

    def backward(g):
        return (np.broadcast_to(g / n, a.shape).astype(a.dtype),)

    return _make(out, (a,), backward, "mean")


# -- nonlinearities -----------------------------------------------------------------


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    out = a.data * mask

    def backward(g):
        return (g * mask,)

    return _make(out, (a,), backward, "relu")


def log_softmax(a: Tensor) -> Tensor:
    """Row-wise log-softmax (numerically stable)."""
    z = a.data - a.data.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=1, keepdims=True))
    out = z - logsumexp
    softmax = np.exp(out)

    def backward(g):
        return (g - softmax * g.sum(axis=1, keepdims=True),)

    return _make(out, (a,), backward, "log_softmax")


# -- graph ops -------------------------------------------------------------------


def _into(ufunc, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``ufunc(a, b)``, over ``a`` if the result has its shape and dtype."""
    fits = a.shape == np.broadcast(a, b).shape and a.dtype == np.result_type(a, b)
    return ufunc(a, b, out=a if fits else None)


def graph_combine(z, x, norm, weight: Optional[Tensor], bias, activation: bool) -> Tensor:
    """``act(((z + x) * norm) @ weight + bias)`` as one tape node (``weight``
    ``None``: it is already inside ``z`` and ``x``): the ufuncs, in order, of
    the ``add`` / ``mul`` / ``matmul`` / ``add`` / ``relu`` chain it replaces,
    written in place; backward keeps ``mixed`` and the ReLU mask."""
    summed = z.data + x.data  # d norm reads it, so only a constant norm scales in place
    mixed = summed * norm.data if _on_tape(norm) else _into(np.multiply, summed, norm.data)
    out = _into(np.add, mixed if weight is None else mixed @ weight.data, bias.data)
    mask = out > 0 if activation else None
    out = _into(np.multiply, out, mask) if activation else out
    weights = () if weight is None else (weight,)

    def backward(g):
        g = g * mask if activation else g
        g_mixed = g
        if weights and (_on_tape(z) or _on_tape(x) or _on_tape(norm)):
            g_mixed = g @ weight.data.T
        g_sum = g_mixed * norm.data if _on_tape(z) or _on_tape(x) else None
        g_norm = _grad_for(norm, lambda: _unbroadcast(g_mixed * summed, norm.shape))
        g_bias = _grad_for(bias, lambda: _unbroadcast(g, bias.shape))
        return (g_sum, g_sum, g_norm, g_bias) + tuple(
            _grad_for(w, lambda: mixed.T @ g) for w in weights
        )

    return _make(out, (z, x, norm, bias) + weights, backward, "graph_combine")


def spmm(
    graph: CSRGraph,
    features: Tensor,
    num_threads: Optional[int] = None,
) -> Tensor:
    """Differentiable aggregation ``out = A @ features`` (copylhs/sum AP).

    Forward is the engine's SpMM pass (``aggregate(kernel="auto")``,
    threaded over destination chunks when ``num_threads > 1``).
    Backward is :func:`~repro.kernels.engine.adjoint_pass`,
    ``d features = A^T @ g`` on the same thread count: a transposed view
    of the forward's scipy operand, threaded over feature columns.  No
    reversed graph is built.
    """
    out = aggregate(graph, features.data, num_threads=num_threads)

    def backward(g):
        return (adjoint_pass(graph, g, num_threads),)

    return _make(out, (features,), backward, "spmm")


def pick(a: Tensor, rows: np.ndarray, cols: np.ndarray) -> Tensor:
    """Element selection ``out[i] = a[rows[i], cols[i]]`` (for NLL loss)."""
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    out = a.data[rows, cols]

    def backward(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, (rows, cols), g)
        return (ga,)

    return _make(out, (a,), backward, "pick")
