"""Differentiable operations.

Each op builds a child :class:`~repro.nn.tensor.Tensor` whose backward
closure returns per-parent gradients.  Broadcasting ops reduce gradients
back to the parent shape with :func:`_unbroadcast` (summing the expanded
axes), matching NumPy broadcast semantics.

``spmm`` is the differentiable aggregation primitive: forward runs the
optimized kernel of :mod:`repro.kernels` (by default ``kernel="auto"``,
which rides the vectorized segment-reduce engine — see
``docs/ARCHITECTURE.md``); backward multiplies by the transposed
adjacency (cached per graph), which is exactly the adjoint of
``f_O = A f_V``.  Both directions of every graph op here therefore run
array-native end to end; no Python-level per-destination loop remains on
the training path.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph
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


def dropout(a: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout: scales kept activations by ``1/(1-p)``."""
    if not training or p <= 0.0:
        return a
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout p must be in [0, 1)")
    mask = (rng.random(a.shape) >= p) / (1.0 - p)
    mask = mask.astype(a.dtype)
    out = a.data * mask

    def backward(g):
        return (g * mask,)

    return _make(out, (a,), backward, "dropout")


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
    kernel: str = "auto",
    num_threads: Optional[int] = None,
) -> Tensor:
    """Differentiable aggregation ``out = A @ features`` (copylhs/sum AP).

    ``kernel`` is ``"auto"`` (the engine's SpMM pass — threaded over
    destination chunks when ``num_threads > 1``) or a
    :data:`repro.kernels.KERNELS` ground-truth name.  Backward applies
    the transposed adjacency: ``d features = A^T @ g`` on the same
    kernel and thread count.  The
    reversed CSR is built when a backward first needs it and cached on
    the graph object, so training reuses it every epoch and a forward
    nobody differentiates builds none.
    """
    out = aggregate(graph, features.data, kernel=kernel, num_threads=num_threads)

    def backward(g):
        reverse = _cached_reverse(graph)
        return (aggregate(reverse, g, kernel=kernel, num_threads=num_threads),)

    return _make(out, (features,), backward, "spmm")


def _cached_reverse(graph: CSRGraph) -> CSRGraph:
    # The reverse is cached on the graph instance itself (an id()-keyed
    # global dict would go stale when Python reuses object ids after GC).
    rev = getattr(graph, "_spmm_reverse", None)
    if rev is None:
        rev = graph.reverse()
        object.__setattr__(graph, "_spmm_reverse", rev)
    return rev


def _cached_dst_map(graph: CSRGraph) -> np.ndarray:
    """Per-edge destination ids in CSR order, cached on the graph.

    ``edge_softmax`` backward needs this map every call of every epoch;
    like :func:`_cached_reverse` it is built once per graph instance.
    """
    dst = getattr(graph, "_csr_dst_map", None)
    if dst is None:
        dst = np.repeat(np.arange(graph.num_vertices), np.diff(graph.indptr))
        object.__setattr__(graph, "_csr_dst_map", dst)
    return dst


def leaky_relu(a: Tensor, slope: float = 0.2) -> Tensor:
    mask = a.data > 0
    out = np.where(mask, a.data, slope * a.data)

    def backward(g):
        return (np.where(mask, g, slope * g),)

    return _make(out, (a,), backward, "leaky_relu")


def edge_scores(graph: CSRGraph, src_score: Tensor, dst_score: Tensor) -> Tensor:
    """Per-edge score ``e_uv = s_src[u] + s_dst[v]`` (GAT logits).

    Inputs are ``(N, 1)`` columns; output is ``(num_edges, 1)`` in edge-id
    order.  This is the SDDMM-``add`` of paper Section 2.2, made
    differentiable: backward scatter-adds edge gradients to the endpoint
    scores.
    """
    src, dst, eid = graph.to_coo()
    out = np.empty((graph.num_edges, 1), dtype=src_score.dtype)
    out[eid] = src_score.data[src] + dst_score.data[dst]

    def backward(g):
        ge = g[eid]
        gs = np.zeros_like(src_score.data)
        gd = np.zeros_like(dst_score.data)
        np.add.at(gs[:, 0], src, ge[:, 0])
        np.add.at(gd[:, 0], dst, ge[:, 0])
        return gs, gd

    return _make(out, (src_score, dst_score), backward, "edge_scores")


def edge_softmax(graph: CSRGraph, logits: Tensor) -> Tensor:
    """Differentiable per-destination softmax over in-edge logits."""
    from repro.kernels.sddmm import edge_softmax_vectorized

    soft = edge_softmax_vectorized(graph, logits.data)
    eids = graph.edge_ids
    dtype = logits.dtype

    def backward(g):
        # d logits = s * (g - sum_per_segment(g * s)), computed in the
        # input dtype over the cached per-edge destination map (rebuilt
        # scratch here used to dominate the backward's allocation cost).
        dst = _cached_dst_map(graph)
        gs = g * soft
        seg = np.zeros(graph.num_vertices, dtype=dtype)
        np.add.at(seg, dst, gs[eids, 0])
        per_edge = np.empty_like(g)
        per_edge[eids, 0] = seg[dst]
        return ((soft * (g - per_edge)).astype(dtype, copy=False),)

    return _make(soft, (logits,), backward, "edge_softmax")


def weighted_spmm(
    graph: CSRGraph,
    features: Tensor,
    weights: Tensor,
    kernel: str = "auto",
    num_threads: Optional[int] = None,
) -> Tensor:
    """Attention-weighted aggregation ``out[v] = sum_u w_uv * h_u``.

    ``weights`` is ``(num_edges, 1)`` in edge-id order.  The ``mul``/``sum``
    AP has no SpMM lowering, so ``auto`` runs the gather → ``reduceat``
    engine — unchunked below the cache threshold, bucketed above it so
    the per-edge intermediate stays bounded on large graphs.
    Gradients flow to both operands: features through the transposed
    adjacency with the same weights, weights through the SDDMM-dot of
    endpoint features/gradients.
    """
    out = aggregate(
        graph, features.data, weights.data, binary_op="mul", reduce_op="sum",
        kernel=kernel, num_threads=num_threads,
    )

    def backward(g):
        gf = aggregate(
            _cached_reverse(graph), g, weights.data, binary_op="mul",
            reduce_op="sum", kernel=kernel, num_threads=num_threads,
        )
        from repro.kernels.sddmm import sddmm

        gw = sddmm(graph, features.data, g, op="dot").astype(weights.dtype)
        return gf.astype(features.dtype), gw

    return _make(out, (features, weights), backward, "weighted_spmm")


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
