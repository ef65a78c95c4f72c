"""Reverse-mode autograd tensor.

A :class:`Tensor` wraps a NumPy array plus tape bookkeeping: the parent
tensors it was computed from and a backward closure producing each
parent's gradient contribution.  ``backward()`` runs a topological sweep
accumulating gradients into every reachable tensor with
``requires_grad=True``.

Design notes
------------
- Gradients are plain ``np.ndarray`` in the same dtype as the data.
- The tape is per-tensor (no global state), so the distributed trainer
  can backprop independent per-layer segments (see
  :mod:`repro.core.dist_trainer`) by detaching segment boundaries.
- ``no_grad()`` suppresses tape construction for evaluation passes, on
  the calling thread only (the sim driver runs ranks on threads).
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.kernels import flush_subnormals


class _GradMode(threading.local):
    enabled = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Disable tape recording on this thread inside the context (evaluation)."""
    prev, _grad_mode.enabled = _grad_mode.enabled, False
    try:
        yield
    finally:
        _grad_mode.enabled = prev


def grad_enabled() -> bool:
    return _grad_mode.enabled


class Tensor:
    """NumPy array with reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        _backward_fn: Optional[Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]] = None,
        name: str = "",
    ):
        self.data = np.asarray(data)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        tape = (_parents, _backward_fn) if _grad_mode.enabled else ((), None)
        self._parents, self._backward_fn = tape
        self.name = name

    # -- introspection ---------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def is_leaf(self) -> bool:
        return not self._parents

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    # -- graph manipulation ----------------------------------------------------

    def detach(self) -> "Tensor":
        """A view of the data cut off from the tape."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def accumulate_grad(self, g: np.ndarray) -> None:
        if g.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match tensor {self.data.shape}"
            )
        if self.grad is None:
            self.grad = g.astype(self.data.dtype, copy=True)
        else:
            self.grad += g

    # -- backward --------------------------------------------------------------

    def backward(self, gradient: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor.

        ``gradient`` defaults to 1 for scalars (loss values); non-scalar
        roots require an explicit output gradient — the distributed trainer
        uses this to chain per-layer segments.
        """
        if gradient is None:
            if self.data.size != 1:
                raise ValueError("backward() without gradient requires a scalar")
            gradient = np.ones_like(self.data)
        gradient = np.asarray(gradient, dtype=self.data.dtype)
        if gradient.shape != self.data.shape:
            raise ValueError(
                f"output gradient shape {gradient.shape} != {self.data.shape}"
            )

        topo: List[Tensor] = []
        visited = set()

        def visit(t: Tensor) -> None:
            stack = [(t, False)]
            while stack:
                node, processed = stack.pop()
                if processed:
                    topo.append(node)
                    continue
                if id(node) in visited:
                    continue
                visited.add(id(node))
                stack.append((node, True))
                for p in node._parents:
                    if id(p) not in visited:
                        stack.append((p, False))

        visit(self)

        grads = {id(self): gradient}
        with flush_subnormals():  # subnormal gradients round away; each is a slow path
            for node in reversed(topo):
                g = grads.pop(id(node), None)
                if g is None:
                    continue
                if node.requires_grad and node.is_leaf:
                    node.accumulate_grad(g)
                if node._backward_fn is None:
                    continue
                parent_grads = node._backward_fn(g)
                for parent, pg in zip(node._parents, parent_grads):
                    if pg is None:
                        continue
                    if not (parent.requires_grad or parent._parents):
                        continue
                    key = id(parent)
                    if key in grads:
                        grads[key] = grads[key] + pg
                    else:
                        grads[key] = pg

    # -- operator sugar (delegates to functional) -------------------------------

    def __add__(self, other):
        from repro.nn import functional as F

        return F.add(self, _wrap(other))

    __radd__ = __add__

    def __sub__(self, other):
        from repro.nn import functional as F

        return F.sub(self, _wrap(other))

    def __mul__(self, other):
        from repro.nn import functional as F

        return F.mul(self, _wrap(other))

    __rmul__ = __mul__

    def __matmul__(self, other):
        from repro.nn import functional as F

        return F.matmul(self, _wrap(other))

    def __neg__(self):
        from repro.nn import functional as F

        return F.mul(self, Tensor(np.asarray(-1.0, dtype=self.dtype)))

    def sum(self):
        from repro.nn import functional as F

        return F.sum_all(self)

    def mean(self):
        from repro.nn import functional as F

        return F.mean_all(self)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))
