"""Optimizers (SGD with momentum, Adam), with the paper's weight decay.

The paper trains with learning rates per Table 5 and weight decay
``5e-4`` everywhere; decoupled weight decay is applied as an L2 term on
the gradient (classic, matching PyTorch's SGD/Adam ``weight_decay``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.nn.module import Parameter


class Optimizer:
    """Base optimizer over a parameter list."""

    def __init__(self, params: Sequence[Parameter], lr: float, weight_decay: float = 0.0):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer needs at least one parameter")
        self.lr = lr
        self.weight_decay = weight_decay

    def _grad(self, p: Parameter) -> np.ndarray:
        g = p.grad
        if g is None:
            return np.zeros_like(p.data)
        if self.weight_decay:
            g = g + self.weight_decay * p.data
        return g

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """SGD with optional momentum."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr, weight_decay)
        self.momentum = momentum
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        for p in self.params:
            g = self._grad(p)
            if self.momentum:
                v = self._velocity.get(id(p))
                v = self.momentum * v + g if v is not None else g
                self._velocity[id(p)] = v
                g = v
            p.data = p.data - self.lr * g


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 1e-3,
        betas=(0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr, weight_decay)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        for p in self.params:
            g = self._grad(p)
            m = self._m.get(id(p))
            v = self._v.get(id(p))
            m = b1 * m + (1 - b1) * g if m is not None else (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g if v is not None else (1 - b2) * g * g
            self._m[id(p)], self._v[id(p)] = m, v
            mhat = m / (1 - b1**self._t)
            vhat = v / (1 - b2**self._t)
            p.data = p.data - self.lr * mhat / (np.sqrt(vhat) + self.eps)
