"""Adam, the one optimizer the paper's protocol trains with.

The paper trains with learning rates per Table 5 and weight decay
``5e-4`` everywhere (``core.models.make_optimizer`` passes it); the
decay is applied as an L2 term on the gradient (classic, matching
PyTorch's Adam ``weight_decay``).
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.nn.module import Parameter


class Adam:
    """Adam (Kingma & Ba) with bias correction over a parameter list."""

    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 1e-3,
        betas=(0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer needs at least one parameter")
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t = 0

    def _grad(self, p: Parameter) -> np.ndarray:
        g = p.grad
        if g is None:
            return np.zeros_like(p.data)
        if self.weight_decay:
            g = g + self.weight_decay * p.data
        return g

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
