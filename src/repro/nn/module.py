"""Minimal module system (parameter registration + traversal)."""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.nn.tensor import Tensor


class Parameter(Tensor):
    """A leaf tensor registered as trainable."""

    def __init__(self, data, name: str = ""):
        super().__init__(np.asarray(data), requires_grad=True, name=name)


class Module:
    """Base class: auto-registers Parameter/Module attributes.

    Provides the PyTorch-style surface the trainers rely on:
    ``parameters()``, ``named_parameters()``, ``zero_grad()``,
    ``train()/eval()``, ``state_dict()/load_state_dict()``.
    """

    def __init__(self) -> None:
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    def __setattr__(self, key, value):
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[key] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[key] = value
        object.__setattr__(self, key, value)

    def register_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # -- traversal ---------------------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, p in self._parameters.items():
            yield (f"{prefix}{name}", p)
        for mod_name, mod in self._modules.items():
            yield from mod.named_parameters(prefix=f"{prefix}{mod_name}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- modes -------------------------------------------------------------------

    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for mod in self._modules.values():
            mod.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- state -------------------------------------------------------------------

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={missing} unexpected={unexpected}")
        for name, arr in state.items():
            if own[name].data.shape != arr.shape:
                raise ValueError(f"shape mismatch for {name}")
            own[name].data = arr.copy()

    def num_parameters(self) -> int:
        return sum(p.data.size for p in self.parameters())


class InputAggregate:
    """One-slot memo of a first layer's ``aggregate``, for an owner whose
    graph, input features and norm stay fixed across calls (a trainer, a
    rank program): with no tape and no dropout before it, that AP is a
    product of constants.  The key is the identity of the three objects,
    which the slot keeps alive; other objects recompute and take the slot.
    It cannot see an in-place write, so paths that rewrite features
    (serving) never go through it, and its result is read-only."""

    def __init__(self, layer):
        self.layer, self._key, self._value = layer, (None,) * 3, None

    def __call__(self, graph, features: Tensor, norm: Tensor) -> Tensor:
        if features.requires_grad or not features.is_leaf:
            return self.layer.aggregate(graph, features, norm)
        key = (graph, features.data, norm)
        if any(a is not b for a, b in zip(key, self._key)):
            value = self.layer.aggregate(graph, features, norm)
            assert value.shape[-1] == features.shape[-1], "memo must be W-free"
            value.data.setflags(write=False)
            self._key, self._value = key, value
        return self._value
