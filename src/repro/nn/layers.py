"""Basic neural layers, and the three-step base of the full-batch graph layers."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.nn import functional as F
from repro.nn.init import xavier_uniform
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor


class Linear(Module):
    """Affine layer ``y = x W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            xavier_uniform(in_features, out_features, rng), name="weight"
        )
        if bias:
            self.bias = Parameter(np.zeros(out_features, dtype=np.float32), name="bias")
        else:
            self.bias = None

    def __call__(self, x: Tensor) -> Tensor:
        out = F.matmul(x, self.weight)
        if self.bias is not None:
            out = F.add(out, self.bias)
        return out


class GraphConv(Module):
    """What :class:`~repro.nn.sage.SageConvGCN` and
    :class:`~repro.nn.gcn.GCNConv` share: ``project`` → ``aggregate`` (the
    subclass's AP) → ``combine``.  Row scaling commutes with ``W``, so a
    layer with ``out_features < in_features`` may aggregate ``h @ W``
    instead of ``h``; ``combine`` tells the two by the width it is handed.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: bool = True,
        rng: Optional[np.random.Generator] = None,
        kernel: str = "auto",
        num_threads: Optional[int] = None,
    ):
        super().__init__()
        from repro.kernels import validate_kernel

        self.linear = Linear(in_features, out_features, rng=rng)
        self.activation = activation
        #: aggregation kernel name forwarded to ``F.spmm`` (validated here
        #: so a bad ``TrainConfig.kernel`` fails at model build time).
        self.kernel = validate_kernel(kernel)
        #: thread count forwarded to ``F.spmm``; > 1 routes the AP through
        #: the parallel execution engine (bit-identical outputs).
        self.num_threads = num_threads

    def project(self, h: Tensor) -> Tensor:
        """``h @ W`` when the layer narrows, ``h`` itself otherwise."""
        lin = self.linear
        return F.matmul(h, lin.weight) if lin.out_features < lin.in_features else h

    def combine(self, z: Tensor, x: Tensor, norm: Tensor) -> Tensor:
        """``act(((z + x) * norm) @ W + b)``, one tape node
        (:func:`~repro.nn.functional.graph_combine`); at the projected width
        ``W`` is already inside ``z`` and ``x`` and only ``b`` is added."""
        lin = self.linear
        width = x.shape[-1]
        if z.shape != x.shape or width not in (
            lin.in_features, min(lin.in_features, lin.out_features)
        ):
            raise ValueError(
                f"{type(self).__name__}.combine: in_features={lin.in_features}, "
                f"out_features={lin.out_features}, got z {z.shape} and x {x.shape}"
            )
        weight = lin.weight if width == lin.in_features else None
        return F.graph_combine(z, x, norm, weight, lin.bias, self.activation)

    def __call__(self, graph: CSRGraph, h: Tensor, norm: Tensor) -> Tensor:
        """Aggregate → combine: the order sampled blocks and serving use."""
        return self.combine(self.aggregate(graph, h, norm), h, norm)
