"""Vanilla GCN (Kipf & Welling) on the same aggregation substrate.

Part of the paper's future work ("extend DistGNN to different GNN models,
beyond GraphSAGE").  A GCN layer is

    h' = act( (D^-1/2 (A + I) D^-1/2 h) @ W + b )

which lowers to the identical copylhs/sum aggregation primitive with a
symmetric pre/post degree normalization — demonstrating that the DistGNN
kernel and DRPA machinery are model-agnostic.  Same three steps as
:mod:`repro.nn.sage` (``project`` / ``aggregate`` / ``combine``, and the
same callers of ``project``): both scalings are row scalings, so they
commute with ``W`` too.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.nn import functional as F
from repro.nn.layers import GraphConv
from repro.nn.module import Module
from repro.nn.tensor import Tensor


class GCNConv(GraphConv):
    """One GCN layer with implicit self loops."""

    def aggregate(self, graph: CSRGraph, h: Tensor, sym_norm: Tensor) -> Tensor:
        """The AP over pre-scaled features: ``z = A @ (h * D^-1/2)``.

        Exposed separately (like :class:`~repro.nn.sage.SageConvGCN`) so
        the distributed trainer can insert the DRPA split-vertex sync on
        the partial aggregates — partials of the *scaled* features sum
        across partitions exactly like GraphSAGE's.
        """
        scaled = F.mul(h, sym_norm)
        return F.spmm(graph, scaled, num_threads=self.num_threads)

    def combine(self, z: Tensor, h: Tensor, sym_norm: Tensor) -> Tensor:
        """Post-processing: ``act(((z + h * D^-1/2) * D^-1/2) @ W + b)``
        (D^-1/2 on the way in, aggregate (+ self), D^-1/2 on the way out)."""
        return super().combine(z, F.mul(h, sym_norm), sym_norm)


class GCN(Module):
    """Stacked GCN for full-batch vertex classification."""

    def __init__(
        self,
        in_features: int,
        hidden_features: int,
        num_classes: int,
        num_layers: int = 2,
        seed: int = 0,
        num_threads: Optional[int] = None,
    ):
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        rng = np.random.default_rng(seed)
        dims = [in_features] + [hidden_features] * (num_layers - 1) + [num_classes]
        self.layers: List[GCNConv] = []
        for i in range(num_layers):
            layer = GCNConv(
                dims[i],
                dims[i + 1],
                activation=(i < num_layers - 1),
                rng=rng,
                num_threads=num_threads,
            )
            self.register_module(f"layer{i}", layer)
            self.layers.append(layer)

    input_aggregate = None  # as GraphSAGE.input_aggregate

    def __call__(self, graph: CSRGraph, features: Tensor, sym_norm: Tensor) -> Tensor:
        h = features
        first = self.input_aggregate or self.layers[0].aggregate
        for i, layer in enumerate(self.layers):
            x = layer.project(h) if i else h
            z = (layer.aggregate if i else first)(graph, x, sym_norm)
            h = layer.combine(z, x, sym_norm)
        return h
