"""GraphSAGE with the paper's GCN aggregation operator.

Paper Section 6.1: "we employed GCN aggregation operator where (i) ⊕ is
element-wise sum and (ii) as a post-processing step, it adds the
aggregated and original features of each vertex and normalizes that sum
with respect to the in-degree of the vertex".  Per layer:

    z   = A @ h                          (aggregation primitive)
    out = act( ((z + h) * 1/(deg + 1)) @ W + b )

Each layer is three steps (:class:`~repro.nn.layers.GraphConv`):
``project`` (``h @ W`` when ``out_features < in_features``, else ``h``),
``aggregate`` (a pure AP over what it is handed) and ``combine`` (which
applies ``W`` only to rows that still have the input width) — since
``((A h + h) * norm) @ W == (A (h W) + h W) * norm``, the AP runs on the
narrower side of ``W``.  The full-graph training stacks
(:class:`GraphSAGE`, ``GCN``, ``core.RankProgram``) call ``project`` for
every layer after the first; layer 0 (memoised by ``nn.InputAggregate``),
sampled blocks and serving stay aggregate → combine.  The single-socket
path runs the steps back to back; the distributed trainer inserts the
DRPA split-vertex synchronization between aggregate and combine — exactly
the point where DistGNN's remote partial aggregates enter, at the
layer's narrower width.

Model shapes follow the paper: 2 layers / 16 hidden for Reddit, 3 layers
/ 256 hidden for the other datasets.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.nn import functional as F
from repro.nn.layers import GraphConv
from repro.nn.module import Module
from repro.nn.tensor import Tensor


class SageConvGCN(GraphConv):
    """One GraphSAGE-GCN layer (aggregate -> add self -> normalize -> MLP)."""

    def aggregate(
        self, graph: CSRGraph, h: Tensor, norm: Optional[Tensor] = None
    ) -> Tensor:
        """The AP: pull-sum neighbour features (paper Alg. 1 with
        copylhs/sum).  ``norm`` is accepted for layer-API uniformity with
        :class:`~repro.nn.gcn.GCNConv` (whose scaling precedes the AP)
        and ignored here — GraphSAGE normalizes in :meth:`combine`.
        """
        return F.spmm(graph, h, kernel=self.kernel, num_threads=self.num_threads)


class GraphSAGE(Module):
    """Multi-layer GraphSAGE-GCN for full-batch vertex classification."""

    def __init__(
        self,
        in_features: int,
        hidden_features: int,
        num_classes: int,
        num_layers: int = 3,
        seed: int = 0,
        kernel: str = "auto",
        num_threads: Optional[int] = None,
    ):
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        rng = np.random.default_rng(seed)
        dims = (
            [in_features]
            + [hidden_features] * (num_layers - 1)
            + [num_classes]
        )
        self.layers: List[SageConvGCN] = []
        for i in range(num_layers):
            layer = SageConvGCN(
                dims[i],
                dims[i + 1],
                activation=(i < num_layers - 1),
                rng=rng,
                kernel=kernel,
                num_threads=num_threads,
            )
            self.register_module(f"layer{i}", layer)
            self.layers.append(layer)
        self.num_layers = num_layers

    #: set by an owner of fixed (graph, features, norm): ``nn.InputAggregate``
    input_aggregate = None

    def __call__(self, graph: CSRGraph, features: Tensor, norm: Tensor) -> Tensor:
        """Full forward pass (single-socket path)."""
        h = features
        first = self.input_aggregate or self.layers[0].aggregate
        for i, layer in enumerate(self.layers):
            x = layer.project(h) if i else h
            z = (layer.aggregate if i else first)(graph, x, norm)
            h = layer.combine(z, x, norm)
        return h
