"""Neural-network substrate: NumPy reverse-mode autograd + GNN models.

The paper trains GraphSAGE (and a heterogeneous R-GCN for the AM dataset)
through PyTorch; this package replaces that dependency with a small,
self-contained autograd engine whose differentiable SpMM routes gradients
along the transposed adjacency — the exact dataflow DGL registers for its
aggregation primitive.

- :mod:`repro.nn.tensor` — the autograd :class:`Tensor` and tape.
- :mod:`repro.nn.functional` — differentiable ops (matmul, spmm, relu,
  log_softmax, ...).
- :mod:`repro.nn.module` / :mod:`repro.nn.layers` — module system, Linear,
  the two-phase GraphConv.
- :mod:`repro.nn.sage` — GraphSAGE with the paper's GCN aggregator.
- :mod:`repro.nn.rgcn` — relational GCN for the heterogeneous AM workload.
- :mod:`repro.nn.loss` — masked cross-entropy.
- :mod:`repro.nn.optim` — Adam, the paper's optimizer.
- :mod:`repro.nn.init` — the Xavier initializer.
"""

from repro.nn import functional
from repro.nn.gcn import GCN, GCNConv
from repro.nn.init import xavier_uniform
from repro.nn.layers import Linear
from repro.nn.loss import accuracy, masked_cross_entropy
from repro.nn.module import InputAggregate, Module, Parameter
from repro.nn.optim import Adam
from repro.nn.rgcn import RGCN, RelGraphConv
from repro.nn.sage import GraphSAGE, SageConvGCN
from repro.nn.tensor import Tensor, no_grad

__all__ = [
    "Tensor",
    "no_grad",
    "functional",
    "Module",
    "Parameter",
    "InputAggregate",
    "Linear",
    "GraphSAGE",
    "SageConvGCN",
    "RGCN",
    "RelGraphConv",
    "GCN",
    "GCNConv",
    "masked_cross_entropy",
    "accuracy",
    "Adam",
    "xavier_uniform",
]
