"""Model and optimizer factories shared by the trainers.

Both supported full-batch architectures expose the same two-phase layer
API (``aggregate`` / ``combine``), so the single-socket and distributed
trainers are model-agnostic:

- ``sage`` — GraphSAGE with the paper's GCN aggregation operator
  (normalizer ``1/(deg+1)`` applied in combine);
- ``gcn``  — vanilla GCN (symmetric ``1/sqrt(deg+1)`` applied around the
  aggregation).
"""

from __future__ import annotations

import numpy as np

from repro.core.config import TrainConfig
from repro.nn.gcn import GCN
from repro.nn.optim import SGD, Adam
from repro.nn.sage import GraphSAGE
from repro.nn.tensor import Tensor

MODEL_NAMES = ("sage", "gcn")


def build_model(cfg: TrainConfig, feature_dim: int, num_classes: int):
    """Instantiate the configured architecture with replica-deterministic
    initialization."""
    name = cfg.model.lower()
    if name == "sage":
        return GraphSAGE(
            in_features=feature_dim,
            hidden_features=cfg.hidden_features,
            num_classes=num_classes,
            num_layers=cfg.num_layers,
            dropout=cfg.dropout,
            seed=cfg.seed,
            kernel=cfg.kernel,
            num_threads=cfg.num_threads,
        )
    if name == "gcn":
        return GCN(
            in_features=feature_dim,
            hidden_features=cfg.hidden_features,
            num_classes=num_classes,
            num_layers=cfg.num_layers,
            seed=cfg.seed,
            kernel=cfg.kernel,
            num_threads=cfg.num_threads,
        )
    raise ValueError(f"unknown model {cfg.model!r}; available: {MODEL_NAMES}")


def make_optimizer(model, cfg: TrainConfig):
    """The configured optimizer over ``model``'s parameters."""
    if cfg.optimizer == "adam":
        return Adam(
            model.parameters(), lr=cfg.learning_rate, weight_decay=cfg.weight_decay
        )
    if cfg.optimizer == "sgd":
        return SGD(
            model.parameters(),
            lr=cfg.learning_rate,
            momentum=cfg.momentum,
            weight_decay=cfg.weight_decay,
        )
    raise ValueError(f"unknown optimizer {cfg.optimizer!r}")


def norm_from_degrees(model_name: str, degrees: np.ndarray) -> Tensor:
    """The architecture's degree normalizer as a constant column tensor.

    Distributed ranks pass *global* degrees here so every clone of a split
    vertex scales identically (required for cd-0 exactness).
    """
    deg = np.asarray(degrees, dtype=np.float32)
    name = model_name.lower()
    if name == "sage":
        vals = 1.0 / (deg + 1.0)
    elif name == "gcn":
        vals = 1.0 / np.sqrt(deg + 1.0)
    else:
        raise ValueError(f"unknown model {model_name!r}; available: {MODEL_NAMES}")
    return Tensor(vals.reshape(-1, 1))
