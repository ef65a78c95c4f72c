"""Training configuration.

Defaults follow the paper's protocol (Section 6.1 and Table 5): GCN
aggregator, weight decay 5e-4, lr per dataset/socket-count, delay r=5
for cd-r, and the per-dataset layer shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class TrainConfig:
    """Hyper-parameters of one training run."""

    num_layers: int = 3
    hidden_features: int = 256
    learning_rate: float = 0.01
    weight_decay: float = 5e-4
    num_epochs: int = 200
    optimizer: str = "adam"  # "adam" | "sgd"
    momentum: float = 0.9  # sgd only
    dropout: float = 0.0
    seed: int = 0
    #: GNN architecture: "sage" (paper default) or "gcn".
    model: str = "sage"
    #: aggregation kernel passed to the differentiable SpMM: ``"auto"``,
    #: the engine (its pass plan follows from the operator, the graph
    #: size and ``num_threads`` — kernels/engine.py), or one of the two
    #: ground-truth functions in :data:`repro.kernels.KERNELS`,
    #: ``baseline`` (Fig. 2's arm) / ``reference``.  Validated at model
    #: build time.
    kernel: str = "auto"
    #: kernel worker threads: > 1 routes every AP (forward and backward)
    #: over disjoint destination-row chunks on the engine's thread pool
    #: (bit-identical outputs — see kernels/engine.py).  ``None``
    #: defers to the REPRO_NUM_THREADS environment variable, else 1.
    num_threads: Optional[int] = None
    #: cd-r delay (epochs); the paper uses r=5.
    delay: int = 5
    #: evaluate accuracy every k epochs (0 = only at the end).
    eval_every: int = 10
    #: wire precision of DRPA aggregate payloads: "none" | "fp16" | "bf16"
    #: (the paper's future-work communication-volume optimization).
    compression: str = "none"
    #: distributed execution backend: "sim" (all ranks stepped in one
    #: process, deterministic, models communication) or "shm" (one OS
    #: process per rank over shared-memory mailboxes, measures wall-clock
    #: scaling).  Both run the same rank program and produce identical
    #: losses/parameters/counters — see docs/ARCHITECTURE.md
    #: § "Execution backends".
    backend: str = "sim"
    #: shm backend only: barrier/mailbox wait timeout.  A deadlocked
    #: exchange fails fast with an error instead of hanging the run.
    shm_timeout_s: float = 120.0

    def for_dataset(self, dataset_name: str) -> "TrainConfig":
        """Apply the paper's per-dataset model shape (Section 6.1)."""
        cfg = TrainConfig(**vars(self))
        if dataset_name.lower() == "reddit":
            cfg.num_layers = 2
            cfg.hidden_features = 16
        else:
            cfg.num_layers = 3
            cfg.hidden_features = 256
        return cfg


#: Learning rates of paper Table 5, keyed by (dataset, num_sockets).
