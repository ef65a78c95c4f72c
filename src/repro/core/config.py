"""Training configuration.

Defaults follow the paper's protocol (Section 6.1 and Table 5): GCN
aggregator, lr per dataset/socket-count and the per-dataset layer
shapes.  The rest of the protocol is fixed, not configured: Adam with
weight decay 5e-4 (``core.models.make_optimizer``), no dropout, and the
cd-r delay named by the algorithm (``"cd-5"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class TrainConfig:
    """Hyper-parameters of one training run."""

    num_layers: int = 3
    hidden_features: int = 256
    learning_rate: float = 0.01
    num_epochs: int = 200
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
