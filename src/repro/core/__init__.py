"""DistGNN core: training loops and the DRPA distributed algorithms.

- :mod:`repro.core.config` — training configuration (paper hyper-params).
- :mod:`repro.core.metrics` — epoch statistics, timers, results.
- :mod:`repro.core.models` — the model and optimizer factories every
  trainer builds through.
- :mod:`repro.core.trainer` — single-socket full-batch trainer (the
  paper's optimized baseline of Fig. 2), plus the epoch / periodic-eval
  loop and split-accuracy helper the other trainers share.
- :mod:`repro.core.drpa` — the Delayed Remote Partial Aggregates state
  machine (paper Alg. 4): one rank's gather / async send / scatter-reduce
  / scatter plumbing over the split-vertex trees, with one synchronous
  and one delayed round.
- :mod:`repro.core.algorithms` — the three communication regimes ``0c``,
  ``cd-0``, ``cd-r`` as strategy objects configuring DRPA.
- :mod:`repro.core.sync` — one rank's side of the gradient AllReduce.
- :mod:`repro.core.dist_trainer` — the data-parallel trainer: the rank
  program (one rank's epoch and evaluation with per-layer DRPA
  synchronization and AllReduce parameter sync, written once against a
  communicator) and the ``DistributedTrainer`` that drives ``P`` copies
  of it on the sim world.
- :mod:`repro.core.spmd` — runs the same rank program as one worker
  process per rank over the multi-process shared-memory backend
  (``backend="shm"``), for measured wall-clock scaling.
- :mod:`repro.core.checkpoint` — self-describing ``.npz`` checkpoints
  (weights, optimizer slots, epoch cursor, architecture metadata) used
  by ``repro train --resume`` and the serving tier.
"""

from repro.core.algorithms import AlgorithmSpec, get_algorithm
from repro.core.checkpoint import load_checkpoint, peek_checkpoint, save_checkpoint
from repro.core.config import TrainConfig
from repro.core.dist_trainer import DistributedTrainer, DistTrainResult
from repro.core.metrics import EpochStats, TrainResult
from repro.core.trainer import Trainer

__all__ = [
    "TrainConfig",
    "Trainer",
    "DistributedTrainer",
    "TrainResult",
    "DistTrainResult",
    "EpochStats",
    "AlgorithmSpec",
    "get_algorithm",
    "save_checkpoint",
    "load_checkpoint",
    "peek_checkpoint",
]
