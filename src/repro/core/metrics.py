"""Training metrics and timers."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional


class Stopwatch:
    """Accumulating wall-clock timer with named phases."""

    def __init__(self) -> None:
        self.totals: Dict[str, float] = {}

    def time(self, phase: str):
        return _PhaseContext(self, phase)

    def timed(self, phase: str, steps: Generator) -> Generator:
        """Run the generator ``steps`` (``yield from`` this), charging
        ``phase`` for every stretch between its yields but never for the
        suspension at a yield — where the sim driver waits for the other
        ranks.  A blocking communicator waits *inside* the stretch, so
        on shm the phase still includes the barrier wait."""
        reply = None
        while True:
            t0 = time.perf_counter()
            try:
                point = steps.send(reply)
            except StopIteration as stop:
                return stop.value
            finally:
                self.add(phase, time.perf_counter() - t0)
            reply = yield point

    def add(self, phase: str, seconds: float) -> None:
        self.totals[phase] = self.totals.get(phase, 0.0) + seconds

    def get(self, phase: str) -> float:
        return self.totals.get(phase, 0.0)

class _PhaseContext:
    __slots__ = ("sw", "phase", "_t0")

    def __init__(self, sw: Stopwatch, phase: str):
        self.sw = sw
        self.phase = phase

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.sw.add(self.phase, time.perf_counter() - self._t0)
        return False


@dataclass
class EpochStats:
    """One epoch's measurements."""

    epoch: int
    loss: float
    total_time_s: float
    ap_time_s: float = 0.0
    local_agg_time_s: float = 0.0
    remote_agg_time_s: float = 0.0
    comm_bytes: int = 0
    train_acc: Optional[float] = None
    val_acc: Optional[float] = None
    test_acc: Optional[float] = None


@dataclass
class TrainResult:
    """Outcome of one training run."""

    epochs: List[EpochStats] = field(default_factory=list)
    final_test_acc: Optional[float] = None
    best_val_acc: Optional[float] = None

    @property
    def avg_epoch_time_s(self) -> float:
        """Average per-epoch time, skipping the first (warm-up) epoch —
        the paper averages epochs 1-10 for 0c/cd-0."""
        times = [e.total_time_s for e in self.epochs[1:]] or [
            e.total_time_s for e in self.epochs
        ]
        return sum(times) / len(times) if times else 0.0

    @property
    def avg_ap_time_s(self) -> float:
        times = [e.ap_time_s for e in self.epochs[1:]] or [
            e.ap_time_s for e in self.epochs
        ]
        return sum(times) / len(times) if times else 0.0

    @property
    def final_loss(self) -> float:
        return self.epochs[-1].loss if self.epochs else float("nan")

    def loss_curve(self) -> List[float]:
        return [e.loss for e in self.epochs]
