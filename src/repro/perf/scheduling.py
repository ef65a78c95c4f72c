"""OpenMP thread-scheduling simulator.

The paper parallelizes the AP across destination vertices and observes
(Fig. 4) that *dynamic* scheduling matters for power-law graphs
(OGBN-Products) while being neutral for Reddit.  We reproduce this by
simulating the two OpenMP policies over the real per-destination work
distribution (in-degree × feature dim):

- **static**: destinations are pre-split into ``num_threads`` equal-count
  contiguous ranges; makespan = the heaviest range.
- **dynamic,chunk**: contiguous chunks are handed to the next idle thread
  (list-scheduling), which is exactly OpenMP ``schedule(dynamic, chunk)``.

The resulting *imbalance factor* (makespan ÷ ideal) feeds the single-socket
performance model used by the Fig. 4 benchmark.  Like the roofline it is
a hypothesis, not a decision input: :mod:`repro.kernels.engine` always
runs the dynamic work-queue (``docs/kernel-plan.md`` has it best at
every measured size).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
import numpy as np

from repro.graph.csr import CSRGraph


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of simulating one scheduling policy."""

    policy: str
    num_threads: int
    chunk: int
    makespan: float
    ideal: float

    @property
    def imbalance(self) -> float:
        """makespan / ideal; 1.0 = perfectly balanced."""
        return self.makespan / self.ideal if self.ideal > 0 else 1.0

def per_destination_work(graph: CSRGraph, feature_dim: int = 1) -> np.ndarray:
    """Work per destination row: in-degree × feature width (flop-ish units)."""
    return graph.in_degrees().astype(np.float64) * float(feature_dim)


def simulate_schedule(
    work: np.ndarray,
    num_threads: int,
    policy: str = "dynamic",
    chunk: int = 64,
) -> ScheduleResult:
    """Simulate an OpenMP ``schedule(policy, chunk)`` over per-item work.

    Parameters
    ----------
    work:
        Per-destination work array (e.g. from :func:`per_destination_work`).
    policy:
        ``"static"`` or ``"dynamic"``.
    chunk:
        Chunk size for the dynamic policy (the paper allocates "a chunk of
        contiguous destination vertices at a time").
    """
    work = np.asarray(work, dtype=np.float64)
    if num_threads < 1:
        raise ValueError("num_threads must be >= 1")
    total = float(work.sum())
    ideal = total / num_threads if total > 0 else 0.0
    if work.size == 0 or total == 0.0:
        return ScheduleResult(policy, num_threads, chunk, 0.0, 0.0)

    if policy == "static":
        # Slice-sum per range rather than reduceat: when num_threads >
        # work.size the equal-count split has duplicate (empty) ranges,
        # which reduceat mis-handles but an empty slice sums correctly.
        splits = np.linspace(0, work.size, num_threads + 1).astype(np.int64)
        loads = np.array(
            [work[splits[t] : splits[t + 1]].sum() for t in range(num_threads)]
        )
        makespan = float(loads.max())
    elif policy == "dynamic":
        chunk = max(int(chunk), 1)
        chunk_loads = np.add.reduceat(work, np.arange(0, work.size, chunk))
        # List scheduling: each chunk goes to the earliest-finishing thread.
        heap = [0.0] * num_threads
        heapq.heapify(heap)
        for load in chunk_loads:
            t = heapq.heappop(heap)
            heapq.heappush(heap, t + float(load))
        makespan = max(heap)
    else:
        raise ValueError(f"unknown policy {policy!r}; use 'static' or 'dynamic'")
    return ScheduleResult(policy, num_threads, chunk, makespan, ideal)
