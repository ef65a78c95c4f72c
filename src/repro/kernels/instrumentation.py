"""Global aggregation-primitive timing.

Fig. 2 of the paper breaks per-epoch time into Total vs AP.  Every call
through :func:`repro.kernels.spmm.aggregate` (forward *and* the SpMM
backward, which is also an AP invocation) adds its wall time here; the
trainers snapshot the counter around each epoch.

The counter is mutated from kernel call sites on worker threads while
trainers (and a ``GET /metrics`` scrape) snapshot it concurrently, so the
accumulate/read pair is serialized under one lock.  When a request
trace is active on the calling thread, each AP invocation additionally
lands as a ``kernel.ap`` child span on the current request.
"""

from __future__ import annotations

import time
from typing import Tuple

from repro.analysis.sanitizers import make_lock
from repro.obs.trace import current_span


class APTimer:
    """Accumulated AP wall time and call count (thread-safe)."""

    def __init__(self) -> None:
        self._lock = make_lock("kernels.ap_timer")
        self.elapsed_s = 0.0  # guarded-by: _lock
        self.calls = 0  # guarded-by: _lock

    def add(self, seconds: float) -> None:
        with self._lock:
            self.elapsed_s += seconds
            self.calls += 1

    def reset(self) -> None:
        with self._lock:
            self.elapsed_s = 0.0
            self.calls = 0

    def snapshot(self) -> float:
        with self._lock:
            return self.elapsed_s

    def read(self) -> Tuple[float, int]:
        """One consistent ``(elapsed_s, calls)`` pair."""
        with self._lock:
            return self.elapsed_s, self.calls


AP_TIMER = APTimer()


class time_ap:
    """Context manager timing one AP invocation into :data:`AP_TIMER`."""

    __slots__ = ("_t0",)

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self._t0
        AP_TIMER.add(elapsed)
        span = current_span()
        if span is not None:
            span.child_complete("kernel.ap", elapsed, cat="kernel")
        return False
