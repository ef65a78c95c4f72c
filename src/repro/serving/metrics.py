"""Measured request-path metrics for the serving front end.

:class:`ServingMetrics` is the server-side half of the open-loop load
story: a load generator measures latency from the *client* side, and
these counters must agree with it — ``tests/serving/test_serving_metrics.py``
cross-checks a seeded run of the tests' generator (``tests/serving/harness.py``).

Per endpoint (``predict`` / ``topk`` / ``update_edges`` / ...) the
recorder keeps monotone outcome counters plus a bounded window of
completed-request latencies for the quantiles; gauges (queue depth,
in-flight count) come from the front end at snapshot time.  All
counters share one lock, so a snapshot is internally consistent:
``requests == ok + errors + bad_request + timeouts + rejected_queue_full``
holds at every instant.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional

import numpy as np

from repro.analysis.sanitizers import make_lock

#: served latencies kept per endpoint for the quantiles (a bounded window)
LATENCY_WINDOW = 8192

#: every request lands in exactly one outcome bucket.
OUTCOMES = (
    "ok",                    # 200: computed and answered
    "bad_request",           # 400: malformed ids / payload
    "rejected_queue_full",   # 429: admission queue at capacity
    "timeout",               # 503: missed its per-request deadline
    "error",                 # 500: engine/internal failure
)


def percentiles_ms(latencies_s, qs=(50.0, 99.0)) -> Dict[str, float]:
    """``{"p50_ms": ..., "p99_ms": ...}`` via linear interpolation — the
    same estimator the load harness uses, so the two sides of the
    metrics cross-check cannot disagree on method.

    An empty window returns ``{}`` (the keys are *omitted*): reporting
    ``0.0`` made "no served requests yet" indistinguishable from a real
    0 ms quantile, which is exactly the wrong signal while the system is
    shedding everything.  Consumers read via ``.get``.
    """
    lat = np.asarray(list(latencies_s), dtype=np.float64)
    if lat.size == 0:
        return {}
    lat = lat * 1e3
    return {f"p{q:g}_ms": float(np.percentile(lat, q)) for q in qs}


class _EndpointMetrics:
    __slots__ = ("counts", "latencies", "latency_sum_s", "latency_count")

    def __init__(self):
        self.counts = {outcome: 0 for outcome in OUTCOMES}
        #: bounded sample window of *served* (ok) request latencies.
        self.latencies = deque(maxlen=LATENCY_WINDOW)
        self.latency_sum_s = 0.0
        self.latency_count = 0


class ServingMetrics:
    """Thread-safe per-endpoint outcome counters + latency quantiles."""

    def __init__(self):
        self._lock = make_lock("serving.metrics")
        self._endpoints: Dict[str, _EndpointMetrics] = {}  # guarded-by: _lock

    def _endpoint(self, name: str) -> _EndpointMetrics:  # requires-lock: _lock
        ep = self._endpoints.get(name)
        if ep is None:
            ep = self._endpoints[name] = _EndpointMetrics()
        return ep

    def record(self, endpoint: str, outcome: str, latency_s: Optional[float] = None):
        """Count one finished request; ``latency_s`` feeds the quantile
        window only for served (``ok``) requests — rejections answer in
        microseconds and would drag the percentiles of *served* latency
        down exactly when the system is saturated."""
        if outcome not in OUTCOMES:
            raise ValueError(f"unknown outcome {outcome!r} (one of {OUTCOMES})")
        with self._lock:
            ep = self._endpoint(endpoint)
            ep.counts[outcome] += 1
            if outcome == "ok" and latency_s is not None:
                ep.latencies.append(float(latency_s))
                ep.latency_sum_s += float(latency_s)
                ep.latency_count += 1

    # -- snapshot -----------------------------------------------------------------

    def snapshot(self, **gauges) -> dict:
        """One consistent JSON-safe view; ``gauges`` (queue depth,
        in-flight, ...) are merged in at the top level."""
        with self._lock:
            endpoints = {}
            totals = {outcome: 0 for outcome in OUTCOMES}
            total_requests = 0
            for name, ep in sorted(self._endpoints.items()):
                requests = sum(ep.counts.values())
                total_requests += requests
                for outcome, n in ep.counts.items():
                    totals[outcome] += n
                mean_ms = (
                    1e3 * ep.latency_sum_s / ep.latency_count
                    if ep.latency_count
                    else 0.0
                )
                endpoints[name] = {
                    "requests": requests,
                    **ep.counts,
                    "mean_ms": mean_ms,
                    **percentiles_ms(ep.latencies),
                }
        return {
            "endpoints": endpoints,
            # updates publish instead of draining: the two drain counters
            # stay on the wire at 0 for readers of the older schema
            "totals": {"requests": total_requests, **totals, "rejected_draining": 0},
            "num_drains": 0,
            "latency_window": LATENCY_WINDOW,
            **gauges,
        }
