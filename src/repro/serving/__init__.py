"""Online inference serving over trained checkpoints.

The serving tier turns a training checkpoint into a query-able
prediction service, exploiting the paper's full-batch economics: one
layer-wise whole-graph forward pass (the vectorized kernel engine in
eval mode) is cheap, so embeddings and logits are **precomputed** and a
request is a table lookup.

- :mod:`repro.serving.engine` — :class:`InferenceEngine`: checkpoint
  loading, layer-wise precompute, ``predict``/``topk`` lookups; also the
  repo's single full-graph inference path (:func:`full_graph_forward`).
- :mod:`repro.serving.refresh` — the one refresh path: every feature
  or edge update recomputes the rows of its k-hop affected set (an
  update that reaches every vertex runs the full pass).
- :mod:`repro.serving.server` — :class:`PredictionService` composition
  and the stdlib HTTP endpoint (``repro serve``); also
  :class:`ResultCache`, accepted and never consulted (a read is a table
  gather), for callers of the service's older signature.
- :mod:`repro.serving.frontend` — :class:`ServingFrontend`: an
  admission gate (bounded running and waiting calls, each on its
  caller's thread), per-endpoint deadlines (429/503 + ``Retry-After``
  load shedding).
- :mod:`repro.serving.metrics` — :class:`ServingMetrics`: per-endpoint
  outcome counters and latency quantiles behind ``GET /metrics``.
- :mod:`repro.serving.loadgen` — open-loop load generator (Poisson and
  bursty MMPP arrivals, seeded schedules, coordinated-omission-free
  latency accounting); drives ``repro loadgen`` and the serving bench.

One read path: a read is one gather from the published logits table,
with no lock.  Updates serialise on one lock and **publish** — they fill
a new logits table and assign it, never writing into one a reader can
hold — so a read returns the latest version published before it began,
or one published while it ran, and never waits.

Topology is not frozen either: ``update_edges(add, remove)`` on the
refresher/service (backed by :mod:`repro.dyngraph.serving_updates`)
applies streaming edge mutations through a delta-CSR shadow graph and
refreshes exactly as if the compacted graph had been fully precomputed;
the server exposes it as ``POST /update_edges``.
"""

from repro.dyngraph.serving_updates import EdgeUpdateStats
from repro.serving.engine import InferenceEngine, full_graph_forward
from repro.serving.frontend import (
    RequestRejected,
    RequestTimeout,
    ServingFrontend,
    ServingUnavailable,
)
from repro.serving.loadgen import (
    FrontendTarget,
    HttpTarget,
    LoadReport,
    ScheduledRequest,
    VirtualClock,
    build_schedule,
    bursty_arrivals,
    poisson_arrivals,
    run_open_loop,
)
from repro.serving.metrics import ServingMetrics, percentiles_ms
from repro.serving.refresh import (
    IncrementalRefresher,
    RefreshStats,
    affected_sets,
)
from repro.serving.server import PredictionServer, PredictionService, ResultCache

__all__ = [
    "InferenceEngine",
    "full_graph_forward",
    "IncrementalRefresher",
    "RefreshStats",
    "affected_sets",
    "ResultCache",
    "PredictionService",
    "PredictionServer",
    "EdgeUpdateStats",
    "ServingFrontend",
    "ServingUnavailable",
    "RequestRejected",
    "RequestTimeout",
    "ServingMetrics",
    "percentiles_ms",
    "FrontendTarget",
    "HttpTarget",
    "LoadReport",
    "ScheduledRequest",
    "VirtualClock",
    "build_schedule",
    "bursty_arrivals",
    "poisson_arrivals",
    "run_open_loop",
]
