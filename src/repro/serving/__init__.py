"""Online inference serving over trained checkpoints.

The serving tier turns a training checkpoint into a query-able
prediction service, exploiting the paper's full-batch economics: one
layer-wise whole-graph forward pass (the vectorized kernel engine in
eval mode) is cheap, so embeddings and logits are **precomputed** and a
request is a table lookup.

- :mod:`repro.serving.engine` — :class:`InferenceEngine`: checkpoint
  loading, layer-wise precompute, ``predict``/``topk`` lookups; also the
  repo's single full-graph inference path (:func:`full_graph_forward`).
- :mod:`repro.serving.refresh` — incremental recompute of the k-hop
  affected set after feature updates, with a sampler-backed on-demand
  fallback (:class:`OnDemandInference`) for large or deferred updates.
- :mod:`repro.serving.batcher` — :class:`MicroBatcher`: coalesces
  concurrent deferred-mode lookups into one on-demand call.
- :mod:`repro.serving.cache` — :class:`ResultCache`: measured-traffic
  LRU over deferred-mode result rows (the real counterpart of
  :mod:`repro.cachesim`).
- :mod:`repro.serving.server` — :class:`PredictionService` composition
  and the stdlib HTTP endpoint (``repro serve``).
- :mod:`repro.serving.frontend` — :class:`ServingFrontend`: bounded
  admission queue + worker pool, per-endpoint deadlines (429/503 +
  ``Retry-After`` load shedding).
- :mod:`repro.serving.metrics` — :class:`ServingMetrics`: per-endpoint
  outcome counters and latency quantiles behind ``GET /metrics``.
- :mod:`repro.serving.loadgen` — open-loop load generator (Poisson and
  bursty MMPP arrivals, seeded schedules, coordinated-omission-free
  latency accounting); drives ``repro loadgen`` and the serving bench.

Two read paths, fixed when the service is built.  In **table mode**
(every service whose refresher is not ``deferred``) a read is one
gather from the published logits table: no lock, cache or batcher.
Updates serialise on one lock and **publish** — they fill a new logits
table and assign it, never writing into one a reader can hold — so a
read returns the latest version published before it began, or one
published while it ran, and never waits.  In **deferred mode** the
cache and batcher front the on-demand path, whose inputs updates
rewrite in place, so its reads take the update lock.

Topology is not frozen either: ``update_edges(add, remove)`` on the
refresher/service (backed by :mod:`repro.dyngraph.serving_updates`)
applies streaming edge mutations through a delta-CSR shadow graph and
refreshes exactly as if the compacted graph had been fully precomputed;
the server exposes it as ``POST /update_edges``.
"""

from repro.dyngraph.serving_updates import EdgeUpdateStats
from repro.serving.batcher import MicroBatcher
from repro.serving.cache import ResultCache
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
    OnDemandInference,
    RefreshStats,
    affected_sets,
)
from repro.serving.server import PredictionServer, PredictionService

__all__ = [
    "InferenceEngine",
    "full_graph_forward",
    "IncrementalRefresher",
    "OnDemandInference",
    "RefreshStats",
    "affected_sets",
    "MicroBatcher",
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
