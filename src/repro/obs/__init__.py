"""Observability: request tracing + telemetry exposition.

- :mod:`repro.obs.trace` — :class:`Span`/:class:`Tracer` with explicit
  context propagation across pool boundaries, one switch
  (``REPRO_TRACE=1`` traces every request), a bounded span ring, and
  Chrome trace-event export (``GET /trace``, ``repro trace --url``).
  The tracer keeps only spans: a closed root span hands its component
  seconds to ``ServingMetrics``, the one per-endpoint request ledger,
  which holds the latency decomposition.
- :mod:`repro.obs.registry` — :func:`collect` reads the serving ledger,
  trace-ring, feature-store and kernel-timer counters at scrape time as
  ``repro_*`` families, rendered as Prometheus text exposition
  (``GET /metrics?format=prom``).

See docs/ARCHITECTURE.md §9 for the span model and component
accounting.
"""

from repro.obs.registry import (
    Metric,
    collect,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.trace import (
    COMPONENTS,
    Span,
    Tracer,
    activate,
    chrome_trace,
    current_span,
    get_tracer,
    set_tracer,
    validate_chrome_trace,
)

__all__ = [
    "COMPONENTS",
    "Span",
    "Tracer",
    "activate",
    "chrome_trace",
    "current_span",
    "get_tracer",
    "set_tracer",
    "validate_chrome_trace",
    "Metric",
    "collect",
    "parse_prometheus",
    "render_prometheus",
]
