"""Observability: request tracing + the unified telemetry registry.

- :mod:`repro.obs.trace` — :class:`Span`/:class:`Tracer` with explicit
  context propagation across pool boundaries, head-based sampling
  (``REPRO_TRACE=1``, ``REPRO_TRACE_SAMPLE``), a bounded span ring, and
  Chrome trace-event / JSONL export (``repro trace``, ``GET /trace``).
- :mod:`repro.obs.registry` — one :class:`Registry` absorbing the
  serving, tracer, feature-store, kernel-timer, and comm-world
  counters under consistent ``repro_*`` names, rendered as Prometheus
  text exposition (``GET /metrics?format=prom``) or JSON from a single
  ``collect()`` pass.

See docs/ARCHITECTURE.md §9 for the span model, component accounting,
and sampling/overhead guidance.
"""

from repro.obs.registry import (
    Metric,
    Registry,
    comm_metrics,
    parse_prometheus,
    register_comm_world,
    render_prometheus,
    serving_registry,
    to_json,
    unregister_comm_world,
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
    to_jsonl,
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
    "to_jsonl",
    "validate_chrome_trace",
    "Metric",
    "Registry",
    "comm_metrics",
    "parse_prometheus",
    "register_comm_world",
    "render_prometheus",
    "serving_registry",
    "to_json",
    "unregister_comm_world",
]
