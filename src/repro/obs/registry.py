"""Telemetry exposition: one scrape, two formats.

The counters live where they are counted — ``ServingMetrics`` (the
request ledger: outcome counters, latencies and the latency
decomposition), ``FeatureStore.stats()``, ``AP_TIMER``, the tracer's
ring.  :func:`collect` reads them at scrape time
(nothing is maintained on the hot path for it) and returns one sorted
list of :class:`Metric` families:

- **naming** is consistent ``repro_*`` with Prometheus conventions
  (``_total`` suffix on monotone counters, base units in the name);
- **exposition** renders the families as Prometheus text
  (:func:`render_prometheus`, served at ``GET /metrics?format=prom``),
  and :func:`parse_prometheus` reads that text back.

The ``GET /metrics`` JSON body is *not* rerouted through here: it stays
``ServingFrontend.metrics_snapshot()`` bit-for-bit, and :func:`collect`
reads that same snapshot.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: Prometheus metric kinds this module emits.
KINDS = ("counter", "gauge")


@dataclass
class Metric:
    """One metric family: a name/kind/help plus labeled samples."""

    name: str
    kind: str
    help: str
    samples: List[Tuple[Dict[str, str], float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown metric kind {self.kind!r} (one of {KINDS})")
        if not self.name.startswith("repro_"):
            raise ValueError(f"metric {self.name!r} must use the repro_* namespace")

    def add(self, value, **labels) -> "Metric":
        self.samples.append(
            ({k: str(v) for k, v in sorted(labels.items())}, float(value))
        )
        return self


def collect(frontend) -> List[Metric]:
    """Every family a serving process exports, sorted by name: the
    frontend's request counters and gauges, the kernel AP timer, and
    the frontend's latency decomposition and trace ring."""
    families = _serving_metrics(frontend) + _ap_metrics() + _trace_metrics(frontend)
    return sorted(families, key=lambda m: m.name)


# -- exposition ---------------------------------------------------------------


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_prometheus(metrics: List[Metric]) -> str:
    """Prometheus text exposition (format 0.0.4) of collected families."""
    lines: List[str] = []
    for m in metrics:
        lines.append(f"# HELP {m.name} {m.help}")
        lines.append(f"# TYPE {m.name} {m.kind}")
        for labels, value in m.samples:
            if labels:
                body = ",".join(
                    f'{k}="{_escape_label(v)}"' for k, v in sorted(labels.items())
                )
                lines.append(f"{m.name}{{{body}}} {_format_value(value)}")
            else:
                lines.append(f"{m.name} {_format_value(value)}")
    return "\n".join(lines) + "\n"


#: one ``name="value"`` pair of a label body (a value may hold any
#: escaped character, ``,`` and ``}`` included), and one escape in a value
_LABEL = re.compile(r'\s*,?\s*([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')
_ESCAPE = re.compile(r"\\(.)")


def parse_prometheus(text: str) -> Dict[str, Dict[Tuple[Tuple[str, str], ...], float]]:
    """Parse exposition text back to ``{family: {labels: value}}``, label
    values unescaped — used by the agreement tests and the CI
    conservation gate, so the renderer cannot drift from what a scraper
    would read."""
    out: Dict[str, Dict[Tuple[Tuple[str, str], ...], float]] = {}
    for line in text.split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, brace, rest = line.partition("{")
        if brace:
            labels, pos = [], 0
            while (match := _LABEL.match(rest, pos)) is not None:
                value = _ESCAPE.sub(lambda m: "\n" if m[1] == "n" else m[1], match[2])
                labels.append((match[1], value))
                pos = match.end()
            key, value_part = tuple(sorted(labels)), rest[rest.index("}", pos) + 1:]
        else:
            name, _, value_part = line.rpartition(" ")
            key = ()
        out.setdefault(name, {})[key] = float(value_part)
    return out


# -- subsystem collectors -----------------------------------------------------


def _serving_metrics(frontend) -> List[Metric]:
    """``ServingMetrics`` snapshot + frontend gauges as repro_* families.

    Reads the *same* ``metrics_snapshot()`` the JSON ``GET /metrics``
    body serves, so the two views cannot disagree on a counter.
    """
    from repro.serving.metrics import OUTCOMES

    snap = frontend.metrics_snapshot()
    requests = Metric(
        "repro_requests_total", "counter",
        "Finished requests by endpoint and outcome",
    )
    latency = Metric(
        "repro_request_latency_ms", "gauge",
        "Served (ok) request latency quantiles per endpoint",
    )
    for endpoint, ep in sorted(snap["endpoints"].items()):
        for outcome in OUTCOMES:
            requests.add(ep[outcome], endpoint=endpoint, outcome=outcome)
        for key in ("p50_ms", "p99_ms"):
            if key in ep:
                latency.add(ep[key], endpoint=endpoint, quantile=key[:-3])
        if ep.get("ok"):
            latency.add(ep["mean_ms"], endpoint=endpoint, quantile="mean")
    out = [
        requests,
        latency,
        Metric("repro_queue_depth", "gauge", "Admitted requests waiting at the admission gate")
        .add(snap["queue_depth"]),
        Metric("repro_in_flight", "gauge", "Requests running behind the admission gate")
        .add(snap["in_flight"]),
        Metric("repro_queue_capacity", "gauge", "Admission queue bound")
        .add(snap["max_queue"]),
        Metric("repro_workers", "gauge", "Admission gate bound on running requests")
        .add(snap["num_workers"]),
    ]
    fs = snap.get("feature_store")
    if fs is not None:
        out.append(
            Metric(
                "repro_feature_store_cold_rows_read_total", "counter",
                "Feature rows gathered from the store",
            ).add(fs["cold_rows_read"], tier=fs["tier"])
        )
        out.append(
            Metric(
                "repro_feature_store_updates_total", "counter",
                "Feature row update batches applied",
            ).add(fs["num_updates"], tier=fs["tier"])
        )
        out.append(
            Metric(
                "repro_feature_store_bytes_mapped", "gauge",
                "Bytes served through the zero-copy mmap view",
            ).add(fs["bytes_mapped"], tier=fs["tier"])
        )
    return out


def _ap_metrics() -> List[Metric]:
    """Kernel aggregation-primitive wall time (``AP_TIMER``)."""
    # lazy: kernels.instrumentation imports repro.obs.trace, so a
    # module-level import here would be circular during package init
    from repro.kernels.instrumentation import AP_TIMER

    elapsed_s, calls = AP_TIMER.read()
    return [
        Metric(
            "repro_ap_seconds_total", "counter",
            "Accumulated aggregation-primitive wall time",
        ).add(elapsed_s),
        Metric(
            "repro_ap_calls_total", "counter",
            "Aggregation-primitive invocations",
        ).add(calls),
    ]


def _trace_metrics(frontend) -> List[Metric]:
    """Per-endpoint latency-component totals from the frontend's ledger
    + its tracer's ring health."""
    comp_total = Metric(
        "repro_request_component_seconds_total", "counter",
        "Accumulated latency-component seconds (traced ok requests)",
    )
    comp_count = Metric(
        "repro_request_component_samples_total", "counter",
        "Latency-component observations (traced ok requests)",
    )
    for endpoint, ep in frontend.metrics.decomposition().items():
        for name, agg in {"e2e": ep["e2e"], **ep["components"]}.items():
            comp_total.add(agg["total_s"], endpoint=endpoint, component=name)
            comp_count.add(agg["count"], endpoint=endpoint, component=name)
    st = frontend.tracer.stats()
    return [
        Metric(
            "repro_trace_finished_spans_total", "counter",
            "Spans pushed into the trace ring",
        ).add(st["finished"]),
        Metric(
            "repro_trace_dropped_spans_total", "counter",
            "Spans overwritten by ring wraparound",
        ).add(st["dropped"]),
        Metric(
            "repro_trace_buffered_spans", "gauge",
            "Spans currently buffered in the ring",
        ).add(st["buffered"]),
        comp_total,
        comp_count,
    ]
