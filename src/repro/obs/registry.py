"""Unified telemetry registry: one snapshot, two exposition formats.

Telemetry used to be island snapshots — ``ServingMetrics`` outcome
counters, ``FeatureStore.stats()``, ``AP_TIMER``, per-world
``CommCounters``.
:class:`Registry` absorbs them behind one ``collect()``:

- **collectors** are named callables returning :class:`Metric`
  families; they run *outside* the registry lock (they take their own
  subsystem locks — serializing them under ours would add lock-order
  edges for nothing);
- **naming** is consistent ``repro_*`` with Prometheus conventions
  (``_total`` suffix on monotone counters, base units in the name);
- **exposition** renders the same collected families as Prometheus
  text (:func:`render_prometheus`, served at ``GET
  /metrics?format=prom``) or JSON (:func:`to_json`) — both views are
  derived from one ``collect()`` pass, so they agree counter-for-
  counter by construction (and a CI invariant re-checks it anyway).

The existing ``GET /metrics`` JSON body is *not* rerouted through the
registry: it stays ``ServingFrontend.metrics_snapshot()`` bit-for-bit;
the registry's serving collector reads that same snapshot.

Communication counters (the satellite that was only reachable from
benchmark code): worlds self-register via :func:`register_comm_world`
— a weakref, pruned automatically, so short-lived test worlds cannot
leak — and every registry built with ``include_comm=True`` exposes
per-rank ``repro_comm_*`` series for all live worlds.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.analysis.sanitizers import make_lock

#: Prometheus metric kinds this registry emits.
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


class Registry:
    """Named collectors -> one consistent, sorted family list."""

    def __init__(self):
        self._lock = make_lock("obs.registry")
        self._collectors: Dict[str, Callable[[], List[Metric]]] = {}  # guarded-by: _lock

    def register(self, name: str, collector: Callable[[], List[Metric]]) -> None:
        with self._lock:
            if name in self._collectors:
                raise ValueError(f"collector {name!r} already registered")
            self._collectors[name] = collector

    def unregister(self, name: str) -> None:
        with self._lock:
            self._collectors.pop(name, None)

    def collector_names(self) -> List[str]:
        with self._lock:
            return sorted(self._collectors)

    def collect(self) -> List[Metric]:
        """Run every collector (outside the registry lock) and return
        the families sorted by name; duplicate family names are a
        programming error and fail loudly."""
        with self._lock:
            collectors = sorted(self._collectors.items())
        seen: Dict[str, str] = {}
        out: List[Metric] = []
        for cname, collector in collectors:
            for metric in collector():
                if metric.name in seen:
                    raise ValueError(
                        f"metric family {metric.name!r} emitted by both "
                        f"{seen[metric.name]!r} and {cname!r}"
                    )
                seen[metric.name] = cname
                out.append(metric)
        out.sort(key=lambda m: m.name)
        return out


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


def to_json(metrics: List[Metric]) -> dict:
    """The same families as a JSON object (name -> kind/help/samples)."""
    return {
        m.name: {
            "kind": m.kind,
            "help": m.help,
            "samples": [
                {"labels": labels, "value": value} for labels, value in m.samples
            ],
        }
        for m in metrics
    }


def parse_prometheus(text: str) -> Dict[str, Dict[Tuple[Tuple[str, str], ...], float]]:
    """Parse exposition text back to ``{family: {labels: value}}`` —
    used by the agreement tests and the CI conservation gate, so the
    renderer cannot drift from what a scraper would read."""
    out: Dict[str, Dict[Tuple[Tuple[str, str], ...], float]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        if "{" in name_part:
            name, _, label_body = name_part.partition("{")
            label_body = label_body.rstrip("}")
            labels = []
            for item in filter(None, label_body.split(",")):
                key, _, raw = item.partition("=")
                labels.append((key, raw.strip('"')))
            key = tuple(sorted(labels))
        else:
            name, key = name_part, ()
        out.setdefault(name, {})[key] = float(value_part)
    return out


# -- comm-world sources (weakref, self-pruning) -------------------------------

_comm_lock = make_lock("obs.registry.comm")
_comm_worlds: Dict[str, "weakref.ReferenceType"] = {}  # guarded-by: _comm_lock
_comm_seq = itertools.count(1)  # itertools.count is atomic in CPython


def register_comm_world(world, kind: str = "world") -> str:
    """Expose a world's ``CommCounters`` through every registry.

    Held by weakref: a world that goes away simply disappears from the
    next ``collect()``; returns the registered name (``sim-3`` /
    ``shm-1`` / ...).
    """
    name = f"{kind}-{next(_comm_seq)}"
    ref = weakref.ref(world)
    with _comm_lock:
        _comm_worlds[name] = ref
    return name


def unregister_comm_world(name: str) -> None:
    with _comm_lock:
        _comm_worlds.pop(name, None)


def _live_comm_worlds() -> List[Tuple[str, object]]:
    with _comm_lock:
        items = list(_comm_worlds.items())
    live, dead = [], []
    for name, ref in items:
        world = ref()
        if world is None:
            dead.append(name)
        else:
            live.append((name, world))
    if dead:
        with _comm_lock:
            for name in dead:
                _comm_worlds.pop(name, None)
    return live


def comm_metrics() -> List[Metric]:
    """Per-rank p2p/collective byte counters for every live world."""
    sent = Metric(
        "repro_comm_bytes_sent_total", "counter",
        "Bytes sent per rank (p2p + collectives)",
    )
    recv = Metric(
        "repro_comm_bytes_received_total", "counter",
        "Bytes received per rank (p2p + collectives)",
    )
    msgs = Metric(
        "repro_comm_messages_sent_total", "counter",
        "Point-to-point messages sent per rank",
    )
    colls = Metric(
        "repro_comm_collective_calls_total", "counter",
        "Collective invocations by name",
    )
    for name, world in sorted(_live_comm_worlds()):
        counters = world.counters.snapshot()  # one instant: ranks may be recording
        for rank in range(counters.num_ranks):
            sent.add(counters.bytes_sent[rank], world=name, rank=rank)
            recv.add(counters.bytes_received[rank], world=name, rank=rank)
            msgs.add(counters.messages_sent[rank], world=name, rank=rank)
        for cname, calls in sorted(counters.collective_calls.items()):
            colls.add(calls, world=name, collective=cname)
    return [sent, recv, msgs, colls]


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


def _trace_metrics(tracer) -> List[Metric]:
    """Tracer health + per-endpoint latency-component totals."""
    st = tracer.stats()
    spans = Metric(
        "repro_trace_spans_total", "counter",
        "Root-span sampling decisions by result",
    )
    spans.add(st["sampled"], result="sampled")
    spans.add(st["seen"] - st["sampled"], result="skipped")
    out = [
        spans,
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
    ]
    comp_total = Metric(
        "repro_request_component_seconds_total", "counter",
        "Accumulated latency-component seconds (sampled ok requests)",
    )
    comp_count = Metric(
        "repro_request_component_samples_total", "counter",
        "Latency-component observations (sampled ok requests)",
    )
    for endpoint, ep in tracer.decomposition().items():
        comp_total.add(ep["e2e"]["total_s"], endpoint=endpoint, component="e2e")
        comp_count.add(ep["e2e"]["count"], endpoint=endpoint, component="e2e")
        for name, agg in ep["components"].items():
            comp_total.add(agg["total_s"], endpoint=endpoint, component=name)
            comp_count.add(agg["count"], endpoint=endpoint, component=name)
    out.extend([comp_total, comp_count])
    return out


def serving_registry(
    frontend=None,
    tracer=None,
    include_ap: bool = True,
    include_comm: bool = True,
) -> Registry:
    """The standard registry composition for a serving process."""
    registry = Registry()
    if frontend is not None:
        registry.register("serving", lambda: _serving_metrics(frontend))
    if tracer is not None:
        registry.register("trace", lambda: _trace_metrics(tracer))
    if include_ap:
        registry.register("kernels", _ap_metrics)
    if include_comm:
        registry.register("comm", comm_metrics)
    return registry
