"""Unit contracts of :mod:`repro.obs.registry`.

Naming discipline, the families one :func:`collect` returns, the
Prometheus render / re-parse round trip, and the agreement between the
Prometheus view and the JSON snapshot, ledger and tracer it is derived
from.
The live-server agreement check (a real ``GET /metrics?format=prom``
against ``GET /metrics``) is in ``tests/serving/test_tracing.py``.
"""

import numpy as np
import pytest

from repro.obs.registry import (
    Metric,
    collect,
    parse_prometheus,
    render_prometheus,
)
from repro.obs.trace import Tracer
from repro.serving.metrics import OUTCOMES, ServingMetrics


class _StubFrontend:
    """metrics_snapshot()-shaped object mirroring ServingFrontend."""

    def __init__(self, tracer=None):
        self.metrics = ServingMetrics()
        self.tracer = Tracer(enabled=False) if tracer is None else tracer

    def metrics_snapshot(self):
        return self.metrics.snapshot(
            queue_depth=1,
            in_flight=2,
            max_queue=8,
            num_workers=4,
            feature_store=None,
        )


# -- Metric basics ---------------------------------------------------------------


def test_metric_enforces_namespace_and_kind():
    with pytest.raises(ValueError, match="repro_"):
        Metric("requests_total", "counter", "off-namespace")
    with pytest.raises(ValueError, match="kind"):
        Metric("repro_requests_total", "histogram", "unsupported kind")


# -- exposition -------------------------------------------------------------------


def test_prometheus_render_parse_round_trip():
    metrics = [
        Metric("repro_requests_total", "counter", "requests")
        .add(3, endpoint="predict", outcome="ok")
        .add(1, endpoint="predict", outcome="timeout"),
        Metric("repro_queue_depth", "gauge", "depth").add(2.5),
        Metric("repro_labels", "gauge", 'escaping").add(')
        .add(1, path='we"ird\\label\nvalue'),
    ]
    text = render_prometheus(metrics)
    # HELP/TYPE lines present for every family
    for m in metrics:
        assert f"# TYPE {m.name} {m.kind}" in text
    parsed = parse_prometheus(text)
    assert parsed["repro_requests_total"][
        (("endpoint", "predict"), ("outcome", "ok"))
    ] == 3.0
    assert parsed["repro_queue_depth"][()] == 2.5
    assert len(parsed["repro_labels"]) == 1
    # integers render without a trailing .0 (stable diffs, exact parse)
    assert "repro_requests_total{endpoint=\"predict\",outcome=\"ok\"} 3\n" in text


def test_prometheus_parse_unescapes_every_label_value():
    """``parse_prometheus`` inverts ``render_prometheus`` for any label
    value: a ``,``, ``"``, ``\\``, newline or ``}`` inside the quotes is
    part of the value, and the escapes come off."""
    values = ["a,b", 'we"ird', "back\\slash", "new\nline", "br}ace",
              'x="1",y="2"}', "\\n", ""]
    metric = Metric("repro_labels", "gauge", "odd label values")
    for i, value in enumerate(values):
        metric.add(i, path=value, endpoint="predict")
    assert parse_prometheus(render_prometheus([metric])) == {
        "repro_labels": {
            (("endpoint", "predict"), ("path", value)): float(i)
            for i, value in enumerate(values)
        }
    }


@pytest.mark.parametrize(
    "value",
    [0.1 + 0.2, 1 / 3, 5e-324, 1e15, 2.0 ** 60 + 2.0 ** 8, -12345.678901234567],
    ids=["inexact-sum", "third", "subnormal", "1e15", "beyond-2**53", "negative"],
)
def test_prometheus_values_round_trip_exactly(value):
    """A parsed value is the rendered float bit for bit (integers print as
    ints, everything else as ``repr``): ``repro trace`` rebuilds the
    server's decomposition means from these totals."""
    metric = Metric("repro_x_seconds_total", "counter", "x").add(value, endpoint="e")
    parsed = parse_prometheus(render_prometheus([metric]))
    assert parsed["repro_x_seconds_total"][(("endpoint", "e"),)] == value


def test_component_families_carry_the_decomposition_totals():
    """Per endpoint and component, the exported seconds and samples are
    the ledger's own totals, exactly."""
    tracer = Tracer(enabled=True)
    fe = _StubFrontend(tracer)
    rng = np.random.default_rng(5)
    for endpoint in ("predict", "topk", "predict", "update_edges", "predict"):
        span = tracer.root(endpoint)
        span.add_component("queue", float(rng.exponential(1e-4)))
        if endpoint != "update_edges":
            span.add_component("compute", float(rng.exponential(1e-3)))
        fe.metrics.record(endpoint, "ok", latency_s=float(rng.exponential(3e-3)) + 2e-3,
                          components=span.end("ok"))
    parsed = parse_prometheus(render_prometheus(collect(fe)))
    seconds = parsed["repro_request_component_seconds_total"]
    samples = parsed["repro_request_component_samples_total"]
    decomposition = fe.metrics.decomposition()
    assert {dict(k)["endpoint"] for k in seconds} == set(decomposition)
    for endpoint, dec in decomposition.items():
        summaries = {"e2e": dec["e2e"], **dec["components"]}
        for component, summary in summaries.items():
            key = (("component", component), ("endpoint", endpoint))
            assert seconds[key] == summary["total_s"]
            assert samples[key] == summary["count"]


# -- the serving composition ------------------------------------------------------


def test_prometheus_agrees_with_json_snapshot_counter_for_counter():
    fe = _StubFrontend()
    fe.metrics.record("predict", "ok", latency_s=0.010)
    fe.metrics.record("predict", "ok", latency_s=0.030)
    fe.metrics.record("predict", "timeout")
    fe.metrics.record("topk", "rejected_queue_full")

    parsed = parse_prometheus(render_prometheus(collect(fe)))
    snap = fe.metrics_snapshot()

    for endpoint, ep in snap["endpoints"].items():
        for outcome in OUTCOMES:
            key = (("endpoint", endpoint), ("outcome", outcome))
            assert parsed["repro_requests_total"][key] == float(ep[outcome]), (
                endpoint, outcome,
            )
    assert parsed["repro_queue_depth"][()] == snap["queue_depth"]
    assert parsed["repro_in_flight"][()] == snap["in_flight"]
    # quantiles present exactly for endpoints with served requests
    lat = parsed["repro_request_latency_ms"]
    assert (("endpoint", "predict"), ("quantile", "p50")) in lat
    assert (("endpoint", "topk"), ("quantile", "p50")) not in lat


def test_collect_returns_each_family_once_sorted_by_name():
    fe = _StubFrontend(Tracer(enabled=True))
    fe.metrics.record("predict", "ok", latency_s=0.002)
    names = [m.name for m in collect(fe)]
    assert names == sorted(set(names))
    assert {
        "repro_requests_total", "repro_request_latency_ms", "repro_queue_depth",
        "repro_in_flight", "repro_queue_capacity", "repro_workers",
        "repro_ap_seconds_total", "repro_ap_calls_total",
        "repro_trace_finished_spans_total", "repro_trace_dropped_spans_total",
        "repro_trace_buffered_spans", "repro_request_component_seconds_total",
        "repro_request_component_samples_total",
    } == set(names)


def test_trace_families_conserve_the_ring_and_the_roots():
    """Every finished span is buffered or dropped, and each traced ok
    root is one ``e2e`` sample."""
    tracer = Tracer(enabled=True)
    fe = _StubFrontend(tracer)
    for i in range(10):
        span = tracer.root("predict")
        span.add_component("compute", 0.001)
        span.child_complete("engine.predict", 0.001)
        outcome = "ok" if i % 5 else "timeout"
        fe.metrics.record("predict", outcome, latency_s=0.002, components=span.end(outcome))
    parsed = parse_prometheus(render_prometheus(collect(fe)))
    st = tracer.stats()
    assert parsed["repro_trace_finished_spans_total"][()] == st["finished"] == 20
    assert (
        parsed["repro_trace_buffered_spans"][()]
        + parsed["repro_trace_dropped_spans_total"][()]
        == st["finished"]
    )
    comp = parsed["repro_request_component_samples_total"]
    assert comp[(("component", "e2e"), ("endpoint", "predict"))] == 8


def test_untraced_frontend_exports_no_component_samples():
    fe = _StubFrontend()
    fe.metrics.record("predict", "ok", latency_s=0.002)
    families = {m.name: m for m in collect(fe)}
    assert families["repro_request_component_seconds_total"].samples == []
    assert families["repro_request_component_samples_total"].samples == []
    assert families["repro_trace_finished_spans_total"].samples == [({}, 0.0)]


def test_ap_collector_reads_kernel_timer():
    from repro.kernels.instrumentation import AP_TIMER

    fe = _StubFrontend()
    before = {m.name: m for m in collect(fe)}
    AP_TIMER.add(0.25)
    try:
        after = {m.name: m for m in collect(fe)}
        gained = (
            after["repro_ap_seconds_total"].samples[0][1]
            - before["repro_ap_seconds_total"].samples[0][1]
        )
        assert gained == pytest.approx(0.25)
        assert (
            after["repro_ap_calls_total"].samples[0][1]
            == before["repro_ap_calls_total"].samples[0][1] + 1
        )
    finally:
        AP_TIMER.reset()
