"""Unit contracts of :mod:`repro.obs.registry`.

Naming discipline, duplicate detection, the Prometheus render /
re-parse round trip, weakref'd comm-world sources, and the agreement
between the Prometheus view and the JSON snapshot it is derived from.
The live-server agreement check (a real ``GET /metrics?format=prom``
against ``GET /metrics``) is in ``tests/serving/test_tracing.py``.
"""

import gc

import numpy as np
import pytest

from repro.obs.registry import (
    Metric,
    Registry,
    comm_metrics,
    parse_prometheus,
    register_comm_world,
    render_prometheus,
    serving_registry,
)
from repro.obs.trace import Tracer
from repro.serving.metrics import OUTCOMES, ServingMetrics


# -- Metric / Registry basics -----------------------------------------------------


def test_metric_enforces_namespace_and_kind():
    with pytest.raises(ValueError, match="repro_"):
        Metric("requests_total", "counter", "off-namespace")
    with pytest.raises(ValueError, match="kind"):
        Metric("repro_requests_total", "histogram", "unsupported kind")


def test_registry_rejects_duplicate_collectors_and_families():
    reg = Registry()
    reg.register("a", lambda: [Metric("repro_x", "counter", "x").add(1)])
    with pytest.raises(ValueError, match="already registered"):
        reg.register("a", lambda: [])
    reg.register("b", lambda: [Metric("repro_x", "counter", "x again").add(2)])
    with pytest.raises(ValueError, match="emitted by both"):
        reg.collect()


def test_collect_sorts_families_by_name():
    reg = Registry()
    reg.register("z", lambda: [Metric("repro_zz", "gauge", "z").add(0)])
    reg.register("a", lambda: [Metric("repro_aa", "gauge", "a").add(0)])
    assert [m.name for m in reg.collect()] == ["repro_aa", "repro_zz"]


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
    the tracer's own totals, exactly."""
    tracer = Tracer(enabled=True, sample_rate=1.0, capacity=64)
    rng = np.random.default_rng(5)
    for endpoint in ("predict", "topk", "predict", "update_edges", "predict"):
        span = tracer.root(endpoint)
        span.add_component("queue", float(rng.exponential(1e-4)))
        if endpoint != "update_edges":
            span.add_component("compute", float(rng.exponential(1e-3)))
        span.end("ok", e2e_s=float(rng.exponential(3e-3)) + 2e-3)
    reg = serving_registry(tracer=tracer, include_ap=False, include_comm=False)
    parsed = parse_prometheus(render_prometheus(reg.collect()))
    seconds = parsed["repro_request_component_seconds_total"]
    samples = parsed["repro_request_component_samples_total"]
    decomposition = tracer.decomposition()
    assert {dict(k)["endpoint"] for k in seconds} == set(decomposition)
    for endpoint, dec in decomposition.items():
        summaries = {"e2e": dec["e2e"], **dec["components"]}
        for component, summary in summaries.items():
            key = (("component", component), ("endpoint", endpoint))
            assert seconds[key] == summary["total_s"]
            assert samples[key] == summary["count"]


# -- comm-world sources -----------------------------------------------------------


class _StubWorld:
    """counters-shaped object (the duck type ``comm_metrics`` reads: a
    ``snapshot()`` holding the per-rank lists)."""

    class counters:  # noqa: N801 — instance attribute stand-in
        num_ranks = 2
        bytes_sent = [10, 20]
        bytes_received = [20, 10]
        messages_sent = [1, 2]
        collective_calls = {"allreduce": 3}

        @classmethod
        def snapshot(cls):
            return cls


def _world_samples():
    by_name = {m.name: m for m in comm_metrics()}
    return {
        labels["world"]
        for labels, _ in by_name["repro_comm_bytes_sent_total"].samples
    }


def test_comm_worlds_are_weakly_referenced():
    world = _StubWorld()
    name = register_comm_world(world, kind="test")
    assert name in _world_samples()
    del world
    gc.collect()
    assert name not in _world_samples()


def test_sim_world_self_registers_and_counts():
    from repro.comm.communicator import World

    world = World(2)
    comm = world.communicator(0)
    comm.isend(1, np.zeros(4, dtype=np.float64))
    by_name = {m.name: m for m in comm_metrics()}
    sent = {
        labels["rank"]: value
        for labels, value in by_name["repro_comm_bytes_sent_total"].samples
        if labels["world"] == world.obs_name
    }
    assert sent["0"] == 32.0 and sent["1"] == 0.0


# -- the serving composition ------------------------------------------------------


class _StubFrontend:
    """metrics_snapshot()-shaped object mirroring ServingFrontend."""

    def __init__(self):
        self.metrics = ServingMetrics()

    def metrics_snapshot(self):
        return self.metrics.snapshot(
            queue_depth=1,
            in_flight=2,
            max_queue=8,
            num_workers=4,
            feature_store=None,
        )


def test_prometheus_agrees_with_json_snapshot_counter_for_counter():
    fe = _StubFrontend()
    fe.metrics.record("predict", "ok", latency_s=0.010)
    fe.metrics.record("predict", "ok", latency_s=0.030)
    fe.metrics.record("predict", "timeout")
    fe.metrics.record("topk", "rejected_queue_full")

    reg = serving_registry(frontend=fe, include_ap=False, include_comm=False)
    parsed = parse_prometheus(render_prometheus(reg.collect()))
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


def test_trace_collector_conserves_sampling_decisions():
    tracer = Tracer(enabled=True, sample_rate=0.5, capacity=16)
    for _ in range(10):
        span = tracer.root("predict")
        if span is not None:
            span.add_component("compute", 0.001)
            span.end("ok", e2e_s=0.002)
    reg = serving_registry(tracer=tracer, include_ap=False, include_comm=False)
    parsed = parse_prometheus(render_prometheus(reg.collect()))
    spans = parsed["repro_trace_spans_total"]
    st = tracer.stats()
    assert spans[(("result", "sampled"),)] == st["sampled"]
    assert spans[(("result", "sampled"),)] + spans[(("result", "skipped"),)] == st["seen"]
    assert parsed["repro_trace_finished_spans_total"][()] == st["finished"]
    comp = parsed["repro_request_component_samples_total"]
    assert comp[(("component", "e2e"), ("endpoint", "predict"))] == st["sampled"]


def test_ap_collector_reads_kernel_timer():
    from repro.kernels.instrumentation import AP_TIMER

    reg = serving_registry(include_ap=True, include_comm=False)
    before = {m.name: m for m in reg.collect()}
    AP_TIMER.add(0.25)
    try:
        after = {m.name: m for m in reg.collect()}
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
