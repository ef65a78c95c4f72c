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
    to_json,
    unregister_comm_world,
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
    reg.unregister("b")
    assert [m.name for m in reg.collect()] == ["repro_x"]


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


def test_to_json_mirrors_samples():
    m = Metric("repro_x_total", "counter", "x").add(7, a="b")
    j = to_json([m])
    assert j["repro_x_total"]["samples"] == [
        {"labels": {"a": "b"}, "value": 7.0}
    ]


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
    try:
        assert name in _world_samples()
        del world
        gc.collect()
        assert name not in _world_samples()
    finally:
        unregister_comm_world(name)


def test_sim_world_self_registers_and_counts():
    from repro.comm.communicator import World

    world = World(2)
    try:
        comm = world.communicator(0)
        comm.isend(1, np.zeros(4, dtype=np.float64))
        by_name = {m.name: m for m in comm_metrics()}
        sent = {
            labels["rank"]: value
            for labels, value in by_name["repro_comm_bytes_sent_total"].samples
            if labels["world"] == world.obs_name
        }
        assert sent["0"] == 32.0 and sent["1"] == 0.0
    finally:
        unregister_comm_world(world.obs_name)


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
