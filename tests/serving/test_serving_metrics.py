"""/metrics correctness: server-side counters vs client-side truth.

A seeded open-loop run is measured independently on both sides of the
request path — the load harness records every outcome and latency at
the client, ``ServingMetrics`` records them in the frontend.  The
counters must agree exactly; the latency quantiles (same estimator,
measured around the same span) must agree tightly.

``ServingMetrics`` is also the one per-endpoint ledger of the latency
decomposition: a traced request's component seconds land beside its
outcome and latency, and the decomposition's e2e is that latency.
"""

import sys
import threading

import numpy as np
import pytest

from repro.obs.registry import collect, parse_prometheus, render_prometheus
from repro.obs.trace import COMPONENTS, Tracer, current_span
from repro.serving import ServingMetrics, percentiles_ms
from repro.serving.metrics import LATENCY_WINDOW, OUTCOMES

from harness import make_frontend, make_service, seeded_run


@pytest.fixture
def serving(engine):
    svc = make_service(engine)
    fe = make_frontend(svc)
    yield svc, fe
    fe.close()
    svc.close()


def test_counters_match_client_side_exactly(trained, serving):
    ds, _, _ = trained
    svc, fe = serving
    _, report = seeded_run(
        fe, seed=17, rate=300.0, duration_s=1.0,
        mix={"predict": 0.6, "topk": 0.25, "update_edges": 0.1,
             "update_features": 0.05},
        feature_dim=ds.feature_dim,
    )
    snap = fe.metrics_snapshot()

    # every request the client fired is in exactly one server bucket
    assert snap["totals"]["requests"] == report.offered
    for outcome in OUTCOMES:
        assert snap["totals"][outcome] == report.count(outcome), outcome
    # and per endpoint too
    client_eps = report.per_endpoint()
    assert set(snap["endpoints"]) == set(client_eps)
    for name, client in client_eps.items():
        server = snap["endpoints"][name]
        assert server["requests"] == client["requests"], name
        for outcome in OUTCOMES:
            assert server[outcome] == client[outcome], (name, outcome)

    # conservation on the server side
    totals = snap["totals"]
    assert totals["requests"] == sum(totals[o] for o in OUTCOMES)
    # updates publish: every update was served, and no read was shed
    updates_ok = sum(
        snap["endpoints"].get(ep, {}).get("ok", 0)
        for ep in ("update_edges", "update_features")
    )
    assert updates_ok > 0 and snap["num_drains"] == 0
    assert totals["timeout"] == totals["rejected_queue_full"] == 0


def test_latency_quantiles_agree_with_client(serving):
    """Server quantiles vs client quantiles of the same requests.

    The client's ``call_s`` wraps the frontend call, the server measures
    inside it — identical estimator (shared ``percentiles_ms``), so the
    two p50/p99 differ only by call overhead: tight tolerance."""
    svc, fe = serving
    _, report = seeded_run(fe, seed=23, rate=200.0, duration_s=1.0,
                           mix={"predict": 1.0})
    snap = fe.metrics_snapshot()
    server = snap["endpoints"]["predict"]
    client = percentiles_ms(report.latencies("ok", which="call_s"))
    assert report.count("ok") == server["ok"] > 0
    for q in ("p50_ms", "p99_ms"):
        assert server[q] == pytest.approx(client[q], abs=25.0), q
        assert server[q] <= client[q] + 1e-6  # server span nests inside


def test_open_loop_latency_dominates_call_latency(serving):
    """Scheduled-arrival latency >= call latency for every request —
    the open-loop number includes client queueing by construction."""
    _, fe = serving
    _, report = seeded_run(fe, seed=5, rate=400.0, duration_s=0.5,
                           num_clients=2, mix={"predict": 1.0})
    ok = [r for r in report.records if r.outcome == "ok"]
    assert ok
    for rec in ok:
        assert rec.latency_s >= rec.call_s - 1e-6


def test_seeded_runs_fire_identical_schedules(trained, serving):
    """Same seed -> byte-identical request sequence (the reproducibility
    the stress suites and the benchmark sweep both rely on)."""
    ds, _, _ = trained
    _, fe = serving
    sched_a, _ = seeded_run(fe, seed=99, rate=100.0, duration_s=0.5,
                            feature_dim=ds.feature_dim)
    sched_b, _ = seeded_run(fe, seed=99, rate=100.0, duration_s=0.5,
                            feature_dim=ds.feature_dim)
    assert len(sched_a) == len(sched_b)
    for ra, rb in zip(sched_a, sched_b):
        assert (ra.t, ra.endpoint) == (rb.t, rb.endpoint)
        assert np.array_equal(ra.vertices, rb.vertices)


def test_metrics_recorder_validation_and_window():
    m = ServingMetrics()
    with pytest.raises(ValueError, match="unknown outcome"):
        m.record("predict", "teapot")
    n = LATENCY_WINDOW + 4
    for i in range(n):
        m.record("predict", "ok", latency_s=float(i))
    snap = m.snapshot()
    assert snap["latency_window"] == LATENCY_WINDOW
    ep = snap["endpoints"]["predict"]
    assert ep["ok"] == n  # counters are exact even when the window rolls
    # quantiles come from the bounded window (the last LATENCY_WINDOW
    # samples: 4 .. n - 1 s)
    assert ep["p50_ms"] == pytest.approx(1e3 * (4 + n - 1) / 2)
    # the running mean is over ALL samples, not the window
    assert ep["mean_ms"] == pytest.approx(1e3 * (n - 1) / 2)


def test_empty_window_omits_percentile_keys():
    """An endpoint with zero served requests reports *no* latency
    quantiles rather than a fabricated 0.0 (which dashboards would read
    as an impossibly fast server)."""
    assert percentiles_ms([]) == {}
    m = ServingMetrics()
    for _ in range(3):
        m.record("predict", "rejected_queue_full", latency_s=0.0001)
    ep = m.snapshot()["endpoints"]["predict"]
    assert ep["rejected_queue_full"] == 3
    assert "p50_ms" not in ep and "p99_ms" not in ep
    # one served request brings the keys back
    m.record("predict", "ok", latency_s=0.050)
    ep = m.snapshot()["endpoints"]["predict"]
    assert ep["p50_ms"] == pytest.approx(50.0)
    assert ep["p99_ms"] == pytest.approx(50.0)


def test_rejections_do_not_pollute_latency_quantiles():
    m = ServingMetrics()
    m.record("predict", "ok", latency_s=0.100)
    for _ in range(50):
        m.record("predict", "rejected_queue_full", latency_s=0.0001)
    ep = m.snapshot()["endpoints"]["predict"]
    # 50 microsecond-fast rejections must not drag served p50 down
    assert ep["p50_ms"] == pytest.approx(100.0)
    assert ep["rejected_queue_full"] == 50


# -- the latency decomposition ----------------------------------------------------


def _traced_request(metrics, tracer, endpoint="predict", e2e_s=0.005, outcome="ok"):
    """One traced request as the frontend lands it: queue 1 ms and
    compute 3 ms on its span, closed into ``metrics`` with ``e2e_s``."""
    span = tracer.root(endpoint)
    span.add_component("queue", 0.001)
    span.add_component("compute", 0.003)
    span.child_complete("engine.predict", 0.003, cat="serving", rows=8)
    metrics.record(endpoint, outcome, latency_s=e2e_s, components=span.end(outcome))


def test_decomposition_tracks_components_vs_e2e():
    m, t = ServingMetrics(), Tracer(enabled=True)
    for _ in range(4):
        _traced_request(m, t)
    dec = m.decomposition()["predict"]
    assert dec["count"] == 4
    assert dec["e2e"]["mean_ms"] == pytest.approx(5.0)
    assert dec["components"]["queue"]["mean_ms"] == pytest.approx(1.0)
    assert dec["components"]["compute"]["mean_ms"] == pytest.approx(3.0)
    assert dec["component_sum_mean_ms"] == pytest.approx(4.0)
    assert dec["unattributed_mean_ms"] == pytest.approx(1.0)
    # component names stay within the canonical vocabulary here
    assert set(dec["components"]) <= set(COMPONENTS)


def test_decomposition_keeps_totals_and_counts_only():
    """Per endpoint and component the decomposition keeps ``(total_s,
    count)`` and the mean :func:`decompose` derives from them."""
    m, t = ServingMetrics(), Tracer(enabled=True)
    for e2e_s in (0.002, 0.004, 0.009):
        span = t.root("topk")
        span.add_component("compute", e2e_s / 2)
        m.record("topk", "ok", latency_s=e2e_s, components=span.end("ok"))
    dec = m.decomposition()["topk"]
    assert dec["e2e"] == {"count": 3, "total_s": pytest.approx(0.015),
                          "mean_ms": pytest.approx(5.0)}
    assert dec["components"] == {
        "compute": {"count": 3, "total_s": pytest.approx(0.0075),
                    "mean_ms": pytest.approx(2.5)},
    }


def test_decomposition_counts_every_root_of_concurrent_threads():
    m, t = ServingMetrics(), Tracer(enabled=True)

    def worker():
        for _ in range(200):
            span = t.root("predict")
            span.add_component("queue", 0.25)
            m.record("predict", "ok", latency_s=1.0, components=span.end("ok"))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=worker) for _ in range(8)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    dec = m.decomposition()["predict"]
    assert dec["e2e"]["count"] == dec["components"]["queue"]["count"] == 1600
    assert dec["e2e"]["total_s"] == 1600.0 and dec["components"]["queue"]["total_s"] == 400.0


def test_decomposition_counts_only_ok_roots():
    m, t = ServingMetrics(), Tracer(enabled=True)
    _traced_request(m, t, outcome="timeout")
    assert m.decomposition() == {}


def test_span_outside_tracer_root_is_not_decomposed():
    """Child spans never feed the per-endpoint decomposition."""
    m, t = ServingMetrics(), Tracer(enabled=True)
    root = t.root("predict")
    root.child_complete("engine.predict", 0.001)
    m.record("predict", "ok", latency_s=0.002, components=root.end("ok"))
    dec = m.decomposition()
    assert set(dec) == {"predict"}
    assert dec["predict"]["count"] == 1


def test_untraced_requests_leave_no_decomposition():
    m = ServingMetrics()
    m.record("predict", "ok", latency_s=0.002)
    assert m.decomposition() == {}
    # a traced request on another endpoint shows only that endpoint
    _traced_request(m, Tracer(enabled=True), endpoint="topk")
    assert set(m.decomposition()) == {"topk"}


def test_closing_a_span_twice_counts_the_request_once(serving):
    """A body that closes its own span leaves the frontend's close
    nothing to hand over: the ledger still counts one request."""
    svc, _ = serving
    tracer = Tracer(enabled=True)
    fe = make_frontend(svc, tracer=tracer)
    try:
        fe.call("predict", lambda: current_span().end("ok"))
    finally:
        fe.close()
    assert tracer.stats()["finished"] == 1
    assert fe.metrics_snapshot()["endpoints"]["predict"]["ok"] == 1
    dec = fe.metrics.decomposition()["predict"]
    assert dec["count"] == dec["e2e"]["count"] == 1
    assert dec["components"] == {}


def test_frontends_sharing_a_tracer_each_scrape_their_own_requests(serving):
    """Two frontends on one tracer (the process-wide default when none
    is passed): each one's e2e samples and seconds are its own ok
    requests, never the other's."""
    svc, _ = serving
    tracer = Tracer(enabled=True)
    frontends = [make_frontend(svc, tracer=tracer), make_frontend(svc, tracer=tracer)]
    try:
        for fe, reads in zip(frontends, (5, 3)):
            for i in range(reads):
                fe.call("predict", lambda: svc.predict_logits([i]))
        for fe, reads in zip(frontends, (5, 3)):
            parsed = parse_prometheus(render_prometheus(collect(fe)))
            ep = fe.metrics_snapshot()["endpoints"]["predict"]
            key = (("component", "e2e"), ("endpoint", "predict"))
            assert parsed["repro_request_component_samples_total"][key] == ep["ok"] == reads
            assert parsed["repro_request_component_seconds_total"][key] == pytest.approx(
                ep["mean_ms"] * reads / 1e3, rel=1e-9)
    finally:
        for fe in frontends:
            fe.close()
    roots = [r for r in tracer.export() if r["parent_id"] is None]
    assert len(roots) == 8


#: the ``GET /metrics`` JSON keys: the snapshot's top level, its totals,
#: and each endpoint that served a request
SNAPSHOT_KEYS = {"endpoints", "totals", "num_drains", "latency_window", "queue_depth",
                 "in_flight", "max_queue", "num_workers", "feature_store"}
TOTALS_KEYS = {"requests", *OUTCOMES, "rejected_draining"}
ENDPOINT_KEYS = {"requests", *OUTCOMES, "mean_ms", "p50_ms", "p99_ms"}


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_json_snapshot_keys_hold_for_a_seeded_run(trained, serving, traced):
    """The ledger's decomposition stays off the JSON ``/metrics`` body:
    a seeded mixed run serves exactly the snapshot keys it always had."""
    ds, _, _ = trained
    svc, _ = serving
    fe = make_frontend(svc, tracer=Tracer(enabled=traced))
    mix = {"predict": 0.5, "topk": 0.3, "update_edges": 0.1, "update_features": 0.1}
    try:
        seeded_run(fe, seed=31, rate=200.0, duration_s=0.3, mix=mix,
                   feature_dim=ds.feature_dim, synchronous=True)
        snap = fe.metrics_snapshot()
    finally:
        fe.close()
    assert set(snap) == SNAPSHOT_KEYS
    assert set(snap["totals"]) == TOTALS_KEYS
    assert set(snap["endpoints"]) == set(mix)
    for ep in snap["endpoints"].values():
        assert ep["ok"] > 0 and set(ep) == ENDPOINT_KEYS
    assert set(fe.metrics.decomposition()) == (set(mix) if traced else set())
