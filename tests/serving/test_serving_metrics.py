"""/metrics correctness: server-side counters vs client-side truth.

A seeded open-loop run is measured independently on both sides of the
request path — the load harness records every outcome and latency at
the client, ``ServingMetrics`` records them in the frontend.  The
counters must agree exactly; the latency quantiles (same estimator,
measured around the same span) must agree tightly.
"""

import numpy as np
import pytest

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
