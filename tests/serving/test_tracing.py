"""End-to-end tracing through the serving stack.

The contracts pinned here (the ISSUE's acceptance list):

- exactly **one root span per admitted request**, with its own trace,
  when many requests for the same vertices run concurrently;
- for ok requests the latency **components are non-overlapping**:
  their sum never exceeds the measured end-to-end latency;
- shed requests (queue-full rejections, deadline timeouts) still
  **close their root spans** with the matching outcome;
- ``GET /trace`` serves schema-valid Chrome trace JSON and
  ``GET /metrics?format=prom`` agrees with the JSON ``GET /metrics``
  counter-for-counter.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.obs.registry import parse_prometheus
from repro.obs.trace import COMPONENTS, Tracer, validate_chrome_trace
from repro.serving import PredictionServer, RequestRejected, RequestTimeout
from repro.serving.metrics import OUTCOMES

from harness import (
    blocking_lookup,
    join_all,
    make_frontend,
    make_service,
    seeded_run,
    slow_lookup,
)


def make_tracer(**kwargs) -> Tracer:
    kwargs.setdefault("enabled", True)
    kwargs.setdefault("sample_rate", 1.0)
    kwargs.setdefault("capacity", 4096)
    return Tracer(**kwargs)


def roots(tracer):
    return [s for s in tracer.export() if s["parent_id"] is None]


@pytest.fixture
def traced(engine):
    """A service behind a traced frontend: each call runs, with its span
    activated, on the calling thread."""
    tracer = make_tracer()
    svc = make_service(engine)
    fe = make_frontend(svc, tracer=tracer)
    yield svc, fe, tracer
    fe.close()
    svc.close()


# -- one root per admitted request ------------------------------------------------


def test_one_root_span_per_concurrent_request(traced):
    """16 concurrent same-vertex lookups: every request keeps its own
    root span, each with the table read as its ``compute`` component."""
    svc, fe, tracer = traced
    ids = np.array([3, 1, 4, 1])
    n = 16
    start = threading.Barrier(n)

    def one(_):
        start.wait(timeout=30.0)
        fe.call("predict", lambda: svc.predict_logits(ids))

    threads = [
        threading.Thread(target=one, args=(i,), name=f"req-{i}", daemon=True)
        for i in range(n)
    ]
    for t in threads:
        t.start()
    join_all(threads)

    rs = roots(tracer)
    assert len(rs) == n
    assert all(r["outcome"] == "ok" and r["name"] == "predict" for r in rs)
    assert len({r["trace_id"] for r in rs}) == n
    assert all("compute" in r["components_ms"] for r in rs)


def test_seeded_run_traces_every_admitted_request(trained, traced):
    """Open-loop mixed traffic: root spans == finished requests, with
    matching per-outcome counts (conservation against ServingMetrics)."""
    ds, _, _ = trained
    svc, fe, tracer = traced
    _, report = seeded_run(
        fe, seed=11, rate=300.0, duration_s=1.0,
        mix={"predict": 0.7, "topk": 0.2, "update_edges": 0.1},
        feature_dim=ds.feature_dim,
    )
    snap = fe.metrics_snapshot()
    rs = roots(tracer)
    assert len(rs) == report.offered == snap["totals"]["requests"]
    by_outcome = {}
    for r in rs:
        by_outcome[r["outcome"]] = by_outcome.get(r["outcome"], 0) + 1
    for outcome in OUTCOMES:
        assert by_outcome.get(outcome, 0) == snap["totals"][outcome], outcome


# -- component conservation -------------------------------------------------------


def test_table_reads_record_compute_within_e2e(engine):
    """A table read records its gather as ``compute`` (and an
    ``engine.predict`` child) inside the end-to-end time."""
    tracer = make_tracer()
    svc = make_service(engine)
    fe = make_frontend(svc, tracer=tracer)
    try:
        for v in range(10):
            fe.call("predict", lambda: svc.predict_logits([v, v + 1]))
    finally:
        fe.close()
        svc.close()
    rs = roots(tracer)
    assert len(rs) == 10
    for r in rs:
        assert r["outcome"] == "ok" and "compute" in r["components_ms"]
        assert set(r["components_ms"]) <= {"queue", "compute"}
        assert sum(r["components_ms"].values()) <= r["dur_us"] / 1e3 + 0.5
    children = {s["name"] for s in tracer.export() if s["parent_id"] is not None}
    assert "engine.predict" in children


def test_component_sum_within_e2e_for_ok_requests(traced):
    svc, fe, tracer = traced
    rng = np.random.default_rng(3)
    for _ in range(40):
        ids = rng.integers(0, svc.engine.num_vertices, size=8)
        fe.call("predict", lambda: svc.predict_logits(ids))
    rs = [r for r in roots(tracer) if r["outcome"] == "ok"]
    assert len(rs) == 40
    for r in rs:
        comp_ms = sum(r["components_ms"].values())
        # components are defined non-overlapping; tiny tolerance for
        # float accumulation across clock reads
        assert comp_ms <= r["dur_us"] / 1e3 + 0.5, r["components_ms"]
        assert set(r["components_ms"]) <= set(COMPONENTS)
    dec = tracer.decomposition()["predict"]
    assert dec["count"] == 40
    assert dec["component_sum_mean_ms"] <= dec["e2e"]["mean_ms"] + 0.5
    assert dec["unattributed_mean_ms"] >= 0.0


def test_update_spans_close_ok_without_waiting_components(trained, traced):
    ds, _, _ = trained
    svc, fe, tracer = traced
    fe.update_edges(add=[(0, 1)])
    rng = np.random.default_rng(7)
    fe.update_features(
        np.array([2]), rng.standard_normal((1, ds.feature_dim)).astype(np.float32)
    )
    rs = roots(tracer)
    assert [r["name"] for r in rs] == ["update_edges", "update_features"]
    for r in rs:
        assert r["outcome"] == "ok"
        # an update publishes: it never waits at the admission gate
        assert set(r["components_ms"]) <= set(COMPONENTS)


# -- shed requests still close their spans ----------------------------------------


def test_rejected_requests_close_spans_with_outcome(engine):
    tracer = make_tracer()
    svc = make_service(engine)
    release = threading.Event()
    started = threading.Event()
    svc.wrap_lookup(blocking_lookup(release, started))
    fe = make_frontend(svc, num_workers=1, max_queue=1, tracer=tracer)
    try:
        blocked = threading.Thread(
            target=lambda: fe.call("predict", lambda: svc.predict_logits([0])),
            daemon=True,
        )
        blocked.start()
        assert started.wait(timeout=10.0)
        # fills the queue behind the parked call (blocks until release)
        queued = threading.Thread(
            target=lambda: fe.call("predict", lambda: svc.predict_logits([1])),
            daemon=True,
        )
        queued.start()
        deadline = time.monotonic() + 10.0
        while fe.queue_depth < 1:
            assert time.monotonic() < deadline, "queue never filled"
            time.sleep(0.005)

        with pytest.raises(RequestRejected):
            fe.call("predict", lambda: svc.predict_logits([2]))
        rejected = [
            r for r in roots(tracer) if r["outcome"] == "rejected_queue_full"
        ]
        assert len(rejected) == 1
        # a shed request has no execution components
        assert rejected[0]["components_ms"] == {}
    finally:
        release.set()
        join_all([blocked, queued])
        fe.close()
        svc.close()
    # the blocked + queued requests eventually closed ok, exactly once each
    assert sorted(r["outcome"] for r in roots(tracer)) == [
        "ok", "ok", "rejected_queue_full",
    ]


def test_timed_out_requests_close_spans_once(engine):
    tracer = make_tracer()
    svc = make_service(engine)
    svc.wrap_lookup(slow_lookup(0.4))
    fe = make_frontend(svc, tracer=tracer)
    try:
        with pytest.raises(RequestTimeout):
            fe.call(
                "predict", lambda: svc.predict_logits([0]), timeout_s=0.05
            )
    finally:
        fe.close()  # the slow call already finished on this thread
        svc.close()
    rs = roots(tracer)
    assert len(rs) == 1
    # the call finished past its deadline and closed its root once,
    # as a timeout
    assert rs[0]["outcome"] == "timeout"
    assert tracer.decomposition() == {}  # only ok roots decompose


# -- HTTP surface -----------------------------------------------------------------


def _get_raw(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, resp.read().decode("utf-8")


def test_server_trace_and_prometheus_endpoints(engine):
    tracer = make_tracer()
    svc = make_service(engine)
    fe = make_frontend(svc, tracer=tracer)
    server = PredictionServer(svc, port=0, frontend=fe).start_background()
    try:
        host, port = server.address
        base = f"http://{host}:{port}"
        for _ in range(3):
            status, _ = _get_raw(f"{base}/healthz")
            assert status == 200
            req = urllib.request.Request(
                f"{base}/predict",
                data=json.dumps({"vertices": [0, 1], "k": 2}).encode(),
                method="POST",
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(req, timeout=10) as resp:
                assert resp.status == 200

        # /trace is schema-valid Chrome trace JSON with our spans in it
        status, body = _get_raw(f"{base}/trace")
        assert status == 200
        payload = json.loads(body)
        assert validate_chrome_trace(payload) >= 3
        names = {ev["name"] for ev in payload["traceEvents"]}
        assert "topk" in names  # k-requests meter as the topk endpoint

        # /metrics stays JSON and bit-compatible with the snapshot shape
        status, body = _get_raw(f"{base}/metrics")
        assert status == 200
        snap = json.loads(body)
        assert snap["endpoints"]["topk"]["ok"] == 3

        # ?format=prom serves the registry; unknown formats answer 400
        status, text = _get_raw(f"{base}/metrics?format=prom")
        assert status == 200
        parsed = parse_prometheus(text)
        for endpoint, ep in snap["endpoints"].items():
            for outcome in OUTCOMES:
                key = (("endpoint", endpoint), ("outcome", outcome))
                assert parsed["repro_requests_total"][key] == float(
                    ep[outcome]
                ), (endpoint, outcome)
        assert parsed["repro_queue_capacity"][()] == snap["max_queue"]
        # trace collector conservation: sampled + skipped == seen
        st = tracer.stats()
        spans = parsed["repro_trace_spans_total"]
        assert (
            spans[(("result", "sampled"),)] + spans[(("result", "skipped"),)]
            == st["seen"]
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            _get_raw(f"{base}/metrics?format=xml")
        assert err.value.code == 400
    finally:
        server.shutdown()
