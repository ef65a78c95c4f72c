"""``HttpTarget``: the load generator's HTTP client (``repro loadgen --url``).

Each scheduled endpoint must reach the live server as the request the
in-process ``FrontendTarget`` would make, and each HTTP failure must land
in the outcome bucket the load report counts it under.
"""

import socket
import urllib.error

import numpy as np
import pytest

from repro.serving import PredictionServer, PredictionService
from repro.serving.loadgen import (
    HttpTarget,
    ScheduledRequest,
    build_schedule,
    classify_exception,
    run_open_loop,
)


@pytest.fixture
def live(engine):
    server = PredictionServer(PredictionService(engine), port=0).start_background()
    host, port = server.address
    yield engine, HttpTarget(f"http://{host}:{port}/", timeout_s=10.0)
    server.shutdown()


def _request(endpoint, **payload):
    return ScheduledRequest(t=0.0, endpoint=endpoint, **payload)


def test_trailing_slash_is_dropped():
    assert HttpTarget("http://127.0.0.1:1/").base_url == "http://127.0.0.1:1"
    assert HttpTarget("http://127.0.0.1:1", timeout_s=2).timeout_s == 2.0


def test_unknown_endpoint_is_rejected_before_any_request():
    target = HttpTarget("http://127.0.0.1:1")
    with pytest.raises(ValueError, match="unknown endpoint 'nope'"):
        target(_request("nope", vertices=np.array([0])))


def test_predict_returns_the_served_labels(live):
    engine, target = live
    ids = np.array([3, 0, 3])
    resp = target(_request("predict", vertices=ids))
    assert resp["vertices"] == ids.tolist()
    assert resp["labels"] == np.argmax(engine.logits[ids], axis=1).tolist()
    assert "topk" not in resp


def test_topk_sends_k(live):
    engine, target = live
    ids = np.array([5, 1])
    resp = target(_request("topk", vertices=ids, k=2))
    want_classes, want_scores = engine.topk(ids, k=2)
    got = resp["topk"]
    assert [[c["class"] for c in row] for row in got] == want_classes.tolist()
    np.testing.assert_allclose(
        [[c["score"] for c in row] for row in got], want_scores, rtol=1e-6
    )


def test_update_edges_adds_the_scheduled_edges(live):
    engine, target = live
    src, dst = 0, engine.num_vertices - 1
    version = engine.version
    resp = target(_request("update_edges", vertices=np.empty(0, dtype=np.int64),
                           edges=np.array([[src, dst]])))
    assert resp["status"] == "ok"
    assert engine.version == version + 1
    assert src in engine.graph.neighbors(dst).tolist()


def test_update_features_writes_the_scheduled_rows(live):
    engine, target = live
    rows = np.random.default_rng(3).standard_normal(
        (2, engine.features.shape[1])
    ).astype(np.float32)
    resp = target(_request("update_features", vertices=np.array([2, 6]), rows=rows))
    assert resp["status"] == "ok" and resp["num_updated"] == 2
    np.testing.assert_array_equal(engine.features[[2, 6]], rows)


def test_bad_request_is_classified_from_the_status(live):
    engine, target = live
    with pytest.raises(urllib.error.HTTPError) as info:
        target(_request("predict", vertices=np.array([engine.num_vertices])))
    assert info.value.code == 400
    assert classify_exception(info.value) == "bad_request"


def test_unknown_path_is_an_error(live):
    _, target = live
    with pytest.raises(urllib.error.HTTPError) as info:
        target._post("/nope", {})
    assert info.value.code == 404
    assert classify_exception(info.value) == "error"


@pytest.mark.parametrize(
    "code, bucket", [(429, "rejected_queue_full"), (503, "timeout"), (500, "error")]
)
def test_http_status_maps_to_its_outcome_bucket(code, bucket):
    """The server's shed (429), deadline (503) and failure (500) answers
    count where the in-process frontend's exceptions do."""
    exc = urllib.error.HTTPError("http://127.0.0.1:1/predict", code, "", {}, None)
    assert classify_exception(exc) == bucket


def test_unreachable_server_counts_as_errors():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    target = HttpTarget(f"http://127.0.0.1:{port}", timeout_s=2.0)
    schedule = [_request("predict", vertices=np.array([0])) for _ in range(3)]
    summary = run_open_loop(target, schedule).summary()
    assert (summary["ok"], summary["errors"]) == (0, 3)


def test_open_loop_over_http_serves_every_endpoint(live):
    engine, target = live
    rng = np.random.default_rng(0)
    arrivals = np.linspace(0.0, 0.2, 24)
    schedule = build_schedule(
        arrivals, engine.num_vertices, rng,
        mix={"predict": 1, "topk": 1, "update_edges": 1, "update_features": 1},
        feature_dim=engine.features.shape[1],
    )
    report = run_open_loop(target, schedule, num_clients=2)
    summary = report.summary()
    assert summary["ok"] == summary["offered"] == len(schedule)
    assert set(summary["per_endpoint"]) == {
        "predict", "topk", "update_edges", "update_features"
    }
