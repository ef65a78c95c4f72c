"""PredictionService composition and the HTTP endpoint."""

import http.client
import json
import socket
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serving import (
    IncrementalRefresher,
    InferenceEngine,
    PredictionServer,
    PredictionService,
    ResultCache,
)
from repro.serving.engine import topk_rows


def _post(url, payload):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.status, json.load(resp)


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return resp.status, json.load(resp)


# -- service composition ----------------------------------------------------------


def test_service_matches_engine(engine):
    ids = np.array([4, 9, 4, 0])
    with PredictionService(engine) as svc:
        assert np.array_equal(svc.predict_logits(ids), engine.logits[ids])
        assert np.array_equal(svc.predict(ids), np.argmax(engine.logits[ids], axis=1))


def test_legacy_arguments_are_accepted_and_unused(engine):
    """``cache`` / ``batch`` / ``max_batch`` / ``max_wait_ms`` are still
    accepted: a read is a table row either way, and the cache is kept
    on the service (and reset by callers) but never consulted."""
    ids = np.array([7, 3, 7, 11])
    with pytest.raises(ValueError, match="capacity"):
        ResultCache(0)
    for refresher in (None, IncrementalRefresher(engine)):
        cache = ResultCache(8)
        with PredictionService(
            engine, cache=cache, batch=True, max_batch=16,
            max_wait_ms=0.5, refresher=refresher,
        ) as svc:
            assert np.array_equal(svc.predict_logits(ids), engine.logits[ids])
            assert svc.cache is cache
            svc.cache.reset()
            assert set(svc.stats()) == {"engine", "refresher"}


def test_empty_request(trained, engine):
    ds, _, _ = trained
    with PredictionService(engine) as svc:
        rows = svc.predict_logits([])
        assert rows.shape == (0, ds.num_classes)
        assert svc.predict([]).shape == (0,)


def test_topk_matches_engine(engine):
    ids = np.array([9, 2, 9])
    with PredictionService(engine) as svc:
        classes, scores = svc.topk(ids, k=3)
    want_classes, want_scores = engine.topk(ids, k=3)
    assert np.array_equal(classes, want_classes)
    assert np.array_equal(scores, want_scores)
    assert np.array_equal(classes[:, 0], svc.predict(ids))


def test_service_routes_through_refresher(trained, engine):
    """With a refresher attached an update goes through it, and the next
    read serves the published rows."""
    ds, _, _ = trained
    ref = IncrementalRefresher(engine)
    ids = np.array([2, 8])
    rows = np.random.default_rng(5).standard_normal((2, ds.feature_dim))
    with PredictionService(engine, refresher=ref) as svc:
        before = svc.predict_logits(ids)
        stats = svc.update_features(ids, rows.astype(np.float32))
        got = svc.predict_logits(ids)
    assert stats.num_updated == 2
    assert svc.stats()["refresher"]["incremental"] == 1
    assert np.array_equal(got, engine.logits[ids])
    assert not np.array_equal(got, before)


def test_cache_invalidated_by_refresh(trained, engine):
    """A service built with the legacy result cache never serves a row
    from before an update: reads are table rows, not cache entries."""
    ds, _, _ = trained
    ref = IncrementalRefresher(engine)
    with PredictionService(engine, cache=ResultCache(64), refresher=ref) as svc:
        ids = np.array([0, 1])
        before = svc.predict_logits(ids)
        rng = np.random.default_rng(11)
        svc.update_features(
            [0], rng.standard_normal((1, ds.feature_dim)).astype(np.float32)
        )
        after = svc.predict_logits(ids)
        assert np.array_equal(after, engine.logits[ids])
        assert not np.array_equal(after[0], before[0])


def test_feature_update_without_refresher_is_incremental_and_last_wins(
    trained, engine
):
    """No refresher given: the service's own refresher deduplicates the
    write last-wins, one row-subset refresh publishes, and reads serve
    it."""
    ds, trainer, cfg = trained
    rows = np.random.default_rng(12).standard_normal((3, ds.feature_dim))
    rows = rows.astype(np.float32)
    with PredictionService(engine) as svc:
        version = engine.version
        stats = svc.update_features([4, 7, 4], rows)
        served = svc.predict_logits(np.arange(engine.num_vertices))
    assert stats.num_updated == 2
    assert svc.stats()["refresher"]["incremental"] == 1
    assert engine.version == version + 1
    truth = InferenceEngine(ds, trainer.model, cfg)
    truth.features[[4, 7]] = rows[[2, 1]]
    assert np.array_equal(served, truth.precompute().logits)
    with pytest.raises(ValueError, match="new_rows shape"):
        svc.update_features([4], rows)


# -- HTTP endpoint ----------------------------------------------------------------


@pytest.fixture
def live_server(engine):
    svc = PredictionService(engine)
    server = PredictionServer(svc, port=0).start_background()
    host, port = server.address
    yield engine, f"http://{host}:{port}"
    server.shutdown()


def test_http_predict(live_server):
    engine, base = live_server
    status, resp = _post(f"{base}/predict", {"vertices": [0, 7, 9], "k": 2})
    assert status == 200
    assert resp["vertices"] == [0, 7, 9]
    assert resp["labels"] == np.argmax(engine.logits[[0, 7, 9]], axis=1).tolist()
    assert len(resp["topk"]) == 3 and len(resp["topk"][0]) == 2
    top = resp["topk"][0][0]
    assert top["class"] == resp["labels"][0]
    assert top["score"] == pytest.approx(float(engine.logits[0].max()))


def test_http_stats_and_health(live_server):
    _, base = live_server
    _post(f"{base}/predict", {"vertices": [1, 2]})
    status, stats = _get(f"{base}/stats")
    assert status == 200
    assert set(stats) == {"engine", "refresher"}
    status, health = _get(f"{base}/healthz")
    assert status == 200 and health == {"status": "ok"}


def test_http_error_handling(live_server):
    engine, base = live_server
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(f"{base}/predict", {"wrong_key": [1]})
    assert err.value.code == 400
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(f"{base}/predict", {"vertices": [engine.num_vertices + 5]})
    assert err.value.code == 400
    assert "vertex ids" in json.load(err.value)["error"]
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(f"{base}/nope")
    assert err.value.code == 404


def _post_raw(url, body: bytes):
    req = urllib.request.Request(
        url, data=body, method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.status, json.load(resp)


def test_http_malformed_bodies_return_400_json(live_server):
    """Every malformed body shape answers 400 with a JSON error body —
    never a 500 traceback."""
    _, base = live_server
    raw_cases = [
        b"{not json",              # invalid JSON
        b"[1, 2]",                 # valid JSON, not an object
        b'"vertices"',             # valid JSON, not an object
    ]
    for body in raw_cases:
        with pytest.raises(urllib.error.HTTPError) as err:
            _post_raw(f"{base}/predict", body)
        assert err.value.code == 400, body
        assert "error" in json.load(err.value), body
    payload_cases = [
        {"vertices": [1.5]},            # float id would truncate silently
        {"vertices": ["7"]},            # string id
        {"vertices": [True]},           # bool is not a vertex id
        {"vertices": 3},                # not a list
        {"vertices": [[1, 2]]},         # nested list
        {"vertices": [0], "k": "two"},  # non-integer k
        {"vertices": [0], "k": [2]},    # list k (used to be a 500)
        {"vertices": [0], "k": 0},      # k < 1
        {"vertices": [0, -1]},          # negative id
        {"vertices": [10 ** 30]},       # overflows the index dtype
    ]
    for payload in payload_cases:
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{base}/predict", payload)
        assert err.value.code == 400, payload
        assert "error" in json.load(err.value), payload


def test_http_negative_content_length_answers_400(live_server):
    """``rfile.read(-1)`` reads to EOF, so a negative Content-Length
    would pin the handler thread on a client that keeps its socket open:
    it answers a JSON 400 at once instead."""
    _, base = live_server
    host, port = base[len("http://"):].rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=5) as sock:
        sock.sendall(
            b"POST /predict HTTP/1.1\r\nHost: test\r\n"
            b"Content-Type: application/json\r\nContent-Length: -1\r\n\r\n"
        )
        reply = b""
        while b"\r\n\r\n" not in reply:  # a hang raises socket.timeout
            chunk = sock.recv(4096)
            assert chunk, f"connection closed without a reply: {reply!r}"
            reply += chunk
    status_line = reply.split(b"\r\n", 1)[0]
    assert status_line.split()[1] == b"400", status_line
    assert b"Content-Type: application/json" in reply


def test_http_valid_requests_still_pass_strict_validation(live_server):
    engine, base = live_server
    status, resp = _post(f"{base}/predict", {"vertices": []})
    assert status == 200 and resp["labels"] == []
    status, resp = _post(f"{base}/predict", {"vertices": [0], "k": 1})
    assert status == 200 and len(resp["topk"][0]) == 1


def test_http_metrics_endpoint(live_server):
    _, base = live_server
    _post(f"{base}/predict", {"vertices": [1, 2]})
    _post(f"{base}/predict", {"vertices": [3], "k": 2})  # metered as topk
    status, snap = _get(f"{base}/metrics")
    assert status == 200
    assert snap["endpoints"]["predict"]["ok"] >= 1
    assert snap["endpoints"]["topk"]["ok"] >= 1
    assert snap["endpoints"]["predict"]["p50_ms"] > 0
    totals = snap["totals"]
    assert totals["requests"] == sum(
        v for k, v in totals.items() if k != "requests"
    )
    # live gauges ride along; the drain counters read 0
    assert snap["num_drains"] == totals["rejected_draining"] == 0
    assert snap["queue_depth"] >= 0 and snap["in_flight"] >= 0


def test_http_update_features(live_server):
    engine, base = live_server
    before = _post(f"{base}/predict", {"vertices": [0]})[1]["labels"]
    rng = np.random.default_rng(21)
    rows = rng.standard_normal(
        (1, engine.features.shape[1])
    ).astype(np.float32)
    status, resp = _post(
        f"{base}/update_features",
        {"vertices": [0], "features": rows.tolist()},
    )
    assert status == 200
    assert resp["status"] == "ok" and "mode" not in resp
    assert resp["num_updated"] == 1
    assert resp["rows_recomputed"] == sum(resp["affected_per_layer"])
    # the service was built without a refresher: its own took the update
    refresher = _get(f"{base}/stats")[1]["refresher"]
    assert (refresher["incremental"], refresher["full"]) == (1, 0)
    assert "full_threshold" not in refresher
    # the served row now reflects the new features (table was refreshed)
    after = _post(f"{base}/predict", {"vertices": [0]})[1]["labels"]
    assert after == np.argmax(engine.logits[[0]], axis=1).tolist()
    assert np.array_equal(engine.features[0], rows[0])
    assert before is not None  # label may or may not move; the row must


def test_http_update_features_validation(live_server):
    """Every malformed feature update answers 400 JSON and publishes
    nothing."""
    engine, base = live_server
    dim = engine.features.shape[1]
    row = [0.0] * dim
    logits, version = engine.logits, engine.version
    cases = [
        {},                                                     # missing keys
        {"vertices": [0]},                                      # no features
        {"vertices": [0], "features": [row], "extra": 1},       # unknown key
        {"vertices": [0, 1], "features": [row]},                # row count
        {"vertices": [0], "features": [row[:-1]]},              # row width
        {"vertices": [0], "features": [[float("nan")] * dim]},  # not finite
        {"vertices": [0], "features": [["a"] * dim]},           # not numeric
        {"vertices": [engine.num_vertices], "features": [row]}, # out of range
    ]
    for body in cases:
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{base}/update_features", body)
        assert err.value.code == 400, body
        assert "error" in json.load(err.value), body
    assert engine.logits is logits and engine.version == version


def test_predict_response_is_one_read_of_one_version(trained, engine):
    """``labels`` and ``topk`` of one response come from one table read:
    an update published right after that read cannot give the response
    labels from one version and top-k from the next."""
    ds, _, _ = trained
    svc = PredictionService(engine)
    vertices = [0, 7, 9]
    rows = np.random.default_rng(31).standard_normal((3, ds.feature_dim))
    reads = []

    def publish_after_first_read(lookup):
        def read(ids):
            out = lookup(ids)
            reads.append(ids)
            if len(reads) == 1:
                svc.update_features(vertices, rows.astype(np.float32))
            return out

        return read

    svc.wrap_lookup(publish_after_first_read)
    old = np.array(engine.logits[vertices], copy=True)
    server = PredictionServer(svc, port=0).start_background()
    host, port = server.address
    try:
        k = ds.num_classes
        _, resp = _post(f"http://{host}:{port}/predict", {"vertices": vertices, "k": k})
    finally:
        server.shutdown()
    assert len(reads) == 1  # one lookup per request
    assert not np.array_equal(engine.logits[vertices], old)  # the update landed
    classes, scores = topk_rows(old, k)
    assert resp["labels"] == np.argmax(old, axis=1).tolist()
    assert resp["topk"] == [
        [{"class": int(c), "score": float(x)} for c, x in zip(crow, srow)]
        for crow, srow in zip(classes, scores)
    ]


# -- each endpoint over one kept-alive http.client connection ---------------------


@pytest.fixture
def conn(live_server):
    """``(engine, connection)``: one kept-alive ``http.client`` socket to
    the live server."""
    engine, base = live_server
    host, port = base[len("http://"):].rsplit(":", 1)
    connection = http.client.HTTPConnection(host, int(port), timeout=10)
    yield engine, connection
    connection.close()


def _call(connection, method, path, payload=None):
    """``(status, decoded JSON body)`` of one request."""
    body = None if payload is None else json.dumps(payload)
    connection.request(method, path, body=body,
                       headers={"Content-Type": "application/json"})
    resp = connection.getresponse()
    return resp.status, json.loads(resp.read())


def test_http_predict_without_k_returns_only_labels(conn):
    engine, connection = conn
    ids = [3, 0, 3]
    status, resp = _call(connection, "POST", "/predict", {"vertices": ids})
    assert status == 200
    assert resp["vertices"] == ids
    assert resp["labels"] == np.argmax(engine.logits[ids], axis=1).tolist()
    assert "topk" not in resp


def test_http_topk_returns_k_classes_and_scores(conn):
    engine, connection = conn
    ids = [5, 1]
    status, resp = _call(connection, "POST", "/predict", {"vertices": ids, "k": 2})
    assert status == 200
    classes, scores = engine.topk(ids, k=2)
    assert resp["topk"] == [
        [{"class": int(c), "score": float(x)} for c, x in zip(crow, srow)]
        for crow, srow in zip(classes, scores)
    ]


def test_http_update_edges_adds_the_edges(conn):
    engine, connection = conn
    src, dst = 0, engine.num_vertices - 1
    version, edges = engine.version, engine.graph.num_edges
    status, resp = _call(connection, "POST", "/update_edges", {"add": [[src, dst]]})
    assert status == 200 and resp["status"] == "ok"
    assert resp["num_added"] == 1 and resp["num_edges"] == edges + 1
    assert engine.version == version + 1
    assert src in engine.graph.neighbors(dst).tolist()
    # the next read serves the refreshed table
    _, read = _call(connection, "POST", "/predict", {"vertices": [dst]})
    assert read["labels"] == np.argmax(engine.logits[[dst]], axis=1).tolist()


def test_http_update_edges_removes_the_edges(conn):
    engine, connection = conn
    src = 1
    dst = next(v for v in range(engine.num_vertices - 1, 0, -1)
               if src not in engine.graph.neighbors(v).tolist())
    assert _call(connection, "POST", "/update_edges", {"add": [[src, dst]]})[0] == 200
    edges = engine.graph.num_edges
    status, resp = _call(connection, "POST", "/update_edges", {"remove": [[src, dst]]})
    assert status == 200 and resp["num_removed"] == 1
    assert resp["num_edges"] == edges - 1
    assert src not in engine.graph.neighbors(dst).tolist()


def test_http_update_features_writes_the_rows(conn):
    engine, connection = conn
    rows = np.random.default_rng(3).standard_normal(
        (2, engine.features.shape[1])
    ).astype(np.float32)
    status, resp = _call(connection, "POST", "/update_features",
                         {"vertices": [2, 6], "features": rows.tolist()})
    assert status == 200
    assert resp["status"] == "ok" and resp["num_updated"] == 2
    np.testing.assert_array_equal(engine.features[[2, 6]], rows)


def test_http_unknown_post_path_answers_404(conn):
    engine, connection = conn
    version = engine.version
    status, resp = _call(connection, "POST", "/nope", {"vertices": [0]})
    assert status == 404 and "error" in resp
    # the connection stays usable, and nothing was applied
    assert _call(connection, "POST", "/predict", {"vertices": [0]})[0] == 200
    assert engine.version == version


def test_http_every_endpoint_on_one_connection_is_counted(conn):
    """Mixed traffic over one socket: every request answers 200 and lands
    in its endpoint's ``ok`` bucket."""
    engine, connection = conn
    dim = engine.features.shape[1]
    requests = {
        "predict": ("/predict", {"vertices": [0, 1]}),
        "topk": ("/predict", {"vertices": [2], "k": 3}),
        "update_edges": ("/update_edges", {"add": [[4, 5]]}),
        "update_features": ("/update_features", {"vertices": [7], "features": [[0.25] * dim]}),
    }
    for _ in range(3):
        for path, payload in requests.values():
            assert _call(connection, "POST", path, payload)[0] == 200
    status, snap = _call(connection, "GET", "/metrics")
    assert status == 200
    for endpoint in requests:
        counts = snap["endpoints"][endpoint]
        assert counts["ok"] == counts["requests"] == 3, endpoint


def test_http_mmap_store_serves_what_resident_serves(trained, engine, tmp_path):
    """``repro serve --feature-store mmap``'s engine answers every
    endpoint as the resident engine does, and a feature update lands in
    the store's patched copy."""
    from repro.featurestore import FeatureStore

    ds, trainer, cfg = trained
    store = FeatureStore.create(str(tmp_path / "features"), ds.features)
    mapped = InferenceEngine(ds, trainer.model, cfg, feature_store=store).precompute()
    assert mapped.feature_store.tier == "mmap"
    server = PredictionServer(PredictionService(mapped), port=0).start_background()
    host, port = server.address
    connection = http.client.HTTPConnection(host, port, timeout=10)
    ids = [0, 4, 9]
    try:
        _, resp = _call(connection, "POST", "/predict", {"vertices": ids, "k": 2})
        classes, scores = engine.topk(ids, k=2)
        assert resp["labels"] == np.argmax(engine.logits[ids], axis=1).tolist()
        assert resp["topk"] == [
            [{"class": int(c), "score": float(x)} for c, x in zip(crow, srow)]
            for crow, srow in zip(classes, scores)
        ]
        row = np.full((1, ds.feature_dim), 0.5, dtype=np.float32)
        status, _ = _call(connection, "POST", "/update_features",
                          {"vertices": [4], "features": row.tolist()})
        assert status == 200
        PredictionService(engine).update_features([4], row)
        _, after = _call(connection, "POST", "/predict", {"vertices": ids})
    finally:
        connection.close()
        server.shutdown()
    np.testing.assert_array_equal(mapped.features[4], row[0])
    np.testing.assert_array_equal(mapped.logits, engine.logits)  # tiers agree
    assert after["labels"] == np.argmax(engine.logits[ids], axis=1).tolist()
