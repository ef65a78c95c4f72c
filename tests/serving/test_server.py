"""PredictionService composition and the HTTP endpoint."""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serving import (
    IncrementalRefresher,
    PredictionServer,
    PredictionService,
    ResultCache,
)


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


def test_table_mode_reads_skip_cache_and_batcher(engine):
    """Without a deferred refresher a read is a table row: the cache is
    kept but never consulted, and no batcher is built."""
    ids = np.array([7, 3, 7, 11])
    for refresher in (None, IncrementalRefresher(engine)):
        with PredictionService(
            engine, cache=ResultCache(8), batch=True, max_batch=16,
            max_wait_ms=0.5, refresher=refresher,
        ) as svc:
            assert np.array_equal(svc.predict_logits(ids), engine.logits[ids])
            assert svc.batcher is None
            assert svc.cache.lookups == 0
            assert svc.stats()["batcher"] is None


def test_service_cache_and_batcher_preserve_results(engine):
    ids = np.array([7, 3, 7, 11])
    ref = IncrementalRefresher(engine, deferred=True)
    with PredictionService(
        engine, cache=ResultCache(8), batch=True, max_batch=16, max_wait_ms=0.5,
        refresher=ref,
    ) as svc:
        first = svc.predict_logits(ids)
        second = svc.predict_logits(ids)  # fully cached now
        assert np.array_equal(first, engine.logits[ids])
        assert np.array_equal(second, first)
        assert svc.cache.hits >= 3
        topk_classes, _ = svc.topk(ids, k=2)
        assert topk_classes.shape == (4, 2)
    stats = svc.stats()
    assert stats["cache"]["hits"] == svc.cache.hits
    assert stats["batcher"]["requests"] == 3


def test_service_routes_through_refresher(trained, engine):
    ds, _, _ = trained
    ref = IncrementalRefresher(engine, full_threshold=0.0, deferred=True)
    rng = np.random.default_rng(5)
    ids = np.array([2, 8])
    ref.update_features(ids, rng.standard_normal((2, ds.feature_dim)).astype(np.float32))
    with PredictionService(engine, refresher=ref) as svc:
        got = svc.predict_logits(ids)
    # served rows reflect the update even though the tables are stale
    assert not np.array_equal(got, engine.logits[ids])
    assert svc.stats()["refresher"]["stale_vertices"] > 0


def test_cache_invalidated_by_refresh(trained, engine):
    """A refresher update must not leave stale rows in the deferred
    path's result cache."""
    ds, _, _ = trained
    ref = IncrementalRefresher(engine, full_threshold=1.0, deferred=True)
    with PredictionService(engine, cache=ResultCache(64), refresher=ref) as svc:
        ids = np.array([0, 1])
        before = svc.predict_logits(ids)  # fills the cache
        rng = np.random.default_rng(11)
        upd = np.array([0])
        ref.update_features(
            upd, rng.standard_normal((1, ds.feature_dim)).astype(np.float32)
        )
        after = svc.predict_logits(ids)
        assert np.array_equal(after, engine.logits[ids])
        assert not np.array_equal(after[0], before[0])


def test_empty_request_with_cache(trained, engine):
    ds, _, _ = trained
    with PredictionService(engine, cache=ResultCache(8)) as svc:
        rows = svc.predict_logits([])
        assert rows.shape == (0, ds.num_classes)
        assert svc.predict([]).shape == (0,)


# -- HTTP endpoint ----------------------------------------------------------------


@pytest.fixture
def live_server(engine):
    svc = PredictionService(engine, cache=ResultCache(64))
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
    assert stats["cache"]["capacity"] == 64
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
    assert 0.0 <= snap["cache_hit_rate"] <= 1.0


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
    assert resp["status"] == "ok" and resp["mode"] in ("incremental", "full")
    assert resp["num_updated"] == 1
    # the served row now reflects the new features (table was refreshed)
    after = _post(f"{base}/predict", {"vertices": [0]})[1]["labels"]
    assert after == np.argmax(engine.logits[[0]], axis=1).tolist()
    assert np.array_equal(engine.features[0], rows[0])
    assert before is not None  # label may or may not move; the row must
