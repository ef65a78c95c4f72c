"""Fault injection: every failure is a structured JSON answer.

Injected engine exceptions, deadline misses, queue-full shedding, and
malformed bodies — the server must answer 400/429/500/503 (with
``Retry-After`` where retrying helps) and keep serving afterwards;
never a traceback page, never a wedged worker.
"""

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serving import PredictionServer, ServingFrontend

from harness import (
    JOIN_TIMEOUT_S,
    blocking_lookup,
    flaky_lookup,
    join_all,
    make_service,
    slow_lookup,
)


def _post(url, payload, timeout=JOIN_TIMEOUT_S):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=timeout) as resp:
        return resp.status, json.load(resp)


def _get(url):
    with urllib.request.urlopen(url, timeout=JOIN_TIMEOUT_S) as resp:
        return resp.status, json.load(resp)


@pytest.fixture
def faulty_server(engine):
    """A live server with small limits and an injectable service; tests
    receive (service, frontend, base_url)."""
    svc = make_service(engine)
    fe = ServingFrontend(svc, num_workers=1, max_queue=1,
                         default_timeout_s=10.0)
    server = PredictionServer(svc, port=0, frontend=fe).start_background()
    host, port = server.address
    yield svc, fe, f"http://{host}:{port}"
    server.shutdown()


def test_injected_engine_failure_is_a_json_500(faulty_server):
    svc, _, base = faulty_server
    svc.wrap_lookup(flaky_lookup("injected engine failure", every=2))
    # 1st call succeeds, 2nd hits the injected failure, 3rd recovers —
    # the worker survives the exception
    status, _ = _post(f"{base}/predict", {"vertices": [0]})
    assert status == 200
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(f"{base}/predict", {"vertices": [1]})
    assert err.value.code == 500
    body = json.load(err.value)
    assert "injected engine failure" in body["error"]
    assert "Traceback" not in body["error"]
    status, resp = _post(f"{base}/predict", {"vertices": [2]})
    assert status == 200 and len(resp["labels"]) == 1
    snap = _get(f"{base}/metrics")[1]
    assert snap["endpoints"]["predict"]["error"] == 1
    assert snap["endpoints"]["predict"]["ok"] == 2


def test_slow_handler_hits_deadline_then_recovers(faulty_server):
    svc, fe, base = faulty_server
    fe.timeouts["predict"] = 0.2
    svc.wrap_lookup(slow_lookup(1.0))
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(f"{base}/predict", {"vertices": [3]})
    assert err.value.code == 503
    assert int(err.value.headers["Retry-After"]) >= 1
    body = json.load(err.value)
    assert "timed out" in body["error"]
    # the worker finishes the abandoned call in the background and is
    # then free again: a relaxed-deadline request succeeds
    fe.timeouts["predict"] = 10.0
    status, _ = _post(f"{base}/predict", {"vertices": [4]})
    assert status == 200
    assert _get(f"{base}/metrics")[1]["endpoints"]["predict"]["timeout"] == 1


def test_queue_full_answers_429_with_retry_after(faulty_server):
    svc, fe, base = faulty_server
    release = threading.Event()
    started = threading.Event()
    svc.wrap_lookup(blocking_lookup(release, started))
    results = []

    def fire(vid):
        results.append(_post(f"{base}/predict", {"vertices": [vid]})[0])

    # request 1 occupies the single worker (parked in the engine),
    # request 2 fills the one-slot queue, request 3 must shed
    t1 = threading.Thread(target=fire, args=(0,), daemon=True)
    t1.start()
    assert started.wait(JOIN_TIMEOUT_S)
    t2 = threading.Thread(target=fire, args=(1,), daemon=True)
    t2.start()
    deadline = threading.Event()
    for _ in range(1000):
        if fe.queue_depth >= 1:
            deadline.set()
            break
        threading.Event().wait(0.005)
    assert deadline.is_set(), "second request never queued"

    with pytest.raises(urllib.error.HTTPError) as err:
        _post(f"{base}/predict", {"vertices": [2]})
    assert err.value.code == 429
    assert int(err.value.headers["Retry-After"]) >= 1
    assert "queue full" in json.load(err.value)["error"]

    release.set()
    join_all([t1, t2])
    assert results == [200, 200]  # both admitted requests completed
    snap = _get(f"{base}/metrics")[1]["endpoints"]["predict"]
    assert snap["rejected_queue_full"] == 1 and snap["ok"] == 2


def test_malformed_update_bodies_return_400_json(faulty_server):
    _, _, base = faulty_server
    cases = [
        ("/update_edges", {"add": [[0]]}),            # not a pair
        ("/update_edges", {"add": [[0.5, 1]]}),       # float endpoint
        ("/update_edges", {"add": "0,1"}),            # not a list
        ("/update_edges", {"typo": [[0, 1]]}),        # unknown key
        ("/update_edges", {}),                        # nothing to do
        ("/update_features", {"vertices": [0]}),                      # missing rows
        ("/update_features", {"vertices": [0], "features": [[1], [2]]}),  # misaligned
        ("/update_features", {"vertices": [0], "features": "x"}),     # not rows
        ("/update_features", {"vertices": [0], "features": [[float("nan")]]}),
        ("/update_features", {"vertices": [0], "features": [[1.0]], "k": 3}),
    ]
    for path, payload in cases:
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{base}{path}", payload)
        assert err.value.code == 400, (path, payload)
        body = json.load(err.value)
        assert "error" in body and "Traceback" not in body["error"], (path, payload)


def test_update_failure_does_not_wedge_serving(faulty_server):
    """A 400 update (rejected payload) leaves serving untouched."""
    svc, fe, base = faulty_server
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(f"{base}/update_edges", {"add": [[0, "x"]]})
    assert err.value.code == 400
    status, health = _get(f"{base}/healthz")
    assert status == 200 and health == {"status": "ok"}
    status, _ = _post(f"{base}/predict", {"vertices": [0]})
    assert status == 200


def test_feature_update_wrong_width_is_400(faulty_server, trained):
    ds, _, _ = trained
    _, _, base = faulty_server
    wrong = [[1.0] * (ds.feature_dim + 1)]
    with pytest.raises(urllib.error.HTTPError) as err:
        _post(f"{base}/update_features", {"vertices": [0], "features": wrong})
    assert err.value.code == 400
    assert "error" in json.load(err.value)
