"""ServingFrontend unit tests: admission, shedding, deadlines, lifecycle.

These run against a stub service — the pool's behaviour is independent
of what executes on it (the engine-backed paths are covered by the
concurrency / fault / publish-machine suites).
"""

import threading
import time

import pytest

from repro.serving import RequestRejected, RequestTimeout, ServingFrontend

from harness import JOIN_TIMEOUT_S, join_all


class StubService:
    """Just enough surface for the frontend (no engine underneath)."""

    def __init__(self):
        self.updates = []

    def update_edges(self, add=None, remove=None):
        self.updates.append(("edges", add, remove))
        return "edges-ok"

    def update_features(self, vertex_ids, new_rows):
        self.updates.append(("features", vertex_ids, new_rows))
        return "features-ok"


@pytest.fixture
def frontend():
    fe = ServingFrontend(StubService(), num_workers=2, max_queue=4,
                         default_timeout_s=5.0)
    yield fe
    fe.close()


def test_call_runs_on_the_pool_and_returns(frontend):
    worker_names = []
    result = frontend.call(
        "predict",
        lambda: worker_names.append(threading.current_thread().name) or 42,
    )
    assert result == 42
    assert worker_names and worker_names[0].startswith("repro-serve-worker")
    snap = frontend.metrics_snapshot()
    assert snap["endpoints"]["predict"]["ok"] == 1
    assert snap["totals"]["requests"] == 1


def test_exceptions_propagate_with_outcome(frontend):
    with pytest.raises(ValueError, match="bad ids"):
        frontend.call("predict", lambda: (_ for _ in ()).throw(ValueError("bad ids")))
    with pytest.raises(RuntimeError, match="boom"):
        frontend.call("predict", lambda: (_ for _ in ()).throw(RuntimeError("boom")))
    ep = frontend.metrics_snapshot()["endpoints"]["predict"]
    assert ep["bad_request"] == 1 and ep["error"] == 1 and ep["ok"] == 0
    # the pool survives failures: the next request still executes
    assert frontend.call("predict", lambda: "alive") == "alive"


def test_queue_full_rejects_with_429():
    fe = ServingFrontend(StubService(), num_workers=1, max_queue=1,
                         default_timeout_s=5.0)
    release = threading.Event()
    running = threading.Event()
    results = []

    def occupy():
        results.append(fe.call("predict", lambda: (
            running.set(), release.wait(JOIN_TIMEOUT_S))[1]))

    t1 = threading.Thread(target=occupy, daemon=True)
    t1.start()
    assert running.wait(JOIN_TIMEOUT_S)  # worker busy, depth 0

    t2 = threading.Thread(
        target=lambda: results.append(fe.call("predict", lambda: True)),
        daemon=True,
    )
    t2.start()
    # wait for t2's request to be admitted (depth 1 == max_queue)
    deadline = time.monotonic() + JOIN_TIMEOUT_S
    while fe.queue_depth < 1:
        assert time.monotonic() < deadline, "request never queued"
        time.sleep(0.001)

    with pytest.raises(RequestRejected) as err:
        fe.call("predict", lambda: True)
    assert err.value.status == 429
    assert err.value.retry_after_s > 0
    assert fe.metrics_snapshot()["endpoints"]["predict"]["rejected_queue_full"] == 1

    release.set()
    join_all([t1, t2])
    assert results == [True, True]  # both admitted requests completed
    fe.close()


def test_timeout_cancels_queued_work():
    """A request that misses its deadline answers 503; if it was still
    queued it is cancelled and its body never executes."""
    fe = ServingFrontend(StubService(), num_workers=1, max_queue=4,
                         default_timeout_s=5.0)
    release = threading.Event()
    running = threading.Event()
    executed = []

    t1 = threading.Thread(
        target=lambda: fe.call("predict", lambda: (
            running.set(), release.wait(JOIN_TIMEOUT_S))),
        daemon=True,
    )
    t1.start()
    assert running.wait(JOIN_TIMEOUT_S)

    with pytest.raises(RequestTimeout) as err:
        fe.call("predict", lambda: executed.append(1), timeout_s=0.05)
    assert err.value.status == 503
    release.set()
    join_all([t1])
    # give the worker a beat to drain the queue, then check the
    # cancelled body never ran
    deadline = time.monotonic() + JOIN_TIMEOUT_S
    while fe.queue_depth or fe.in_flight:
        assert time.monotonic() < deadline
        time.sleep(0.001)
    assert executed == []
    assert fe.metrics_snapshot()["endpoints"]["predict"]["timeout"] == 1
    fe.close()


def test_per_endpoint_timeouts(frontend):
    frontend.timeouts["topk"] = 0.125
    assert frontend.timeout_for("topk") == 0.125
    assert frontend.timeout_for("predict") == 5.0


def test_updates_delegate_to_service(frontend):
    assert frontend.update_edges(add=[(0, 1)]) == "edges-ok"
    assert frontend.update_features([0], [[1.0]]) == "features-ok"
    assert [u[0] for u in frontend.service.updates] == ["edges", "features"]
    snap = frontend.metrics_snapshot()
    assert snap["endpoints"]["update_edges"]["ok"] == 1
    assert snap["endpoints"]["update_features"]["ok"] == 1


def test_update_failure_records_and_reopens(frontend):
    def bad_update(add=None, remove=None):
        raise ValueError("malformed pairs")

    frontend.service.update_edges = bad_update
    with pytest.raises(ValueError, match="malformed pairs"):
        frontend.update_edges(add=[("x", "y")])
    assert frontend.metrics_snapshot()["endpoints"]["update_edges"]["bad_request"] == 1
    assert frontend.call("predict", lambda: "served") == "served"


def test_update_runs_while_the_pool_is_busy():
    """Updates never wait for in-flight reads: with the only worker
    parked inside a read, an update still runs to completion."""
    fe = ServingFrontend(StubService(), num_workers=1, max_queue=4,
                         default_timeout_s=30.0)
    release = threading.Event()
    running = threading.Event()
    t = threading.Thread(
        target=lambda: fe.call("predict", lambda: (
            running.set(), release.wait(JOIN_TIMEOUT_S))),
        daemon=True,
    )
    t.start()
    assert running.wait(JOIN_TIMEOUT_S)
    assert fe.update_edges(add=[(0, 1)]) == "edges-ok"
    assert fe.in_flight == 1  # the read is still parked
    release.set()
    join_all([t])
    fe.close()


def test_close_rejects_new_and_fails_queued():
    fe = ServingFrontend(StubService(), num_workers=1, max_queue=4)
    assert fe.call("predict", lambda: 1) == 1
    fe.close()
    fe.close()  # idempotent
    with pytest.raises(RuntimeError, match="closed"):
        fe.call("predict", lambda: 1)


def test_constructor_validation():
    with pytest.raises(ValueError, match="num_workers"):
        ServingFrontend(StubService(), num_workers=0)
    with pytest.raises(ValueError, match="max_queue"):
        ServingFrontend(StubService(), max_queue=0)
    with pytest.raises(ValueError, match="default_timeout_s"):
        ServingFrontend(StubService(), default_timeout_s=0.0)


# -- exception classification through the worker pool -------------------------


def test_cancellation_exceptions_propagate_uncounted(frontend):
    """The pool's broad handlers are classified, not absorbent: a
    ``BaseException``-derived cancellation raised by the request body
    must reach the caller intact (the worker's ``except BaseException``
    only re-routes it through the future; ``call``'s ``except
    Exception`` error bucket must not see it)."""
    from asyncio import CancelledError  # BaseException-derived since 3.8

    def cancelled():
        raise CancelledError("torn down mid-request")

    with pytest.raises(CancelledError, match="torn down mid-request"):
        frontend.call("predict", cancelled)

    class Teardown(BaseException):
        pass

    with pytest.raises(Teardown):
        frontend.call("predict", lambda: (_ for _ in ()).throw(Teardown()))

    # Neither cancellation landed in the error bucket, and the pool is
    # still alive — a plain request afterwards succeeds.
    assert frontend.call("predict", lambda: "ok") == "ok"
    snap = frontend.metrics_snapshot()
    assert snap["endpoints"]["predict"].get("error", 0) == 0
    assert snap["endpoints"]["predict"]["ok"] == 1


def test_plain_errors_are_counted_then_reraised(frontend):
    class Boom(RuntimeError):
        pass

    with pytest.raises(Boom):
        frontend.call("predict", lambda: (_ for _ in ()).throw(Boom()))
    snap = frontend.metrics_snapshot()
    assert snap["endpoints"]["predict"]["error"] == 1
