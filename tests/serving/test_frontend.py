"""ServingFrontend unit tests: admission, shedding, deadlines, lifecycle.

These run against a stub service — the gate's behaviour is independent
of what executes behind it (the engine-backed paths are covered by the
concurrency / fault / publish-machine suites).
"""

import sys
import threading
import time

import pytest

from repro.serving import (
    RequestRejected,
    RequestTimeout,
    ServingFrontend,
    ServingUnavailable,
)

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


def test_call_runs_on_the_calling_thread_and_returns():
    before = set(threading.enumerate())
    frontend = ServingFrontend(StubService(), num_workers=2, max_queue=4)
    assert set(threading.enumerate()) - before == set()  # starts no thread
    ran_on = []
    result = frontend.call(
        "predict", lambda: ran_on.append(threading.current_thread()) or 42
    )
    assert result == 42
    assert ran_on == [threading.current_thread()]
    frontend.close()
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
    # the gate survives failures: the next request still executes
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
    assert running.wait(JOIN_TIMEOUT_S)  # the one slot busy, depth 0

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
    # wait for the gate to empty, then check the timed-out body never ran
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
    """Updates never wait for in-flight reads: with the only slot
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


# -- exception classification through the gate -------------------------------


def test_cancellation_exceptions_propagate_uncounted(frontend):
    """The gate's broad handlers are classified, not absorbent: a
    ``BaseException``-derived cancellation raised by the request body
    must reach the caller intact (``call``'s ``except Exception`` error
    bucket must not see it)."""
    from asyncio import CancelledError  # BaseException-derived since 3.8

    def cancelled():
        raise CancelledError("torn down mid-request")

    with pytest.raises(CancelledError, match="torn down mid-request"):
        frontend.call("predict", cancelled)

    class Teardown(BaseException):
        pass

    with pytest.raises(Teardown):
        frontend.call("predict", lambda: (_ for _ in ()).throw(Teardown()))

    # Neither cancellation landed in the error bucket, and the gate is
    # still open — a plain request afterwards succeeds.
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


# -- the admission gate -----------------------------------------------------------


def _wait_for(predicate, what: str) -> None:
    deadline = time.monotonic() + JOIN_TIMEOUT_S
    while not predicate():
        assert time.monotonic() < deadline, what
        time.sleep(0.001)


def test_gate_bounds_running_and_waiting_calls():
    """``num_workers + max_queue + 1`` callers released together: the
    slots fill, the queue fills, exactly one caller is shed with 429,
    and no more than ``num_workers`` bodies ever run at once."""
    num_workers, max_queue = 2, 3
    fe = ServingFrontend(StubService(), num_workers=num_workers,
                         max_queue=max_queue, default_timeout_s=JOIN_TIMEOUT_S)
    callers = num_workers + max_queue + 1
    barrier = threading.Barrier(callers)
    release = threading.Event()
    lock = threading.Lock()
    running, peak, outcomes = [0], [0], []

    def body():
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        release.wait(JOIN_TIMEOUT_S)
        with lock:
            running[0] -= 1
        return "ok"

    def caller():
        barrier.wait(JOIN_TIMEOUT_S)
        try:
            outcomes.append(fe.call("predict", body))
        except RequestRejected as exc:
            outcomes.append(exc.status)

    threads = [threading.Thread(target=caller, daemon=True) for _ in range(callers)]
    for t in threads:
        t.start()
    _wait_for(lambda: 429 in outcomes, "nobody was shed")
    assert (fe.in_flight, fe.queue_depth) == (num_workers, max_queue)
    release.set()
    join_all(threads)
    assert sorted(outcomes, key=str) == [429] + ["ok"] * (callers - 1)
    assert peak[0] == num_workers
    ep = fe.metrics_snapshot()["endpoints"]["predict"]
    assert ep["rejected_queue_full"] == 1 and ep["ok"] == callers - 1
    assert (fe.in_flight, fe.queue_depth) == (0, 0)
    fe.close()


def test_waiter_leaves_at_its_deadline_without_running():
    """A waiter still queued at its deadline leaves the queue itself (the
    slot is still busy) and its body never runs."""
    fe = ServingFrontend(StubService(), num_workers=1, max_queue=4,
                         default_timeout_s=JOIN_TIMEOUT_S)
    release, running = threading.Event(), threading.Event()
    t = threading.Thread(
        target=lambda: fe.call("predict", lambda: (
            running.set(), release.wait(JOIN_TIMEOUT_S))),
        daemon=True,
    )
    t.start()
    assert running.wait(JOIN_TIMEOUT_S)
    executed = []
    t0 = time.perf_counter()
    with pytest.raises(RequestTimeout, match="timed out"):
        fe.call("predict", lambda: executed.append(1), timeout_s=0.05)
    assert time.perf_counter() - t0 >= 0.05
    assert (fe.in_flight, fe.queue_depth) == (1, 0)
    release.set()
    join_all([t])
    assert executed == []
    fe.close()


def test_close_wakes_waiters_with_serving_unavailable():
    fe = ServingFrontend(StubService(), num_workers=1, max_queue=4,
                         default_timeout_s=JOIN_TIMEOUT_S)
    release, running = threading.Event(), threading.Event()
    results, errors = [], []

    def waiter():
        try:
            fe.call("predict", lambda: "ran")
        except ServingUnavailable as exc:
            errors.append(exc)

    busy = threading.Thread(
        target=lambda: results.append(fe.call("predict", lambda: (
            running.set(), release.wait(JOIN_TIMEOUT_S))[1])),
        daemon=True,
    )
    busy.start()
    assert running.wait(JOIN_TIMEOUT_S)
    waiters = [threading.Thread(target=waiter, daemon=True) for _ in range(2)]
    for w in waiters:
        w.start()
    _wait_for(lambda: fe.queue_depth == 2, "waiters never queued")
    fe.close()
    join_all(waiters)  # woken by close, while the running call still runs
    assert [type(e) for e in errors] == [ServingUnavailable] * 2
    assert all("closed" in str(e) and e.status == 503 for e in errors)
    assert fe.queue_depth == 0 and fe.in_flight == 1
    release.set()
    join_all([busy])
    assert results == [True]  # a running call is never abandoned
    assert fe.in_flight == 0


def test_base_exception_leaves_the_gate_empty():
    """A cancellation escaping ``fn`` frees its slot: the waiter behind
    it runs, and both gauges return to 0."""
    fe = ServingFrontend(StubService(), num_workers=1, max_queue=4,
                         default_timeout_s=JOIN_TIMEOUT_S)

    class Teardown(BaseException):
        pass

    release, running = threading.Event(), threading.Event()
    raised, served = [], []

    def torn_down():
        running.set()
        release.wait(JOIN_TIMEOUT_S)
        raise Teardown()

    def first():
        try:
            fe.call("predict", torn_down)
        except Teardown as exc:
            raised.append(exc)

    t1 = threading.Thread(target=first, daemon=True)
    t1.start()
    assert running.wait(JOIN_TIMEOUT_S)
    t2 = threading.Thread(
        target=lambda: served.append(fe.call("predict", lambda: "next")), daemon=True
    )
    t2.start()
    _wait_for(lambda: fe.queue_depth == 1, "second caller never queued")
    release.set()
    join_all([t1, t2])
    assert len(raised) == 1 and served == ["next"]
    assert (fe.in_flight, fe.queue_depth) == (0, 0)
    with pytest.raises(Teardown):
        fe.call("predict", lambda: (_ for _ in ()).throw(Teardown()))
    assert (fe.in_flight, fe.queue_depth) == (0, 0)
    fe.close()


def test_call_finishing_past_its_deadline_times_out_once(frontend):
    """A running call cannot be abandoned: it finishes, then answers 503
    because its deadline passed, and counts one ``timeout``, no ``ok``."""
    ran = []
    with pytest.raises(RequestTimeout, match="timed out after 0.02s") as err:
        frontend.call("predict", lambda: time.sleep(0.1) or ran.append(1),
                      timeout_s=0.02)
    assert err.value.status == 503 and err.value.retry_after_s > 0
    assert ran == [1]
    snap = frontend.metrics_snapshot()
    ep = snap["endpoints"]["predict"]
    assert ep["timeout"] == 1 and ep["ok"] == 0
    assert snap["totals"]["requests"] == 1
    assert (frontend.in_flight, frontend.queue_depth) == (0, 0)


def test_gate_holds_its_bounds_under_a_thread_storm():
    """16 callers (more than cores) hammering a 2-slot, 2-waiter gate
    with a short switch interval: never more than 2 bodies at once, every
    call counted once as ``ok`` or ``rejected_queue_full``, gauges back
    to 0 — a lost counter update breaks one of these."""
    fe = ServingFrontend(StubService(), num_workers=2, max_queue=2,
                         default_timeout_s=JOIN_TIMEOUT_S)
    lock = threading.Lock()
    running, peak, answered = [0], [0], []

    def body():
        with lock:
            running[0] += 1
            peak[0] = max(peak[0], running[0])
        time.sleep(0)
        with lock:
            running[0] -= 1

    def caller():
        for _ in range(200):
            try:
                fe.call("predict", body)
                answered.append("ok")
            except RequestRejected:
                answered.append("rejected_queue_full")

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, daemon=True) for _ in range(16)]
        for t in threads:
            t.start()
        join_all(threads)
    finally:
        sys.setswitchinterval(previous)
    assert 1 <= peak[0] <= 2
    ep = fe.metrics_snapshot()["endpoints"]["predict"]
    assert len(answered) == 16 * 200
    assert ep["ok"] == answered.count("ok")
    assert ep["rejected_queue_full"] == answered.count("rejected_queue_full")
    assert ep["ok"] + ep["rejected_queue_full"] == 16 * 200
    assert (fe.in_flight, fe.queue_depth) == (0, 0)
    fe.close()
