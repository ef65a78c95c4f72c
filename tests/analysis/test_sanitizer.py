"""Unit tests for the runtime lock-order sanitizer.

Every test uses a private :class:`LockOrderRecorder` (either passed to
``make_lock(recorder=...)`` or installed via ``scoped_recorder``) so the
process-global recorder — live when the whole suite runs under
``REPRO_SANITIZE=1`` — never sees these deliberately bad orderings.
"""

import threading
import time

import pytest

from repro.analysis.sanitizers import (
    LockOrderRecorder,
    SanitizedLock,
    current_recorder,
    install_probes,
    make_condition,
    make_lock,
    scoped_recorder,
    uninstall_probes,
)


@pytest.fixture
def rec():
    return LockOrderRecorder()


def sanitized(name, rec):
    lock = make_lock(name, recorder=rec, force=True)
    assert isinstance(lock, SanitizedLock)
    return lock


# -- factories ---------------------------------------------------------------


def test_factories_return_plain_primitives_when_off():
    lock = make_lock("x", force=False)
    cond = make_condition("x", force=False)
    assert not isinstance(lock, SanitizedLock)
    with lock:
        pass
    with cond:
        cond.notify_all()


def test_factories_return_instrumented_primitives_when_forced(rec):
    lock = sanitized("a", rec)
    with lock:
        assert rec.held() == ("a",)
    assert rec.held() == ()


def test_sanitized_lock_keeps_the_lock_surface(rec):
    """``name`` / ``locked()`` / non-blocking ``acquire`` behave like the
    ``threading.Lock`` it stands in for."""
    lock = sanitized("engine.publish", rec)
    assert lock.name == "engine.publish" and not lock.locked()
    assert lock.acquire(blocking=False)
    assert lock.locked()
    assert not lock.acquire(blocking=False)
    lock.release()
    assert not lock.locked() and rec.held() == ()


# -- held stacks and edges ---------------------------------------------------


def test_nested_acquisition_records_an_edge(rec):
    a, b = sanitized("a", rec), sanitized("b", rec)
    with a:
        with b:
            assert rec.held() == ("a", "b")
    edges = rec.edges()
    assert len(edges) == 1
    assert (edges[0]["before"], edges[0]["after"]) == ("a", "b")
    assert edges[0]["count"] == 1
    assert "test_sanitizer.py" in edges[0]["site"]
    assert rec.cycles() == []


def test_same_name_reacquisition_is_not_an_edge(rec):
    # Two instances of one class share a lock name; holding both must
    # not self-report a -> a.
    first = sanitized("cache", rec)
    second = sanitized("cache", rec)
    with first:
        with second:
            pass
    assert rec.edges() == []


def test_release_order_independence(rec):
    a, b = sanitized("a", rec), sanitized("b", rec)
    a.acquire()
    b.acquire()
    a.release()  # out-of-order release: pop the right entry, not the top
    assert rec.held() == ("b",)
    b.release()
    assert rec.held() == ()


def test_ab_ba_cycle_is_reported(rec):
    a, b = sanitized("a", rec), sanitized("b", rec)
    with a:
        with b:
            pass
    with b:
        with a:
            pass
    assert rec.cycles() == [["a", "b"]]
    assert rec.findings()["cycles"] == [["a", "b"]]


def test_three_lock_cycle_is_reported(rec):
    a, b, c = (sanitized(n, rec) for n in "abc")
    for outer, inner in ((a, b), (b, c), (c, a)):
        with outer:
            with inner:
                pass
    assert rec.cycles() == [["a", "b", "c"]]


def test_consistent_hierarchy_has_no_cycles(rec):
    a, b, c = (sanitized(n, rec) for n in "abc")
    with a:
        with b:
            with c:
                pass
    with a:
        with c:
            pass
    assert len(rec.edges()) == 3
    assert rec.cycles() == []


def test_cross_thread_edges_combine_into_a_cycle(rec):
    # Thread 1 takes a then b; thread 2 takes b then a — sequentially,
    # so the run cannot deadlock, yet the order graph still convicts.
    a, b = sanitized("a", rec), sanitized("b", rec)

    def t1():
        with a:
            with b:
                pass

    def t2():
        with b:
            with a:
                pass

    for fn in (t1, t2):
        thread = threading.Thread(target=fn)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert rec.cycles() == [["a", "b"]]


def test_trylock_failure_records_nothing(rec):
    a = sanitized("a", rec)
    b = sanitized("a2", rec)
    a._lock.acquire()  # simulate another holder without recording
    try:
        with b:
            assert a.acquire(blocking=False) is False
        assert rec.edges() == []
    finally:
        a._lock.release()


# -- condition variables -----------------------------------------------------


def test_condition_over_sanitized_lock_records(rec):
    cond = make_condition("gate", recorder=rec, force=True)
    assert isinstance(cond, threading.Condition)
    with cond:
        assert rec.held() == ("gate",)
        cond.notify_all()
    assert rec.held() == ()


def test_condition_wait_releases_and_reacquires(rec):
    cond = make_condition("gate", recorder=rec, force=True)
    observed = []

    def waiter():
        with cond:
            cond.wait(timeout=10)
            observed.append(rec.held())

    thread = threading.Thread(target=waiter)
    thread.start()
    time.sleep(0.05)
    with cond:
        cond.notify_all()
    thread.join(timeout=10)
    assert not thread.is_alive()
    # After wait() returns the waiter holds the lock again.
    assert observed == [("gate",)]
    assert rec.cycles() == []


# -- blocking probes ---------------------------------------------------------


def test_sleep_under_lock_is_flagged():
    with scoped_recorder() as rec:
        lock = make_lock("slow", recorder=rec, force=True)
        install_probes()
        try:
            with lock:
                time.sleep(0.001)
        finally:
            uninstall_probes()
        blocking = rec.blocking_calls()
        assert len(blocking) == 1
        assert blocking[0]["held"] == ["slow"]
        assert "time.sleep" in blocking[0]["call"]
        assert rec.findings()["blocking"] == blocking


def test_sleep_without_lock_is_not_flagged():
    with scoped_recorder() as rec:
        install_probes()
        try:
            time.sleep(0.001)
        finally:
            uninstall_probes()
        assert rec.blocking_calls() == []


# -- recorder plumbing -------------------------------------------------------


def test_scoped_recorder_swaps_and_restores():
    outer = current_recorder()
    with scoped_recorder() as inner:
        assert current_recorder() is inner
        assert inner is not outer
    assert current_recorder() is outer


def test_clear_resets_findings(rec):
    a, b = sanitized("a", rec), sanitized("b", rec)
    with a:
        with b:
            pass
    assert rec.edges()
    rec.clear()
    assert rec.edges() == []
    assert rec.cycles() == []


def test_snapshot_is_json_safe(rec):
    import json

    a, b = sanitized("a", rec), sanitized("b", rec)
    with a:
        with b:
            pass
    snap = rec.snapshot()
    assert snap["num_edges"] == 1
    json.dumps(snap)  # must not raise
