"""Unit contracts of :mod:`repro.obs.trace`.

The serving-level behaviour (one root per admitted request, component
conservation against end-to-end latency) lives in
``tests/serving/test_tracing.py``; this suite pins the tracer machinery
itself: the one switch, the bounded ring, first-close-wins span
completion, explicit context activation, the component sums, and the
pinned Chrome trace-event schema.  The per-endpoint decomposition is the
serving ledger's (``tests/serving/test_serving_metrics.py``).
"""

import json
import threading
import time

import pytest

from repro.obs.trace import (
    RING_CAPACITY,
    Tracer,
    activate,
    chrome_trace,
    current_span,
    get_tracer,
    set_tracer,
    validate_chrome_trace,
)


def make_tracer() -> Tracer:
    return Tracer(enabled=True)


# -- the switch -------------------------------------------------------------------


def test_enabled_tracer_opens_a_root_for_every_request():
    t = make_tracer()
    spans = [t.root("predict") for _ in range(100)]
    assert all(span is not None for span in spans)
    for span in spans:
        span.end("ok")
    records = t.export()
    assert all(r["parent_id"] is None for r in records)
    assert len({r["trace_id"] for r in records}) == 100


def test_disabled_tracer_returns_none_and_records_nothing():
    t = Tracer(enabled=False)
    assert all(t.root(name) is None for name in ("predict", "topk", "update_edges"))
    assert t.stats() == {"finished": 0, "dropped": 0, "buffered": 0}
    assert t.export() == []


@pytest.mark.parametrize(
    "value, enabled",
    [(None, False), ("", False), ("0", False), ("false", False), ("no", False),
     ("1", True), ("yes", True)],
)
def test_env_switch(monkeypatch, value, enabled):
    if value is None:
        monkeypatch.delenv("REPRO_TRACE", raising=False)
    else:
        monkeypatch.setenv("REPRO_TRACE", value)
    assert Tracer().enabled is enabled


# -- bounded ring -----------------------------------------------------------------


def test_ring_bounds_memory_and_counts_drops():
    t = make_tracer()
    total = RING_CAPACITY + 12
    for i in range(total):
        t.root(f"r{i}").end("ok")
    st = t.stats()
    assert st == {"finished": total, "dropped": 12, "buffered": RING_CAPACITY}
    # oldest-first export of the surviving suffix
    assert [s["name"] for s in t.export()] == [f"r{i}" for i in range(12, total)]


# -- span lifecycle ---------------------------------------------------------------


def test_end_is_idempotent_first_close_wins():
    t = make_tracer()
    span = t.root("predict")
    span.add_component("queue", 0.001)
    # the first close hands its frozen components to the caller (the
    # serving ledger); a second close hands back nothing
    assert span.end("timeout") == {"queue": 0.001}
    # a background worker finishing late must not mutate the record
    span.add_component("compute", 0.5)
    assert span.end("ok") == {}
    records = t.export()
    assert len(records) == 1
    rec = records[0]
    assert rec["outcome"] == "timeout"
    assert set(rec["components_ms"]) == {"queue"}


def test_root_record_is_its_own_trace():
    t = make_tracer()
    span = t.root("topk")
    span.end("ok")
    (record,) = t.export()
    assert record["trace_id"] == record["span_id"] == span.span_id
    assert record["parent_id"] is None
    assert record["cat"] == "request" and record["args"] == {}


def test_child_complete_lands_even_after_parent_end():
    t = make_tracer()
    span = t.root("predict")
    span.end("timeout")
    span.child_complete("kernel.ap", 0.002, cat="kernel", rows=4)
    kinds = {(r["name"], r["parent_id"]) for r in t.export()}
    assert ("kernel.ap", span.span_id) in kinds


def test_child_spans_share_trace_id():
    t = make_tracer()
    root = t.root("predict")
    root.child_complete("engine.predict", 0.001)
    root.end("ok")
    child = next(r for r in t.export() if r["name"] == "engine.predict")
    assert child["trace_id"] == root.span_id
    assert child["parent_id"] == root.span_id


def test_with_block_closes_as_error_on_exception():
    t = make_tracer()
    with pytest.raises(RuntimeError):
        with t.root("predict"):
            raise RuntimeError("boom")
    assert t.export()[0]["outcome"] == "error"


# -- explicit activation ----------------------------------------------------------


def test_activate_scopes_and_restores():
    t = make_tracer()
    outer, inner = t.root("outer"), t.root("inner")
    assert current_span() is None
    with activate(outer):
        assert current_span() is outer
        with activate(inner):
            assert current_span() is inner
        assert current_span() is outer
        with activate(None):  # explicit clear, e.g. an untraced request
            assert current_span() is None
        assert current_span() is outer
    assert current_span() is None


def test_activation_never_crosses_threads():
    t = make_tracer()
    span = t.root("predict")
    seen = []
    with activate(span):
        worker = threading.Thread(target=lambda: seen.append(current_span()))
        worker.start()
        worker.join()
    assert seen == [None]


def test_default_tracer_swap():
    sentinel = make_tracer()
    previous = set_tracer(sentinel)
    try:
        assert get_tracer() is sentinel
    finally:
        set_tracer(previous)


# -- export formats ---------------------------------------------------------------


def _traced_request(t: Tracer) -> None:
    span = t.root("predict")
    span.add_component("queue", 0.001)
    span.add_component("compute", 0.003)
    span.child_complete("engine.predict", 0.003, cat="serving", rows=8)
    span.end("ok")


def test_chrome_trace_passes_pinned_schema():
    t = make_tracer()
    for _ in range(3):
        _traced_request(t)
    payload = chrome_trace(t.export())
    assert validate_chrome_trace(payload) == 6  # 3 roots + 3 children
    assert payload["displayTimeUnit"] == "ms"
    # the payload is genuinely JSON-serializable
    assert validate_chrome_trace(json.loads(json.dumps(payload))) == 6


@pytest.mark.parametrize(
    "mutate",
    [
        lambda p: p.pop("traceEvents"),
        lambda p: p["traceEvents"][0].pop("ts"),
        lambda p: p["traceEvents"][0].update(ph="B"),
        lambda p: p["traceEvents"][0].update(dur=-1.0),
        lambda p: p["traceEvents"][0].update(pid=True),
        lambda p: p["traceEvents"][0]["args"].pop("outcome"),
    ],
)
def test_schema_validation_rejects_deviations(mutate):
    t = make_tracer()
    _traced_request(t)
    payload = chrome_trace(t.export())
    mutate(payload)
    with pytest.raises(ValueError):
        validate_chrome_trace(payload)


# -- latency components -------------------------------------------------------


def test_time_compute_is_the_call_less_the_feature_time_inside_it():
    t = make_tracer()
    span = t.root("predict")

    def gather_then_compute():
        span.add_component("feature", 0.010)
        time.sleep(0.030)
        return "rows"

    assert span.time_compute(gather_then_compute) == "rows"
    compute = span.component_seconds("compute")
    assert 0.015 <= compute < 0.5
    # a call shorter than the feature time it recorded computes nothing
    assert span.time_compute(lambda: span.add_component("feature", 10.0)) is None
    assert span.component_seconds("compute") == compute
