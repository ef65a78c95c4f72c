"""Unit contracts of :mod:`repro.obs.trace`.

The serving-level behaviour (one root per admitted request, component
conservation against end-to-end latency) lives in
``tests/serving/test_tracing.py``; this suite pins the tracer machinery
itself: deterministic head sampling, the bounded ring, first-close-wins
span completion, explicit context activation, and the pinned Chrome
trace-event schema.
"""

import json
import threading

import pytest

from repro.obs.trace import (
    COMPONENTS,
    Span,
    Tracer,
    activate,
    chrome_trace,
    current_span,
    get_tracer,
    set_tracer,
    validate_chrome_trace,
)


def make_tracer(**kwargs) -> Tracer:
    kwargs.setdefault("enabled", True)
    kwargs.setdefault("sample_rate", 1.0)
    return Tracer(**kwargs)


# -- sampling ---------------------------------------------------------------------


def test_head_sampling_is_deterministic():
    """rate 0.25 keeps exactly every 4th root — twice, identically."""
    decisions = []
    for _ in range(2):
        t = make_tracer(sample_rate=0.25)
        kept = [t.root("predict") is not None for _ in range(100)]
        decisions.append(kept)
        assert sum(kept) == 25
        st = t.stats()
        assert st["seen"] == 100 and st["sampled"] == 25
    assert decisions[0] == decisions[1]


def test_disabled_tracer_returns_none_and_counts_nothing():
    t = Tracer(enabled=False)
    assert t.root("predict") is None
    assert t.stats()["seen"] == 0


def test_zero_sample_rate_keeps_nothing():
    t = make_tracer(sample_rate=0.0)
    assert all(t.root("predict") is None for _ in range(10))


def test_tracer_validates_parameters():
    with pytest.raises(ValueError, match="sample_rate"):
        make_tracer(sample_rate=1.5)
    with pytest.raises(ValueError, match="capacity"):
        make_tracer(capacity=0)


def test_env_defaults(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    assert not Tracer().enabled
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.setenv("REPRO_TRACE_SAMPLE", "0.5")
    monkeypatch.setenv("REPRO_TRACE_BUFFER", "17")
    t = Tracer()
    assert t.enabled and t.sample_rate == 0.5 and t.capacity == 17


# -- bounded ring -----------------------------------------------------------------


def test_ring_bounds_memory_and_counts_drops():
    t = make_tracer(capacity=8)
    for i in range(20):
        t.root(f"r{i}").end("ok")
    st = t.stats()
    assert st["buffered"] == 8
    assert st["finished"] == 20
    assert st["dropped"] == 12
    # oldest-first export of the surviving suffix
    assert [s["name"] for s in t.export()] == [f"r{i}" for i in range(12, 20)]


# -- span lifecycle ---------------------------------------------------------------


def test_end_is_idempotent_first_close_wins():
    t = make_tracer()
    span = t.root("predict")
    span.add_component("queue", 0.001)
    span.end("timeout")
    # a background worker finishing late must not mutate the record
    span.add_component("compute", 0.5)
    span.end("ok")
    records = t.export()
    assert len(records) == 1
    rec = records[0]
    assert rec["outcome"] == "timeout"
    assert set(rec["components_ms"]) == {"queue"}


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
    assert child["trace_id"] == root.trace_id
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
        with activate(None):  # explicit clear, e.g. unsampled request
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
    span.end("ok", e2e_s=0.005)


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


# -- latency decomposition --------------------------------------------------------


def test_decomposition_tracks_components_vs_e2e():
    t = make_tracer()
    for _ in range(4):
        _traced_request(t)
    dec = t.decomposition()["predict"]
    assert dec["count"] == 4
    assert dec["e2e"]["mean_ms"] == pytest.approx(5.0)
    assert dec["components"]["queue"]["mean_ms"] == pytest.approx(1.0)
    assert dec["components"]["compute"]["mean_ms"] == pytest.approx(3.0)
    assert dec["component_sum_mean_ms"] == pytest.approx(4.0)
    assert dec["unattributed_mean_ms"] == pytest.approx(1.0)
    # component names stay within the canonical vocabulary here
    assert set(dec["components"]) <= set(COMPONENTS)


def test_decomposition_counts_only_ok_roots():
    t = make_tracer()
    span = t.root("predict")
    span.add_component("queue", 0.001)
    span.end("timeout")
    assert t.decomposition() == {}


def test_span_outside_tracer_root_is_not_decomposed():
    """Child spans never feed the per-endpoint decomposition."""
    t = make_tracer()
    root = t.root("predict")
    root.child_complete("engine.predict", 0.001)
    root.end("ok", e2e_s=0.002)
    dec = t.decomposition()
    assert set(dec) == {"predict"}
    assert dec["predict"]["count"] == 1
