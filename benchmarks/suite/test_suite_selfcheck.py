"""Self-checks of the benchmark's own tooling (no sockets, no children).

The harness is the yardstick every later PR is measured with, so its
percentile rule, schedule generator, span arithmetic, verdict logic and
the ``BENCHMARK.json`` contract are pinned here.
"""

from __future__ import annotations

import importlib.util
import json
import os
import re

import numpy as np
import pytest

import suite_harness as h

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))


def _load_run():
    # run.py is loaded under a private name: "run" is too generic to put
    # into sys.modules of a whole test session
    spec = importlib.util.spec_from_file_location(
        "suite_run", os.path.join(SUITE_DIR, "run.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load_run()


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# -- percentile helper -----------------------------------------------------------------


def test_percentile_edge_cases():
    assert h.percentile([7.0], 50) == 7.0
    assert h.percentile([7.0], 99.9) == 7.0
    assert h.percentile([1.0, 3.0], 50) == 2.0
    assert h.percentile([3.0, 1.0, 2.0], 0) == 1.0
    assert h.percentile([3.0, 1.0, 2.0], 100) == 3.0
    assert h.percentile(list(range(101)), 90) == 90.0
    with pytest.raises(ValueError):
        h.percentile([], 50)
    with pytest.raises(ValueError):
        h.percentile([1.0], 101)


def test_percentile_matches_numpy():
    rng = np.random.default_rng(0)
    data = rng.exponential(size=257).tolist()
    for q in (0, 12.5, 50, 90, 99, 100):
        assert h.percentile(data, q) == pytest.approx(np.percentile(data, q), rel=1e-12)


@pytest.mark.parametrize(
    "n, q",
    [(1, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, q):
    assert h.tail_quantile(n) == q
    assert round(n * (100 - q) / 100, 6) >= h.MIN_BEYOND or q == 50.0


def test_summarize_reports_count_median_and_tail():
    out = h.summarize([float(i) for i in range(1, 101)])
    assert out["n"] == 100 and out["tail_q"] == 90.0
    assert out["p50"] == 50.5 and out["tail"] == pytest.approx(90.1)


# -- schedules -------------------------------------------------------------------------


def _schedule(seed: int):
    arrivals = h.poisson_arrivals(np.random.default_rng([seed, 0]), 200.0, 2.0)
    return arrivals, h.read_requests(seed, arrivals, num_vertices=5000)


def test_schedule_is_a_pure_function_of_the_seed():
    _, a = _schedule(3)
    _, b = _schedule(3)
    _, c = _schedule(4)
    assert h.schedule_bytes(a) == h.schedule_bytes(b)
    assert h.schedule_bytes(a) != h.schedule_bytes(c)


def test_schedule_shape():
    arrivals, requests = _schedule(0)
    assert np.all(np.diff(arrivals) > 0) and arrivals[0] >= 0 and arrivals[-1] < 2.0
    assert 300 < len(requests) < 500  # 400 expected
    kinds = {r.kind for r in requests}
    assert kinds == {"predict", "topk"}
    topk = sum(r.kind == "topk" for r in requests) / len(requests)
    assert 0.15 < topk < 0.35
    for r in requests[:20]:
        body = json.loads(r.body)
        assert len(body["vertices"]) == 8
        assert all(0 <= v < 5000 for v in body["vertices"])
        assert ("k" in body) == (r.kind == "topk")


def test_poisson_scv_is_one_and_bursty_is_above():
    arrivals = h.poisson_arrivals(np.random.default_rng(1), 1000.0, 20.0)
    assert h.interarrival_scv(arrivals) == pytest.approx(1.0, abs=0.08)
    # a two-rate mixture of the same mean is over-dispersed (SCV > 1)
    rng = np.random.default_rng(2)
    gaps = np.where(rng.random(20000) < 0.5, rng.exponential(0.0002, 20000),
                    rng.exponential(0.0018, 20000))
    assert h.interarrival_scv(np.cumsum(gaps)) > 1.3


def test_zipf_is_skewed_and_in_range():
    ids = h.zipf_vertices(np.random.default_rng(0), 1000, 20000)
    assert ids.min() >= 0 and ids.max() < 1000
    counts = np.sort(np.bincount(ids, minlength=1000))[::-1]
    assert counts[:10].sum() > 0.25 * ids.size  # ten hottest of 1000 take > 25 %
    assert counts[0] < 0.5 * ids.size


# -- spans -----------------------------------------------------------------------------


def test_self_time_with_nested_and_overlapping_children():
    rec = h.SpanRecorder("w")
    root = rec.add("root", 0.0, 10.0)
    a = rec.add("a", 1.0, 4.0, parent=root)
    rec.add("b", 3.0, 6.0, parent=root)  # overlaps a by 1
    rec.add("c", 8.0, 12.0, parent=root)  # sticks out of the parent by 2
    rec.add("a.inner", 2.0, 3.0, parent=a)
    self_s = rec.self_times()
    assert self_s[root] == pytest.approx(10.0 - (5.0 + 2.0))  # union [1,6] + [8,10]
    assert self_s[a] == pytest.approx(2.0)
    totals = rec.totals()
    assert totals["root"] == {"count": 1, "total_s": 10.0, "self_s": pytest.approx(3.0)}


def test_span_context_manager_nests_per_thread_and_exports_chrome_trace(tmp_path):
    rec = h.SpanRecorder("w")
    with rec.span("outer", k=1):
        with rec.span("inner"):
            pass
    assert [s.parent for s in rec.spans] == [None, 0]
    assert rec.spans[0].duration >= rec.spans[1].duration
    path = tmp_path / "results" / "trace.json"
    rec.dump(str(path))
    events = json.loads(path.read_text())["traceEvents"]
    assert [e["name"] for e in events] == ["outer", "inner"]
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    assert events[1]["args"]["parent"] == 0 and events[0]["args"]["workload"] == "w"


def test_disabled_recorder_records_nothing():
    rec = h.SpanRecorder("w", enabled=False)
    with rec.span("x"):
        pass
    assert rec.spans == []


def test_timed_ops_runs_min_ops_and_flags_traced_calls():
    rec = h.SpanRecorder("w")
    times, results, traced = h.timed_ops(lambda i: i * i, 0.0, min_ops=6, recorder=rec,
                                         span_name="op", trace_every=2)
    assert results == [0, 1, 4, 9, 16, 25] and len(times) == 6
    assert traced == [True, False] * 3 and len(rec.spans) == 3
    assert h.span_overhead_pct([2.0, 1.0, 2.0, 1.0], [True, False, True, False]) == 100.0


def test_speed_reference_scales_times_down_and_rates_up():
    ref = h.SpeedReference()
    ref.samples = [2 * ref.NOMINAL_S] * 3  # beside the set-ups: half speed
    mark = ref.mark()
    h.timed_ops(lambda i: i, 0.0, min_ops=4, reference=ref)
    assert len(ref.samples) == mark + 4 and all(s > 0 for s in ref.samples[mark:])
    assert ref.slowness(0, mark) == pytest.approx(2.0)
    result = h.RunResult()
    result.set_end_to_end([1.0, 3.0, 2.0], [0.010, 0.030, 0.020], 50.0, 3, 100.0,
                          setup_slowness=2.0, op_slowness=4.0, rate_slowness=4.0)
    assert result.end_to_end == {"setup_s": 1.0, "op_p50_ms": 5.0, "ops_per_s": 200.0,
                                 "peak_rss_mb": 100.0}
    raw = result.detail["as_measured"]
    assert (raw["setup_s"], raw["op_p50_ms"], raw["ops_per_s"]) == (2.0, 20.0, 50.0)


def test_repeat_setup_samples_the_reference_around_every_build():
    ref = h.SpeedReference()
    built = []
    state, times = h.repeat_setup(lambda: built.append(ref.mark()) or len(built), 3,
                                  reference=ref)
    assert state == 3 and len(times) == 3
    burst = h.SETUP_BURST
    assert built == [burst, 2 * burst, 3 * burst] and ref.mark() == 4 * burst


def test_child_env_scrubs_program_switches(monkeypatch):
    monkeypatch.setenv("REPRO_NUM_THREADS", "8")
    monkeypatch.setenv("REPRO_TRACE_SAMPLE", "0.5")
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    env = h.child_env({"REPRO_TRACE": "1"})
    assert "REPRO_NUM_THREADS" not in env and "REPRO_SANITIZE" not in env
    assert "REPRO_TRACE_SAMPLE" not in env and env["REPRO_TRACE"] == "1"
    assert env["PYTHONPATH"].endswith("src")


# -- BENCHMARK.json contract -----------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_schema(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/suite"]
    assert spec["command"][0] == "python3" and len(spec["command"]) <= 32
    for arg in spec["command"][1:]:
        assert not arg.startswith("/") and ".." not in arg
        assert arg.startswith("benchmarks/suite/") or "/" not in arg
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in spec[key]]
    assert len(names) == len(set(names)), "a name is used once"
    assert all(NAME.match(n) for n in names)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    size = os.path.getsize(os.path.join(REPO_ROOT, "BENCHMARK.json"))
    assert size <= 64 * 1024
    budget = (4 + 22 * len(spec["workloads"])) * 25
    assert budget <= 3420, "the driver's runs must fit at ~25 s each"


def test_run_py_knows_exactly_the_declared_workloads(spec):
    assert set(run.SIZES) == {w["name"] for w in spec["workloads"]}
    args = run.build_parser(spec).parse_args([])
    assert args.seconds == spec["run_seconds"] and args.seed == 0


def test_every_per_layer_metric_names_a_layer(spec):
    layers = {"graph", "kernels", "nn", "core", "partition", "comm", "sampling",
              "featurestore", "serving", "dyngraph", "obs", "bench"}
    assert {m["name"].split(".")[0] for m in spec["per_layer"]} == layers


# -- results / verdicts ----------------------------------------------------------------


def test_declared_metrics_emits_every_name_and_rejects_strays(spec):
    measured = {m["name"]: 1.5 for m in spec["end_to_end"]}
    out = run.declared_metrics(spec, False, measured)
    assert list(out) == [m["name"] for m in spec["end_to_end"]]
    assert all(set(v) == {"value", "unit"} for v in out.values())
    with pytest.raises(KeyError):
        run.declared_metrics(spec, False, {"setup_s": 1.0})  # one missing
    with pytest.raises(KeyError):
        run.declared_metrics(spec, True, {"kernels.not_declared": 1.0})
    layer = run.declared_metrics(spec, True, {"kernels.ap_s": 0.25})
    assert len(layer) == len(spec["per_layer"])
    assert layer["kernels.ap_s"]["value"] == 0.25
    assert layer["serving.http_p50_us"]["value"] == 0.0  # layer not called


def test_spread_is_interquartile_over_median():
    assert run.spread([1.0, 2.0, 3.0]) is None
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    import statistics
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert run.spread(values) == pytest.approx((q3 - q1) / q2)


def _entry(median, spread=0.01):
    return {"median": median, "spread": spread, "values": [median]}


def test_verdicts():
    lower = {"name": "op_p50_ms", "better": "lower", "bound": 0.10}
    higher = {"name": "ops_per_s", "better": "higher", "bound": 0.10}
    assert run.verdict(lower, _entry(100), _entry(109)) == "ok"
    assert run.verdict(lower, _entry(100), _entry(111)) == "regressed"
    assert run.verdict(lower, _entry(100), _entry(50)) == "ok"  # faster is fine
    assert run.verdict(higher, _entry(100), _entry(91)) == "ok"
    assert run.verdict(higher, _entry(100), _entry(89)) == "regressed"
    assert run.verdict(lower, _entry(100, 0.2), _entry(100)) == "unresolved"
    assert run.verdict(lower, _entry(100, None), _entry(111, None)) == "regressed"
    setup = {"name": "setup_s", "better": "lower", "bound": 0.25}
    assert run.verdict(setup, _entry(1.0, 0.4), _entry(1.1, 0.4)) == "ok"


def test_compare_prints_one_row_per_workload_and_metric(spec, capsys, tmp_path):
    def results(scale):
        return {"workloads": {
            w["name"]: {"end_to_end": {m["name"]: _entry(10.0 * scale)
                                       for m in spec["end_to_end"]}}
            for w in spec["workloads"]}}

    rows = run.compare(spec, results(1.0), results(1.0))
    assert len(rows) == len(spec["workloads"]) * len(spec["end_to_end"])
    assert {r["verdict"] for r in rows} == {"ok"}
    assert all(r["ratio_b_over_a"] == 1.0 for r in rows)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(results(1.0)))
    b.write_text(json.dumps(results(2.0)))
    code = run.main(["--compare", str(a), str(b)])
    text = capsys.readouterr().out
    assert code == 1 and "regressed" in text and "base A" in text
    # lower-is-better metrics doubled: regressed; higher-is-better doubled: ok
    assert text.count("regressed\n") == len(spec["workloads"]) * sum(
        m["better"] == "lower" for m in spec["end_to_end"])
