"""The load harness itself: seeded arrivals, schedules, virtual replay.

The stress/fault suites trust the harness to be deterministic and to
model open-loop traffic correctly — this file pins those properties.
"""

import numpy as np
import pytest

from repro.serving.frontend import RequestRejected, RequestTimeout
from repro.serving.metrics import OUTCOMES

from harness import (
    DEFAULT_MIX,
    FrontendTarget,
    LoadReport,
    RequestRecord,
    ScheduledRequest,
    VirtualClock,
    build_schedule,
    bursty_arrivals,
    classify_exception,
    poisson_arrivals,
    run_open_loop,
    virtual_schedule,
    zipf_vertices,
)


# -- arrival processes ------------------------------------------------------------


@pytest.mark.parametrize("gen", [poisson_arrivals, bursty_arrivals])
def test_arrivals_seeded_and_bounded(gen):
    a = gen(200.0, 2.0, np.random.default_rng(7))
    b = gen(200.0, 2.0, np.random.default_rng(7))
    assert np.array_equal(a, b)  # same seed, same schedule — exactly
    assert (a >= 0).all() and (a < 2.0).all()
    assert np.array_equal(np.sort(a), a)
    # open-loop rate: the realized count concentrates around rate*duration
    assert 250 <= a.size <= 550


def test_poisson_interarrivals_are_memoryless():
    a = poisson_arrivals(500.0, 20.0, np.random.default_rng(0))
    gaps = np.diff(a)
    # exponential(1/rate): mean 2 ms, CV == 1 (±10% at n ≈ 10k)
    assert gaps.mean() == pytest.approx(1 / 500.0, rel=0.1)
    assert gaps.std() / gaps.mean() == pytest.approx(1.0, rel=0.1)


def test_bursty_matches_offered_rate_but_is_burstier():
    rng = np.random.default_rng(3)
    rate, dur = 400.0, 30.0
    burst = bursty_arrivals(rate, dur, rng, burst_factor=6.0)
    # same long-run offered load as a Poisson process...
    assert burst.size == pytest.approx(rate * dur, rel=0.15)
    # ...but over-dispersed: windowed counts spread wider than Poisson
    # (index of dispersion > 1; == 1 for Poisson)
    counts, _ = np.histogram(burst, bins=np.arange(0.0, dur + 0.25, 0.25))
    dispersion = counts.var() / counts.mean()
    assert dispersion > 1.5


def test_bursty_rejects_bad_factor():
    with pytest.raises(ValueError, match="burst_factor"):
        bursty_arrivals(10.0, 1.0, np.random.default_rng(0), burst_factor=0.5)


def test_empty_horizons():
    assert poisson_arrivals(0.0, 1.0, np.random.default_rng(0)).size == 0
    assert bursty_arrivals(50.0, 0.0, np.random.default_rng(0)).size == 0


# -- schedules --------------------------------------------------------------------


def test_schedule_is_reproducible():
    a = virtual_schedule(seed=11, feature_dim=4,
                         mix={**DEFAULT_MIX, "update_features": 0.1})
    b = virtual_schedule(seed=11, feature_dim=4,
                         mix={**DEFAULT_MIX, "update_features": 0.1})
    assert len(a) == len(b) > 0
    for ra, rb in zip(a, b):
        assert ra.t == rb.t and ra.endpoint == rb.endpoint
        assert np.array_equal(ra.vertices, rb.vertices)
        if ra.edges is not None:
            assert np.array_equal(ra.edges, rb.edges)
        if ra.rows is not None:
            assert np.array_equal(ra.rows, rb.rows)


def test_schedule_covers_the_mix_and_payloads_are_valid():
    n = 64
    sched = virtual_schedule(seed=2, rate=500.0, duration_s=2.0, num_vertices=n,
                             feature_dim=8,
                             mix={"predict": 0.4, "topk": 0.3,
                                  "update_edges": 0.2, "update_features": 0.1})
    seen = {r.endpoint for r in sched}
    assert seen == {"predict", "topk", "update_edges", "update_features"}
    for r in sched:
        assert (r.vertices >= 0).all() and (r.vertices < n).all()
        if r.endpoint == "topk":
            assert r.k >= 1
        if r.endpoint == "update_edges":
            assert r.edges.shape[1] == 2
            assert (r.edges >= 0).all() and (r.edges < n).all()
        if r.endpoint == "update_features":
            assert r.rows.shape == (r.vertices.size, 8)


def test_schedule_validation():
    rng = np.random.default_rng(0)
    times = [0.0, 0.5]
    with pytest.raises(ValueError, match="unknown endpoints"):
        build_schedule(times, 10, rng, mix={"nope": 1.0})
    with pytest.raises(ValueError, match="feature_dim"):
        build_schedule(times, 10, rng, mix={"update_features": 1.0})
    with pytest.raises(ValueError, match="at least one"):
        build_schedule(times, 10, rng, mix={})
    with pytest.raises(ValueError, match="non-negative"):
        build_schedule(times, 10, rng, mix={"predict": -1.0})


def test_zipf_vertices_skew_and_range():
    draws = zipf_vertices(np.random.default_rng(0), 1000, 20000, skew=1.2)
    assert (draws >= 0).all() and (draws < 1000).all()
    # skewed: the hottest vertex dominates a uniform draw's 1/n share
    _, counts = np.unique(draws, return_counts=True)
    assert counts.max() > 50 * (20000 / 1000 / 20)


# -- virtual-clock replay ---------------------------------------------------------


def test_virtual_clock_replay_is_deterministic():
    """Synchronous replay on a virtual clock: no real time passes, and
    every recorded latency is an exact function of the schedule."""
    service_time = 0.010
    clock = VirtualClock()

    def target(req):
        clock.advance(service_time)

    sched = virtual_schedule(seed=5, rate=100.0, duration_s=1.0)
    report = run_open_loop(target, sched, clock=clock, synchronous=True)
    assert report.offered == len(sched)
    assert report.count("ok") == len(sched)
    lat = report.latencies("ok")
    # back-to-back arrivals queue behind the fixed service time, so
    # latency is schedule-determined: replaying gives identical numbers
    report2 = run_open_loop(
        lambda req: clock2.advance(service_time),
        virtual_schedule(seed=5, rate=100.0, duration_s=1.0),
        clock=(clock2 := VirtualClock()),
        synchronous=True,
    )
    assert np.array_equal(lat, report2.latencies("ok"))
    assert (lat >= service_time - 1e-12).all()


def test_virtual_clock_open_loop_counts_queueing_delay():
    """A slow target on a virtual clock accumulates open-loop backlog:
    later requests see the sum of earlier service times (coordinated
    omission would hide exactly this)."""
    clock = VirtualClock()
    service_time = 0.050  # 20 req/s capacity
    sched = [
        ScheduledRequest(t=i * 0.01, endpoint="predict", vertices=np.array([0]))
        for i in range(10)  # offered at 100 req/s
    ]
    report = run_open_loop(
        lambda req: clock.advance(service_time), sched, clock=clock,
        synchronous=True,
    )
    lat = np.sort(report.latencies("ok"))
    assert lat[-1] > 5 * lat[0]  # backlog grows across the run
    assert lat[-1] == pytest.approx(10 * service_time - 9 * 0.01, abs=1e-9)


def test_clock_basics():
    c = VirtualClock(start=5.0)
    assert c.time() == 5.0
    c.sleep(1.5)
    c.advance(-1.0)  # negative advances are ignored, time is monotone
    assert c.time() == 6.5


# -- in-process target -------------------------------------------------------------


class _RecordingFrontend:
    """Frontend-shaped stub: records which frontend method each request
    took and what the service was asked for."""

    def __init__(self):
        self.calls = []
        self.service = self

    def call(self, endpoint, fn):
        self.calls.append(("call", endpoint))
        return fn()

    def update_edges(self, add=None):
        self.calls.append(("update_edges", add.tolist()))

    def update_features(self, vertices, rows):
        self.calls.append(("update_features", vertices.tolist(), rows.tolist()))

    def predict(self, vertices):
        self.calls.append(("predict", vertices.tolist()))

    def topk(self, vertices, k):
        self.calls.append(("topk", vertices.tolist(), k))


_IDS = np.array([3, 1])


@pytest.mark.parametrize(
    "request_, expected",
    [
        (ScheduledRequest(0.0, "predict", _IDS), [("call", "predict"), ("predict", [3, 1])]),
        (ScheduledRequest(0.0, "topk", _IDS, k=2), [("call", "topk"), ("topk", [3, 1], 2)]),
        (ScheduledRequest(0.0, "update_edges", _IDS, edges=np.array([[0, 1]])),
         [("update_edges", [[0, 1]])]),
        (ScheduledRequest(0.0, "update_features", _IDS, rows=np.ones((2, 1))),
         [("update_features", [3, 1], [[1.0], [1.0]])]),
    ],
    ids=["predict", "topk", "update_edges", "update_features"],
)
def test_frontend_target_routes_each_endpoint(request_, expected):
    """Reads go through the admission gate (``call``) under their own
    endpoint name; updates take the frontend's update methods."""
    frontend = _RecordingFrontend()
    FrontendTarget(frontend)(request_)
    assert frontend.calls == expected


def test_frontend_target_rejects_an_unknown_endpoint():
    frontend = _RecordingFrontend()
    with pytest.raises(ValueError, match="unknown endpoint 'nope'"):
        FrontendTarget(frontend)(ScheduledRequest(0.0, "nope", _IDS))
    assert frontend.calls == []


# -- outcome classification -------------------------------------------------------


def test_classify_exception_buckets():
    assert classify_exception(RequestRejected("q")) == "rejected_queue_full"
    assert classify_exception(RequestTimeout("t")) == "timeout"
    assert classify_exception(ValueError("bad ids")) == "bad_request"
    assert classify_exception(OverflowError("big")) == "bad_request"
    assert classify_exception(RuntimeError("boom")) == "error"


def test_run_open_loop_never_raises():
    def target(req):
        raise RuntimeError("always down")

    sched = virtual_schedule(seed=1, rate=50.0, duration_s=0.5)
    clock = VirtualClock()
    report = run_open_loop(target, sched, clock=clock, synchronous=True)
    assert report.count("error") == report.offered == len(sched)
    # no served request -> no latency quantiles at all (omitted, not 0.0:
    # a fabricated zero would read as "infinitely fast")
    assert report.count("ok") == 0 and report.latencies("ok").size == 0
    for ep in report.per_endpoint().values():
        assert ep["ok"] == 0
        assert "p50_ms" not in ep and "p99_ms" not in ep


def test_report_outcome_conservation():
    records = [
        RequestRecord("predict", 0.0, 0.01, 0.01, "ok"),
        RequestRecord("predict", 0.1, 0.0, 0.0, "rejected_queue_full"),
        RequestRecord("topk", 0.2, 0.0, 0.0, "timeout"),
    ]
    report = LoadReport(records=records, elapsed_s=0.3)
    assert report.offered == 3
    assert sum(report.count(outcome) for outcome in OUTCOMES) == report.offered
    assert report.latencies("ok").tolist() == [0.01]
    per = report.per_endpoint()
    assert per["predict"]["requests"] == 2 and per["topk"]["timeout"] == 1
