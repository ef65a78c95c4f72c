"""Open-loop load generation for the serving tier.

A closed-loop driver (issue the next request when the previous one
returns) measures a system that is never allowed to fall behind — the
latency curve looks flat right up to the point where it is meaningless.
Real traffic is *open-loop*: arrivals happen on their own clock whether
or not the server has caught up, which is what exposes the saturation
knee and the queueing tail.  This module generates such traffic:

- **arrival processes** — :func:`poisson_arrivals` (memoryless, the
  classic open-loop baseline) and :func:`bursty_arrivals` (a two-state
  Markov-modulated Poisson process: exponentially-distributed dwells in
  a slow and a fast state, the standard bursty-traffic model);
- **schedules** — :func:`build_schedule` pre-draws every request's
  arrival time, endpoint (mixed ``predict`` / ``topk`` /
  ``update_edges`` / ``update_features`` traffic) and payload from one
  seeded RNG, so a run is exactly reproducible;
- **execution** — :func:`run_open_loop` fires a schedule at a target
  (in-process :class:`FrontendTarget` or HTTP :class:`HttpTarget`) and
  reports client-side latency measured **from the scheduled arrival
  time** (no coordinated omission: a request delayed because the
  server fell behind counts that delay);
- **virtual time** — :class:`VirtualClock` lets the deterministic test
  suites replay a schedule without real sleeping.

Used by ``benchmarks/bench_serving.py`` (offered-load sweep), the
``repro loadgen`` CLI, and — through ``tests/serving/harness.py`` — the
concurrency/fault test suites.
"""

from __future__ import annotations

import json
import queue
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.sanitizers import make_lock

from repro.serving.frontend import ServingUnavailable
from repro.serving.metrics import OUTCOMES, percentiles_ms

#: default traffic mix: read-heavy with a trickle of mutations.
DEFAULT_MIX = {"predict": 0.7, "topk": 0.25, "update_edges": 0.05}


# -- arrival processes ------------------------------------------------------------


def poisson_arrivals(rate: float, duration_s: float, rng) -> np.ndarray:
    """Arrival offsets (seconds) of a Poisson process of ``rate`` req/s
    over ``[0, duration_s)`` — i.i.d. exponential inter-arrivals."""
    if rate <= 0 or duration_s <= 0:
        return np.zeros(0, dtype=np.float64)
    # draw with 5-sigma headroom, then clip to the horizon
    n = int(rate * duration_s + 5.0 * np.sqrt(rate * duration_s) + 10)
    times = np.cumsum(rng.exponential(1.0 / rate, size=n))
    while times.size and times[-1] < duration_s:  # pragma: no cover - headroom
        times = np.concatenate(
            [times, times[-1] + np.cumsum(rng.exponential(1.0 / rate, size=n))]
        )
    return times[times < duration_s]


def bursty_arrivals(
    rate: float,
    duration_s: float,
    rng,
    burst_factor: float = 4.0,
    mean_dwell_s: float = 0.25,
) -> np.ndarray:
    """Two-state MMPP arrivals averaging ``rate`` req/s.

    The process alternates between a slow and a fast Poisson state with
    exponentially-distributed dwell times (mean ``mean_dwell_s`` each, so
    half the time is spent in each state); the fast state runs at
    ``burst_factor`` times the slow one, with the pair scaled so the
    long-run average is ``rate``.  Offered load is the same as the
    Poisson generator — only the burstiness differs, which is exactly
    the axis the saturation comparison needs.
    """
    if rate <= 0 or duration_s <= 0:
        return np.zeros(0, dtype=np.float64)
    if burst_factor < 1.0:
        raise ValueError("burst_factor must be >= 1")
    rate_slow = 2.0 * rate / (1.0 + burst_factor)
    rate_fast = burst_factor * rate_slow
    times: List[np.ndarray] = []
    t = 0.0
    fast = bool(rng.integers(2))
    while t < duration_s:
        dwell = float(rng.exponential(mean_dwell_s))
        state_rate = rate_fast if fast else rate_slow
        seg = poisson_arrivals(state_rate, min(dwell, duration_s - t), rng)
        times.append(t + seg)
        t += dwell
        fast = not fast
    out = np.concatenate(times) if times else np.zeros(0)
    return out[out < duration_s]


ARRIVALS = {"poisson": poisson_arrivals, "bursty": bursty_arrivals}


# -- schedules --------------------------------------------------------------------


@dataclass(frozen=True)
class ScheduledRequest:
    """One pre-drawn request: when, what, and with which payload."""

    t: float
    endpoint: str
    vertices: np.ndarray
    k: Optional[int] = None
    #: ``(src, dst)`` pairs for ``update_edges`` requests.
    edges: Optional[np.ndarray] = None
    #: feature rows for ``update_features`` requests.
    rows: Optional[np.ndarray] = None


def zipf_vertices(rng, num_vertices: int, size: int, skew: float = 1.1) -> np.ndarray:
    """Zipf-skewed vertex draws over a random hot-set permutation (the
    same hot-set model the closed-loop serving benchmark uses)."""
    ranks = rng.zipf(skew, size=size) - 1
    perm = rng.permutation(num_vertices)
    return perm[np.minimum(ranks, num_vertices - 1)]


def build_schedule(
    arrival_times: Sequence[float],
    num_vertices: int,
    rng,
    mix: Optional[Dict[str, float]] = None,
    batch_size: int = 8,
    k: int = 3,
    update_batch: int = 4,
    feature_dim: Optional[int] = None,
    zipf_skew: float = 1.1,
) -> List[ScheduledRequest]:
    """Pre-draw every request of a run from one seeded RNG.

    ``mix`` maps endpoint name to weight over ``predict`` / ``topk`` /
    ``update_edges`` / ``update_features`` (``update_features`` requires
    ``feature_dim``).  Payloads are Zipf-skewed vertex batches; edge
    updates add ``update_batch`` uniform-random edges.
    """
    mix = dict(DEFAULT_MIX if mix is None else mix)
    if not mix:
        raise ValueError("mix must name at least one endpoint")
    known = {"predict", "topk", "update_edges", "update_features"}
    unknown = set(mix) - known
    if unknown:
        raise ValueError(f"unknown endpoints in mix: {sorted(unknown)}")
    if "update_features" in mix and feature_dim is None:
        raise ValueError("update_features traffic needs feature_dim")
    names = sorted(mix)
    weights = np.array([mix[n] for n in names], dtype=np.float64)
    if (weights < 0).any() or weights.sum() <= 0:
        raise ValueError("mix weights must be non-negative and sum > 0")
    weights = weights / weights.sum()
    times = np.sort(np.asarray(arrival_times, dtype=np.float64))
    picks = rng.choice(len(names), size=times.size, p=weights)
    hot = zipf_vertices(rng, num_vertices, times.size * batch_size, skew=zipf_skew)
    schedule: List[ScheduledRequest] = []
    for i, (t, pick) in enumerate(zip(times, picks)):
        endpoint = names[pick]
        ids = hot[i * batch_size : (i + 1) * batch_size]
        if endpoint == "predict":
            schedule.append(ScheduledRequest(t=float(t), endpoint="predict", vertices=ids))
        elif endpoint == "topk":
            schedule.append(
                ScheduledRequest(t=float(t), endpoint="topk", vertices=ids, k=k)
            )
        elif endpoint == "update_edges":
            edges = rng.integers(0, num_vertices, size=(update_batch, 2))
            schedule.append(
                ScheduledRequest(
                    t=float(t), endpoint="update_edges", vertices=ids, edges=edges
                )
            )
        else:
            ids = ids[: max(1, batch_size // 4)]
            rows = rng.standard_normal((ids.size, feature_dim)).astype(np.float32)
            schedule.append(
                ScheduledRequest(
                    t=float(t), endpoint="update_features", vertices=ids, rows=rows
                )
            )
    return schedule


# -- clocks -----------------------------------------------------------------------


class VirtualClock:
    """Deterministic manual clock (``time`` / ``sleep`` protocol).

    ``sleep`` *advances* time instead of waiting, so a schedule replays
    instantly and identically; targets can call ``advance`` to model
    service time.  Thread-safe, monotone.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)  # guarded-by: _lock
        self._lock = make_lock("loadgen.clock")

    def time(self) -> float:
        with self._lock:
            return self._now

    def sleep(self, dt: float) -> None:
        self.advance(dt)

    def advance(self, dt: float) -> None:
        if dt < 0:
            return
        with self._lock:
            self._now += dt


class WallClock:
    """Real time behind the same protocol."""

    @staticmethod
    def time() -> float:
        return time.perf_counter()

    @staticmethod
    def sleep(dt: float) -> None:
        time.sleep(dt)


# -- targets ----------------------------------------------------------------------


class FrontendTarget:
    """Drives a :class:`~repro.serving.frontend.ServingFrontend` in
    process — the request path minus socket parsing."""

    def __init__(self, frontend):
        self.frontend = frontend

    def __call__(self, req: ScheduledRequest):
        fe = self.frontend
        svc = fe.service
        if req.endpoint == "predict":
            return fe.call("predict", lambda: svc.predict(req.vertices))
        if req.endpoint == "topk":
            return fe.call("topk", lambda: svc.topk(req.vertices, k=req.k))
        if req.endpoint == "update_edges":
            return fe.update_edges(add=req.edges)
        if req.endpoint == "update_features":
            return fe.update_features(req.vertices, req.rows)
        raise ValueError(f"unknown endpoint {req.endpoint!r}")


class HttpTarget:
    """Drives a live server over HTTP (``repro loadgen --url``)."""

    def __init__(self, base_url: str, timeout_s: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.timeout_s = float(timeout_s)

    def _post(self, path: str, payload: dict):
        req = urllib.request.Request(
            f"{self.base_url}{path}",
            data=json.dumps(payload).encode("utf-8"),
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=self.timeout_s) as resp:
            return json.load(resp)

    def __call__(self, req: ScheduledRequest):
        if req.endpoint == "predict":
            return self._post("/predict", {"vertices": req.vertices.tolist()})
        if req.endpoint == "topk":
            return self._post(
                "/predict", {"vertices": req.vertices.tolist(), "k": req.k}
            )
        if req.endpoint == "update_edges":
            return self._post("/update_edges", {"add": req.edges.tolist()})
        if req.endpoint == "update_features":
            return self._post(
                "/update_features",
                {"vertices": req.vertices.tolist(), "features": req.rows.tolist()},
            )
        raise ValueError(f"unknown endpoint {req.endpoint!r}")


def classify_exception(exc: BaseException) -> str:
    """Map a target failure to its metrics outcome bucket."""
    if isinstance(exc, ServingUnavailable):
        return exc.outcome
    if isinstance(exc, urllib.error.HTTPError):
        if exc.code == 429:
            return "rejected_queue_full"
        if exc.code == 503:
            return "timeout"
        if exc.code == 400:
            return "bad_request"
        return "error"
    if isinstance(exc, (ValueError, OverflowError)):
        return "bad_request"
    return "error"


# -- open-loop execution ----------------------------------------------------------


@dataclass
class RequestRecord:
    """Client-side view of one fired request."""

    endpoint: str
    scheduled_s: float
    #: scheduled arrival -> completion (includes client queueing: no
    #: coordinated omission).
    latency_s: float
    #: around the target call only (comparable to server-side metrics).
    call_s: float
    outcome: str


@dataclass
class LoadReport:
    """Everything a run measured, with JSON-safe summaries."""

    records: List[RequestRecord]
    horizon_s: float
    elapsed_s: float

    @property
    def offered(self) -> int:
        return len(self.records)

    def count(self, outcome: str) -> int:
        return sum(1 for r in self.records if r.outcome == outcome)

    def latencies(self, outcome: str = "ok", which: str = "latency_s") -> np.ndarray:
        return np.array(
            [getattr(r, which) for r in self.records if r.outcome == outcome],
            dtype=np.float64,
        )

    def per_endpoint(self) -> Dict[str, dict]:
        out: Dict[str, dict] = {}
        lat: Dict[str, List[float]] = {}
        for rec in self.records:
            ep = out.setdefault(
                rec.endpoint, {outcome: 0 for outcome in OUTCOMES}
            )
            ep[rec.outcome] += 1
            if rec.outcome == "ok":
                lat.setdefault(rec.endpoint, []).append(rec.latency_s)
        for name, ep in out.items():
            ep["requests"] = sum(ep[o] for o in OUTCOMES)
            ep.update(percentiles_ms(np.array(lat.get(name, []), dtype=np.float64)))
        return out

    def summary(self) -> dict:
        ok = self.count("ok")
        rejected = self.count("rejected_queue_full")
        elapsed = max(self.elapsed_s, 1e-9)
        horizon = max(self.horizon_s, 1e-9)
        return {
            "offered": self.offered,
            "offered_rps": self.offered / horizon,
            "horizon_s": self.horizon_s,
            "elapsed_s": self.elapsed_s,
            "ok": ok,
            "achieved_rps": ok / elapsed,
            "rejected": rejected,
            "rejected_queue_full": self.count("rejected_queue_full"),
            "timeouts": self.count("timeout"),
            "errors": self.count("error"),
            "bad_request": self.count("bad_request"),
            "reject_rate": rejected / max(self.offered, 1),
            "timeout_rate": self.count("timeout") / max(self.offered, 1),
            **percentiles_ms(self.latencies("ok")),
            "mean_ms": float(1e3 * self.latencies("ok").mean())
            if ok
            else 0.0,
            "per_endpoint": self.per_endpoint(),
        }


def run_open_loop(
    target: Callable[[ScheduledRequest], object],
    schedule: Sequence[ScheduledRequest],
    num_clients: int = 32,
    clock=None,
    synchronous: bool = False,
) -> LoadReport:
    """Fire ``schedule`` at ``target`` on its own clock.

    A dispatcher releases each request at its scheduled time into a
    pool of ``num_clients`` client threads; if every client is busy the
    request waits, and that wait **counts** in its recorded latency
    (measured from the scheduled arrival).  ``synchronous=True`` runs
    requests inline on the dispatcher (with :class:`VirtualClock`, a
    fully deterministic replay).
    """
    clock = clock if clock is not None else WallClock()
    schedule = sorted(schedule, key=lambda r: r.t)
    horizon = schedule[-1].t if schedule else 0.0
    records: List[RequestRecord] = []
    records_lock = make_lock("loadgen.records")
    start = clock.time()

    def fire(req: ScheduledRequest) -> None:
        t_call = clock.time()
        try:
            target(req)
        # audit[broad-except]: classified into an outcome bucket, never fatal
        except Exception as exc:  # noqa: BLE001
            outcome = classify_exception(exc)
        else:
            outcome = "ok"
        done = clock.time()
        rec = RequestRecord(
            endpoint=req.endpoint,
            scheduled_s=req.t,
            latency_s=done - (start + req.t),
            call_s=done - t_call,
            outcome=outcome,
        )
        with records_lock:
            records.append(rec)

    if synchronous:
        for req in schedule:
            delay = (start + req.t) - clock.time()
            if delay > 0:
                clock.sleep(delay)
            fire(req)
    else:
        work: "queue.Queue" = queue.Queue()

        def client() -> None:
            while True:
                req = work.get()
                if req is None:
                    return
                fire(req)

        clients = [
            threading.Thread(target=client, name=f"loadgen-client-{i}", daemon=True)
            for i in range(num_clients)
        ]
        for c in clients:
            c.start()
        for req in schedule:
            delay = (start + req.t) - clock.time()
            if delay > 0:
                clock.sleep(delay)
            work.put(req)
        for _ in clients:
            work.put(None)
        for c in clients:
            c.join()
    elapsed = clock.time() - start
    return LoadReport(records=records, horizon_s=horizon, elapsed_s=elapsed)
