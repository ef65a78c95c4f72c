"""Stress/fault fixture layer for the serving suites, and its open-loop
load generator.

A closed-loop driver (issue the next request when the previous one
returns) measures a system that is never allowed to fall behind.  Real
traffic is *open-loop*: arrivals happen on their own clock whether or
not the server has caught up, which is what exposes the saturation knee
and the queueing tail.  This module generates such traffic for the
tests (the benchmark suite drives ``repro serve`` with its own client,
``benchmarks/suite/suite_harness.py``):

- **arrival processes** — :func:`poisson_arrivals` (memoryless) and
  :func:`bursty_arrivals` (a two-state Markov-modulated Poisson process:
  exponentially-distributed dwells in a slow and a fast state);
- **schedules** — :func:`build_schedule` pre-draws every request's
  arrival time, endpoint (mixed ``predict`` / ``topk`` /
  ``update_edges`` / ``update_features`` traffic) and payload from one
  seeded RNG, so a run is exactly reproducible;
- **execution** — :func:`run_open_loop` fires a schedule at a target
  (in process, :class:`FrontendTarget`) and reports client-side latency
  measured **from the scheduled arrival time** (no coordinated
  omission: a request delayed because the server fell behind counts
  that delay);
- **virtual time** — :class:`VirtualClock` replays a schedule without
  real sleeping.

On top of it: seeded in-process runs, fault-injection wrappers for the
engine lookup, and thread-herd helpers with deadlock-safe joins.  The
concurrency, fault, overload, publish-machine and metrics suites all
build on it.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.sanitizers import make_lock
from repro.serving import PredictionService, ServingFrontend
from repro.serving.frontend import ServingUnavailable
from repro.serving.metrics import OUTCOMES, percentiles_ms

#: joins that outlive this are deadlocks, not slowness — fail, don't hang.
JOIN_TIMEOUT_S = 30.0

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
    """Zipf-skewed vertex draws over a random hot-set permutation."""
    ranks = rng.zipf(skew, size=size) - 1
    perm = rng.permutation(num_vertices)
    return perm[np.minimum(ranks, num_vertices - 1)]


def build_schedule(
    arrival_times: Sequence[float],
    num_vertices: int,
    rng,
    mix: Optional[Dict[str, float]] = None,
    feature_dim: Optional[int] = None,
) -> List[ScheduledRequest]:
    """Pre-draw every request of a run from one seeded RNG.

    ``mix`` maps endpoint name to weight over ``predict`` / ``topk`` /
    ``update_edges`` / ``update_features`` (``update_features`` requires
    ``feature_dim``).  Payloads are batches of 8 Zipf-skewed vertices
    (skew 1.1); ``topk`` asks for k=3, edge updates add 4 uniform-random
    edges and feature updates write 2 rows.
    """
    batch_size, k, update_batch = 8, 3, 4
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
    hot = zipf_vertices(rng, num_vertices, times.size * batch_size)
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
        self._lock = make_lock("harness.clock")

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


def classify_exception(exc: BaseException) -> str:
    """Map a target failure to its metrics outcome bucket."""
    if isinstance(exc, ServingUnavailable):
        return exc.outcome
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
    """Everything a run measured."""

    records: List[RequestRecord]
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
    records: List[RequestRecord] = []
    records_lock = make_lock("harness.records")
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
            threading.Thread(target=client, name=f"harness-client-{i}", daemon=True)
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
    return LoadReport(records=records, elapsed_s=elapsed)


# -- service / frontend construction ----------------------------------------------


def make_service(engine) -> PredictionService:
    """The service as ``repro serve`` composes it: reads are rows of the
    published logits table, and its own refresher applies updates."""
    return PredictionService(engine)


def make_frontend(service, **kwargs) -> ServingFrontend:
    kwargs.setdefault("num_workers", 4)
    kwargs.setdefault("max_queue", 64)
    kwargs.setdefault("default_timeout_s", 10.0)
    return ServingFrontend(service, **kwargs)


def seeded_run(
    frontend,
    seed: int = 0,
    rate: float = 200.0,
    duration_s: float = 1.0,
    arrival: str = "poisson",
    mix=None,
    num_clients: int = 8,
    feature_dim: Optional[int] = None,
    synchronous: bool = False,
    clock=None,
):
    """One seeded open-loop run against an in-process frontend."""
    rng = np.random.default_rng(seed)
    arrivals = ARRIVALS[arrival](rate, duration_s, rng)
    schedule = build_schedule(
        arrivals,
        frontend.service.engine.num_vertices,
        rng,
        mix=mix,
        feature_dim=feature_dim,
    )
    report = run_open_loop(
        FrontendTarget(frontend),
        schedule,
        num_clients=num_clients,
        clock=clock,
        synchronous=synchronous,
    )
    return schedule, report


def virtual_schedule(seed: int = 0, rate: float = 100.0, duration_s: float = 2.0,
                     arrival: str = "poisson", num_vertices: int = 64, **kwargs):
    """A seeded schedule with no engine behind it (pure load-generator tests)."""
    rng = np.random.default_rng(seed)
    arrivals = ARRIVALS[arrival](rate, duration_s, rng)
    return build_schedule(arrivals, num_vertices, rng, **kwargs)


# -- fault-injection lookup wrappers ----------------------------------------------
#
# Each is a ``wrapper(old_lookup) -> new_lookup`` for
# ``PredictionService.wrap_lookup`` — the supported seam into the
# engine-call layer (every read calls it once).


def slow_lookup(delay_s: float):
    """Every engine call takes at least ``delay_s`` (timeout tests)."""

    def wrapper(old):
        def lookup(ids):
            time.sleep(delay_s)
            return old(ids)

        return lookup

    return wrapper


def flaky_lookup(message: str = "injected engine failure", every: int = 1):
    """Raise ``RuntimeError`` on every ``every``-th engine call."""

    def wrapper(old):
        calls = [0]
        lock = threading.Lock()

        def lookup(ids):
            with lock:
                calls[0] += 1
                fail = calls[0] % every == 0
            if fail:
                raise RuntimeError(message)
            return old(ids)

        return lookup

    return wrapper


def blocking_lookup(release: threading.Event, started: Optional[threading.Event] = None):
    """Engine calls park on ``release`` (queue-full / publish tests);
    ``started`` fires once a call is actually in flight."""

    def wrapper(old):
        def lookup(ids):
            if started is not None:
                started.set()
            if not release.wait(timeout=JOIN_TIMEOUT_S):
                raise TimeoutError("blocking_lookup never released")
            return old(ids)

        return lookup

    return wrapper


# -- thread herds -----------------------------------------------------------------


def join_all(threads: List[threading.Thread], timeout_s: float = JOIN_TIMEOUT_S):
    """Join with a deadline; a survivor means a deadlock — assert, never
    hang the suite (threads are daemons, so the run still exits)."""
    deadline = time.monotonic() + timeout_s
    for t in threads:
        t.join(timeout=max(0.0, deadline - time.monotonic()))
    alive = [t.name for t in threads if t.is_alive()]
    assert not alive, f"threads deadlocked: {alive}"


def hammer(fn: Callable[[int], None], num_threads: int, iterations: int):
    """Run ``fn(thread_index)`` ``iterations`` times on each of
    ``num_threads`` concurrent threads; re-raise the first failure."""
    errors: List[BaseException] = []
    errors_lock = threading.Lock()
    start = threading.Barrier(num_threads)

    def body(idx: int) -> None:
        try:
            start.wait(timeout=JOIN_TIMEOUT_S)
            for _ in range(iterations):
                fn(idx)
        except BaseException as exc:  # noqa: BLE001 — surfaced via join_all
            with errors_lock:
                errors.append(exc)

    threads = [
        threading.Thread(target=body, args=(i,), name=f"hammer-{i}", daemon=True)
        for i in range(num_threads)
    ]
    for t in threads:
        t.start()
    join_all(threads)
    if errors:
        raise errors[0]


# -- torn-read checking -----------------------------------------------------------


class SnapshotChecker:
    """Registers full-precompute snapshots; classifies served rows.

    The no-torn-reads contract: every response must equal the
    corresponding rows of exactly ONE registered snapshot — a row mix of
    pre- and post-update tables matches none of them.
    """

    def __init__(self):
        self._snapshots: List[np.ndarray] = []
        self._lock = threading.Lock()

    def register(self, logits: np.ndarray) -> None:
        with self._lock:
            self._snapshots.append(np.array(logits, copy=True))

    @property
    def num_snapshots(self) -> int:
        with self._lock:
            return len(self._snapshots)

    def versions(self, ids: np.ndarray, rows: np.ndarray) -> List[int]:
        """Registration indices of every snapshot with ``snapshot[ids]``
        equal to ``rows`` (several when an update left these ids alone)."""
        with self._lock:
            snapshots = list(self._snapshots)
        return [
            i for i, snap in enumerate(snapshots) if np.array_equal(rows, snap[ids])
        ]

    def matches(self, ids: np.ndarray, rows: np.ndarray) -> bool:
        """True iff ``rows`` equals ``snapshot[ids]`` for some snapshot."""
        return bool(self.versions(ids, rows))

    def assert_consistent(self, ids: np.ndarray, rows: np.ndarray) -> None:
        assert self.matches(ids, rows), (
            f"torn read: rows for {ids.tolist()} match none of "
            f"{len(self._snapshots)} registered table versions"
        )
