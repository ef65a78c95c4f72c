"""Reusable stress/fault fixture layer over the serving load generator.

The open-loop machinery in :mod:`repro.serving.loadgen` is the product
path (``repro loadgen``, ``benchmarks/bench_serving.py``); this module
is the test-suite face of the same code: seeded schedules, deterministic
virtual-clock replays, fault-injection wrappers for the engine lookup,
and thread-herd helpers with deadlock-safe joins.  The concurrency,
fault, publish-machine, and metrics suites all build on it.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional

import numpy as np

from repro.serving import PredictionService, ServingFrontend
from repro.serving.loadgen import (
    ARRIVALS,
    FrontendTarget,
    VirtualClock,
    build_schedule,
    run_open_loop,
)

#: joins that outlive this are deadlocks, not slowness — fail, don't hang.
JOIN_TIMEOUT_S = 30.0


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
    """A seeded schedule with no engine behind it (pure-loadgen tests)."""
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
