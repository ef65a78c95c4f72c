"""Admission gate in front of the online request path.

``ThreadingHTTPServer`` runs one thread per open connection, kept alive
across its requests — under open-loop traffic over many connections that
is an unbounded admission policy, and the saturation failure mode is
collapse (every request slow) instead of shedding.
:class:`ServingFrontend` bounds it with an **admission gate** in front
of the :class:`~repro.serving.server.PredictionService`; each request
runs on its caller's (connection) thread, with no hop to another one:

- **bounded gate**: at most ``num_workers`` requests run at once and
  ``max_queue`` wait for a slot; beyond that, admission fails fast with
  :class:`RequestRejected` (HTTP 429 + ``Retry-After``);
- **per-endpoint deadlines**: a request still waiting at its deadline
  answers :class:`RequestTimeout` (HTTP 503) and never runs; a running
  one cannot be abandoned (no other thread is left to answer), so if it
  finishes past its deadline it answers the same 503 — late, when the
  call returns;
- **updates beside the gate**: ``update_edges`` / ``update_features``
  run on the calling thread and never wait for reads — the service
  publishes each update's tables instead of rewriting the ones readers
  hold, and an applied update is never answered 503;
- **measured**: every request lands in exactly one
  :class:`~repro.serving.metrics.ServingMetrics` outcome bucket, and
  the gate's waiting / running counts are exposed as gauges.  A traced
  request's component seconds land in the same ledger entry as its
  latency; the tracer keeps only the spans.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

from repro.analysis.sanitizers import make_condition
from repro.obs.trace import Span, Tracer, activate, get_tracer
from repro.serving.metrics import ServingMetrics

#: the hint sent with 429/503 answers (the HTTP ``Retry-After`` header,
#: rounded up to whole seconds there)
RETRY_AFTER_S = 0.05


class ServingUnavailable(RuntimeError):
    """Base class for load-shedding outcomes (429/503, never a 500)."""

    #: HTTP status the server maps this to.
    status = 503
    #: metrics outcome bucket.
    outcome = "error"

    def __init__(self, message: str, retry_after_s: float = 0.0):
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class RequestRejected(ServingUnavailable):
    """Admission queue at capacity — shed load instead of queueing."""

    status = 429
    outcome = "rejected_queue_full"


class RequestTimeout(ServingUnavailable):
    """Admitted but missed its per-endpoint deadline."""

    status = 503
    outcome = "timeout"


def _as_compute(span: Optional[Span], fn: Callable[[], object]):
    """``fn()``; on a traced request its wall time is the ``compute``
    component (less any feature gather inside it)."""
    return fn() if span is None else span.time_compute(fn)


class ServingFrontend:
    """Admission gate over a ``PredictionService`` (engine + refresher).

    At most ``num_workers`` calls run at once (engine calls run threaded
    underneath when the kernel engine is configured for it) and
    ``max_queue`` wait; beyond that requests answer 429.  The deadline is
    ``default_timeout_s``, overridable per endpoint
    (``timeouts={"predict": 0.5}``).
    """

    def __init__(
        self,
        service,
        num_workers: int = 4,
        max_queue: int = 256,
        default_timeout_s: float = 30.0,
        timeouts: Optional[Dict[str, float]] = None,
        tracer: Optional[Tracer] = None,
    ):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if default_timeout_s <= 0:
            raise ValueError("default_timeout_s must be > 0")
        self.service = service
        self.num_workers = int(num_workers)
        self.max_queue = int(max_queue)
        self.default_timeout_s = float(default_timeout_s)
        self.timeouts = dict(timeouts or {})
        self.metrics = ServingMetrics()
        # disabled by default (REPRO_TRACE unset): every root() is None
        # and the request path pays one branch
        self.tracer = tracer if tracer is not None else get_tracer()

        self._gate = make_condition("serving.frontend")
        self._depth = 0       # guarded-by: _gate — admitted, waiting for a slot
        self._in_flight = 0   # guarded-by: _gate — running on its caller's thread
        self._closed = False  # guarded-by: _gate

    # -- gauges -------------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        with self._gate:
            return self._depth

    @property
    def in_flight(self) -> int:
        with self._gate:
            return self._in_flight

    def timeout_for(self, endpoint: str) -> float:
        return float(self.timeouts.get(endpoint, self.default_timeout_s))

    # -- request path -------------------------------------------------------------

    def _enter(self, endpoint: str, deadline: float) -> bool:
        """Take a run slot, waiting for one until ``deadline`` at most;
        ``False`` if the deadline passed first."""
        with self._gate:
            if self._in_flight >= self.num_workers and not self._closed:
                if self._depth >= self.max_queue:
                    raise RequestRejected(
                        f"{endpoint}: admission queue full "
                        f"({self.max_queue} requests waiting)",
                        retry_after_s=RETRY_AFTER_S,
                    )
                self._depth += 1
                try:
                    while self._in_flight >= self.num_workers and not self._closed:
                        left = deadline - time.perf_counter()
                        if left <= 0:
                            return False
                        self._gate.wait(left)
                finally:
                    self._depth -= 1
            if self._closed:
                raise ServingUnavailable("ServingFrontend is closed", RETRY_AFTER_S)
            self._in_flight += 1
            return True

    def _leave(self) -> None:
        with self._gate:
            self._in_flight -= 1
            self._gate.notify()

    def _measured(self, endpoint: str, body: Callable[[Optional[Span]], object]):
        """Run ``body(span)`` on this thread under one (optional) root
        span, activated for the call; record exactly one metrics outcome
        and close the span with it.  A cancellation passes uncounted."""
        t0 = time.perf_counter()
        span = self.tracer.root(endpoint)
        try:
            with activate(span):
                result = body(span)
        except ServingUnavailable as exc:
            self._record(endpoint, span, exc.outcome)
            raise
        except (ValueError, OverflowError):
            self._record(endpoint, span, "bad_request")
            raise
        # audit[broad-except]: counted in the 'error' bucket, then re-raised
        except Exception:
            self._record(endpoint, span, "error")
            raise
        self._record(endpoint, span, "ok", time.perf_counter() - t0)
        return result

    def _record(self, endpoint: str, span, outcome: str, latency_s=None) -> None:
        """Close the span, then land the outcome, the latency and the
        span's component seconds in the one ledger: the decomposition's
        e2e is exactly the latency the quantiles see."""
        components = None if span is None else span.end(outcome)
        self.metrics.record(endpoint, outcome, latency_s=latency_s, components=components)

    def call(self, endpoint: str, fn: Callable[[], object], timeout_s=None):
        """Run ``fn`` on this thread behind the admission gate.

        Returns ``fn()``'s result, or raises: :class:`RequestRejected` /
        :class:`RequestTimeout` on shedding (also when ``fn`` returns
        past the deadline), or whatever ``fn`` raised (``ValueError``
        stays a 400 upstream).  Shed requests get a root span too: a
        trace of a saturated server must show what was rejected.
        """
        timeout = self.timeout_for(endpoint) if timeout_s is None else float(timeout_s)

        def gated(span: Optional[Span]):
            t_admit = time.perf_counter()
            deadline = t_admit + timeout
            if self._enter(endpoint, deadline):
                if span is not None:
                    # queue component: time spent waiting at the gate
                    span.add_component("queue", time.perf_counter() - t_admit)
                try:
                    result = _as_compute(span, fn)
                finally:
                    self._leave()
                if time.perf_counter() <= deadline:
                    return result
            raise RequestTimeout(
                f"{endpoint}: timed out after {timeout:g}s",
                retry_after_s=RETRY_AFTER_S,
            )

        return self._measured(endpoint, gated)

    # -- updates ----------------------------------------------------------------

    def _update(self, endpoint: str, fn: Callable[[], object]):
        """Run the update ``fn`` measured, its time the ``compute``
        component of a traced request."""
        return self._measured(endpoint, lambda span: _as_compute(span, fn))

    def update_edges(self, add=None, remove=None):
        """Apply the topology update; reads keep being served."""
        return self._update(
            "update_edges", lambda: self.service.update_edges(add=add, remove=remove)
        )

    def update_features(self, vertex_ids, new_rows):
        """Apply the feature update; reads keep being served."""
        return self._update(
            "update_features", lambda: self.service.update_features(vertex_ids, new_rows)
        )

    # -- introspection / lifecycle ------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """Counters + quantiles + live gauges (one consistent view of
        the counters; gauges are instantaneous)."""
        with self._gate:
            depth, in_flight = self._depth, self._in_flight
        engine = getattr(self.service, "engine", None)
        store = getattr(engine, "feature_store", None)
        return self.metrics.snapshot(
            queue_depth=depth, in_flight=in_flight,
            max_queue=self.max_queue, num_workers=self.num_workers,
            # feature-tier gauges: tier, rows read, updates, bytes mapped
            feature_store=store.stats() if store is not None else None,
        )

    def close(self) -> None:
        """Refuse new requests and wake every waiter: both answer
        :class:`ServingUnavailable` (a ``RuntimeError``; HTTP 503).
        Running calls finish on their own threads."""
        with self._gate:
            self._closed = True
            self._gate.notify_all()

    def __enter__(self) -> "ServingFrontend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
