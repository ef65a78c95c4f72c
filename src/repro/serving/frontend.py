"""Bounded worker-pool front end for the online request path.

``ThreadingHTTPServer`` runs one thread per open connection, kept alive
across its requests — under open-loop traffic over many connections that
is an unbounded admission policy, and the saturation failure mode is
collapse (every request slow) instead of shedding.
:class:`ServingFrontend` puts a real admission queue in front of the
:class:`~repro.serving.server.PredictionService`:

- **bounded queue + worker pool**: at most ``max_queue`` requests wait
  and ``num_workers`` execute; beyond that, admission fails fast with
  :class:`RequestRejected` (HTTP 429 + ``Retry-After``);
- **per-endpoint deadlines**: a request that misses its deadline answers
  :class:`RequestTimeout` (HTTP 503) — if it is still queued it is
  cancelled and never executes, if it is mid-engine the worker finishes
  the call in the background and moves on (workers never wedge);
- **updates beside the pool**: ``update_edges`` / ``update_features``
  run on the calling thread while reads keep flowing — the service
  publishes each update's tables instead of rewriting the ones readers
  hold, so admission never closes;
- **measured**: every request lands in exactly one
  :class:`~repro.serving.metrics.ServingMetrics` outcome bucket, and
  queue depth / in-flight count are exposed as gauges.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import queue

from repro.analysis.sanitizers import make_lock
from repro.obs.trace import Span, Tracer, activate, get_tracer
from repro.serving.metrics import ServingMetrics


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


_STOP = object()


@dataclass
class _WorkItem:
    endpoint: str
    fn: Callable[[], object]
    future: Future = field(default_factory=Future)
    #: trace context, carried explicitly across the pool boundary — the
    #: worker thread activates it; thread-locals never cross the pool.
    ctx: Optional[Span] = None
    #: admission instant, for the ``queue`` latency component.
    t_admit: float = 0.0


class ServingFrontend:
    """Admission control + worker pool over a ``PredictionService``.

    Parameters
    ----------
    service:
        The composed request path (engine + refresher).
    num_workers:
        Concurrent request executions (engine calls run threaded
        underneath when the kernel engine is configured for it).
    max_queue:
        Admitted-but-not-executing bound; beyond it requests answer 429.
    default_timeout_s / timeouts:
        Per-request deadline, overridable per endpoint
        (``timeouts={"predict": 0.5}``).
    retry_after_s:
        Hint returned with 429/503 answers (surfaced as the HTTP
        ``Retry-After`` header, rounded up to whole seconds there).
    """

    def __init__(
        self,
        service,
        num_workers: int = 4,
        max_queue: int = 256,
        default_timeout_s: float = 30.0,
        timeouts: Optional[Dict[str, float]] = None,
        retry_after_s: float = 0.05,
        metrics: Optional[ServingMetrics] = None,
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
        self.retry_after_s = float(retry_after_s)
        self.metrics = metrics if metrics is not None else ServingMetrics()
        # disabled by default (REPRO_TRACE unset): every root() is None
        # and the request path pays one branch
        self.tracer = tracer if tracer is not None else get_tracer()

        self._queue: "queue.Queue" = queue.Queue()
        self._lock = make_lock("serving.frontend")
        self._depth = 0       # guarded-by: _lock — admitted, waiting for a worker
        self._in_flight = 0   # guarded-by: _lock — executing on a worker
        self._closed = False  # guarded-by: _lock
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-serve-worker-{i}", daemon=True
            )
            for i in range(self.num_workers)
        ]
        for w in self._workers:
            w.start()

    # -- gauges -------------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        with self._lock:
            return self._depth

    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def timeout_for(self, endpoint: str) -> float:
        return float(self.timeouts.get(endpoint, self.default_timeout_s))

    # -- request path -------------------------------------------------------------

    def _admit(
        self, endpoint: str, fn: Callable[[], object], ctx: Optional[Span] = None
    ) -> _WorkItem:
        item = _WorkItem(
            endpoint=endpoint, fn=fn, ctx=ctx, t_admit=time.perf_counter()
        )
        with self._lock:
            if self._closed:
                raise ServingUnavailable("ServingFrontend is closed", self.retry_after_s)
            if self._depth >= self.max_queue:
                raise RequestRejected(
                    f"{endpoint}: admission queue full "
                    f"({self.max_queue} requests waiting)",
                    retry_after_s=self.retry_after_s,
                )
            self._depth += 1
        self._queue.put(item)
        return item

    def call(self, endpoint: str, fn: Callable[[], object], timeout_s=None):
        """Execute ``fn`` on the pool under admission control.

        Returns ``fn()``'s result, or raises: :class:`RequestRejected` /
        :class:`RequestTimeout` on shedding,
        or whatever ``fn`` raised (``ValueError`` stays a 400 upstream).
        Every path records exactly one metrics outcome, and — when
        tracing samples the request — closes exactly one root span with
        that same outcome (shed requests get a root span too: a trace of
        a saturated server must show what was rejected, not just what
        ran).
        """
        timeout = self.timeout_for(endpoint) if timeout_s is None else float(timeout_s)
        t0 = time.perf_counter()
        # the root is opened before admission so a 429/503 still traces
        span = self.tracer.root(endpoint)
        try:
            item = self._admit(endpoint, fn, ctx=span)
        except ServingUnavailable as exc:
            self.metrics.record(endpoint, exc.outcome)
            if span is not None:
                span.end(exc.outcome)
            raise
        try:
            result = item.future.result(timeout=timeout)
        except FutureTimeout:
            # still queued -> cancel so it never executes; already
            # running -> the worker finishes in the background (its late
            # component writes are ignored by the already-ended span)
            item.future.cancel()
            self.metrics.record(endpoint, "timeout")
            if span is not None:
                span.end("timeout")
            raise RequestTimeout(
                f"{endpoint}: timed out after {timeout:g}s",
                retry_after_s=self.retry_after_s,
            ) from None
        except (ValueError, OverflowError):
            self.metrics.record(endpoint, "bad_request")
            if span is not None:
                span.end("bad_request")
            raise
        # audit[broad-except]: counted in the 'error' bucket, then re-raised
        except Exception:
            self.metrics.record(endpoint, "error")
            if span is not None:
                span.end("error")
            raise
        e2e_s = time.perf_counter() - t0
        self.metrics.record(endpoint, "ok", latency_s=e2e_s)
        if span is not None:
            # same wall time the metrics recorded: the decomposition
            # cross-check compares components against exactly this e2e
            span.end("ok", e2e_s=e2e_s)
        return result

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            with self._lock:
                self._depth -= 1
                if not item.future.set_running_or_notify_cancel():
                    continue  # caller gave up while the item was queued
                self._in_flight += 1
            if item.ctx is not None:
                # queue component: admission -> worker pickup
                item.ctx.add_component("queue", time.perf_counter() - item.t_admit)
            try:
                # the carried ctx becomes this thread's current span for
                # the duration of the call (activate(None) clears any
                # leftover from a previously traced request)
                with activate(item.ctx):
                    result = item.fn()
            # audit[broad-except]: delivered to the caller via the future
            except BaseException as exc:  # noqa: BLE001
                item.future.set_exception(exc)
            else:
                item.future.set_result(result)
            finally:
                with self._lock:
                    self._in_flight -= 1

    # -- updates ----------------------------------------------------------------

    def _traced_update(self, endpoint: str, body: Callable[[], object]):
        """Shared metrics/tracing wrapper for the update paths: one
        outcome, one (optional) root span."""
        t0 = time.perf_counter()
        span = self.tracer.root(endpoint)
        try:
            with activate(span):
                stats = body()
        except (ValueError, OverflowError):
            self.metrics.record(endpoint, "bad_request")
            if span is not None:
                span.end("bad_request")
            raise
        # audit[broad-except]: counted in the 'error' bucket, then re-raised
        except Exception:
            self.metrics.record(endpoint, "error")
            if span is not None:
                span.end("error")
            raise
        e2e_s = time.perf_counter() - t0
        self.metrics.record(endpoint, "ok", latency_s=e2e_s)
        if span is not None:
            span.end("ok", e2e_s=e2e_s)
        return stats

    def update_edges(self, add=None, remove=None):
        """Apply the topology update; reads keep being served."""
        return self._traced_update(
            "update_edges",
            lambda: self.service.update_edges(add=add, remove=remove),
        )

    def update_features(self, vertex_ids, new_rows):
        """Apply the feature update; reads keep being served."""
        return self._traced_update(
            "update_features",
            lambda: self.service.update_features(vertex_ids, new_rows),
        )

    # -- introspection / lifecycle ------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """Counters + quantiles + live gauges (one consistent view of
        the counters; gauges are instantaneous)."""
        with self._lock:
            depth, in_flight = self._depth, self._in_flight
        engine = getattr(self.service, "engine", None)
        store = getattr(engine, "feature_store", None)
        return self.metrics.snapshot(
            queue_depth=depth,
            in_flight=in_flight,
            max_queue=self.max_queue,
            num_workers=self.num_workers,
            # feature-tier gauges: tier, rows read, updates, bytes mapped
            feature_store=store.stats() if store is not None else None,
        )

    def close(self) -> None:
        """Stop the workers; pending requests fail with
        :class:`ServingUnavailable` (a ``RuntimeError``; HTTP 503)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        for _ in self._workers:
            self._queue.put(_STOP)
        for w in self._workers:
            w.join(timeout=10.0)
        # anything still queued was admitted before close: fail it fast
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not _STOP and item.future.set_running_or_notify_cancel():
                item.future.set_exception(
                    ServingUnavailable("ServingFrontend is closed", self.retry_after_s)
                )

    def __enter__(self) -> "ServingFrontend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
