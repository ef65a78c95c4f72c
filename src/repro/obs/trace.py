"""End-to-end request tracing: spans, a bounded ring, Chrome export.

One admitted request = one **root span**; the stages it crosses (queue
wait, engine compute, feature gather, kernel AP passes) attach child spans and **latency components** to it.  Design
constraints, in order:

- **Explicit context propagation.**  The thread that executes a request
  *activates* its root span for the duration of the work (the serving
  frontend does it on the caller's thread); a span crosses a thread-pool
  boundary only by being carried explicitly.
  The thread-local set by :func:`activate` never leaks across pools —
  it is scoped to one ``with`` block on one thread, so deep call sites
  (:class:`~repro.kernels.instrumentation.time_ap`,
  ``FeatureStore.gather``) can pick the current span up without their
  signatures knowing about tracing.
- **Bounded, lock-disciplined buffering.**  Finished spans land in a
  ring of :data:`RING_CAPACITY` spans under one :func:`make_lock` — a
  full ring overwrites the oldest span and counts a drop; tracing can
  never grow memory without bound or block the request path.
- **One switch.**  ``REPRO_TRACE=1`` traces every request; off, a
  request carries a ``None`` context and every instrumentation site
  short-circuits, so the overhead of a disabled tracer is one ``None``
  check.
- **Standard export.**  :func:`chrome_trace` renders the ring as Chrome
  trace-event JSON (loadable in Perfetto / ``chrome://tracing``);
  ``GET /trace`` serves it and ``repro trace --url`` saves it.

Latency decomposition: component seconds accumulated on a root span
(:data:`COMPONENTS`: queue / compute / feature) are
defined to be **non-overlapping**, so their sum is ≤ the measured
end-to-end latency — the remainder is reported as unattributed slack,
and ``tests/serving/test_tracing.py`` pins the inequality.  The tracer
keeps no per-endpoint sums: :meth:`Span.end` hands the frozen
components to its caller, and the serving frontend folds them into
:class:`~repro.serving.metrics.ServingMetrics`, the one request ledger.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from typing import Dict, List, Optional

from repro.analysis.sanitizers import make_lock

#: canonical latency components of one served request, in pipeline
#: order: the ones the decomposition cross-check sums against end-to-end
#: latency.
COMPONENTS = ("queue", "compute", "feature")

#: spans the ring holds before it overwrites the oldest
RING_CAPACITY = 4096

#: outcome ascribed to a span closed by ``with`` on an exception.
_ERROR_OUTCOME = "error"


# -- per-thread current span (set only via explicit activation) ---------------

_tls = threading.local()


def current_span() -> Optional["Span"]:
    """The span explicitly activated on *this* thread, else ``None``.

    This is how signature-stable deep call sites (kernels, feature
    store) attach children; it is only ever set inside an
    :func:`activate` block, never inherited across threads.
    """
    return getattr(_tls, "span", None)


class activate:
    """Context manager scoping ``span`` as this thread's current span.

    ``activate(None)`` is valid and clears the slot: a thread that just
    ran a traced request must not leak its span into the next, untraced
    one.
    """

    __slots__ = ("_span", "_prev")

    def __init__(self, span: Optional["Span"]):
        self._span = span

    def __enter__(self) -> Optional["Span"]:
        self._prev = getattr(_tls, "span", None)
        _tls.span = self._span
        return self._span

    def __exit__(self, *exc) -> bool:
        _tls.span = self._prev
        return False


# -- spans --------------------------------------------------------------------


class Span:
    """One timed interval of one request: the root of its trace.

    Component state takes the span's own lock: one thread may close a
    span while another still attaches components to it — both must be
    safe.  After :meth:`end` the span is immutable; late mutations are
    ignored (they must not corrupt the exported record).
    """

    __slots__ = ("tracer", "name", "span_id", "t_start", "_lock", "_components", "_ended")

    def __init__(self, tracer: "Tracer", name: str):
        self.tracer = tracer
        self.name = name
        self.span_id = tracer.next_id()
        self._lock = make_lock("obs.trace.span")
        self._components: Dict[str, float] = {}  # guarded-by: _lock
        self._ended = False  # guarded-by: _lock
        self.t_start = time.perf_counter()

    # -- mutation (pre-end only) ----------------------------------------------

    def add_component(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` into latency component ``name``."""
        with self._lock:
            if self._ended:
                return
            self._components[name] = self._components.get(name, 0.0) + float(seconds)

    def component_seconds(self, name: str) -> float:
        with self._lock:
            return self._components.get(name, 0.0)

    def time_compute(self, fn):
        """``fn()``, its wall time added as the ``compute`` component,
        less the ``feature`` time recorded inside it, so components
        never overlap."""
        feature_before = self.component_seconds("feature")
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        feature_during = self.component_seconds("feature") - feature_before
        self.add_component("compute", max(0.0, elapsed - feature_during))
        return result

    # -- children -------------------------------------------------------------

    def child_complete(self, name: str, dur_s: float, cat: str = "serving", **args):
        """Record an already-measured child interval that ends *now*.

        Safe to call even after the parent was closed by a timed-out
        caller (the child still lands in the ring with its parent
        linkage).
        """
        t_end = time.perf_counter()
        self.tracer.push(
            {
                "trace_id": self.span_id,
                "span_id": self.tracer.next_id(),
                "parent_id": self.span_id,
                "name": name,
                "cat": cat,
                "ts_us": self.tracer.to_wall_us(t_end - float(dur_s)),
                "dur_us": float(dur_s) * 1e6,
                "outcome": "ok",
                "thread": threading.get_ident(),
                "components_ms": {},
                "args": {str(k): v for k, v in args.items()},
            }
        )

    # -- completion -----------------------------------------------------------

    def end(self, outcome: str = "ok") -> Dict[str, float]:
        """Close the span into the ring; first close wins (idempotent).

        Returns the component seconds the close froze — the caller's to
        fold into its per-endpoint ledger — or ``{}`` on a second close.
        """
        t_end = time.perf_counter()
        with self._lock:
            if self._ended:
                return {}
            self._ended = True
            components = dict(self._components)
        self.tracer.push(
            {
                "trace_id": self.span_id,
                "span_id": self.span_id,
                "parent_id": None,
                "name": self.name,
                "cat": "request",
                "ts_us": self.tracer.to_wall_us(self.t_start),
                "dur_us": (t_end - self.t_start) * 1e6,
                "outcome": outcome,
                "thread": threading.get_ident(),
                "components_ms": {k: v * 1e3 for k, v in components.items()},
                "args": {},
            }
        )
        return components

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end(_ERROR_OUTCOME if exc_type is not None else "ok")
        return False


# -- tracer -------------------------------------------------------------------


class Tracer:
    """Bounded span ring.

    ``enabled`` defaults from the environment, so one knob flips the
    whole serving stack: ``REPRO_TRACE`` (off unless set truthy).
    """

    def __init__(self, enabled: Optional[bool] = None):
        if enabled is None:
            enabled = os.environ.get("REPRO_TRACE", "") not in ("", "0", "false", "no")
        self.enabled = bool(enabled)
        # id allocation: itertools.count.__next__ is atomic in CPython
        self._ids = itertools.count(1)
        # wall-clock anchor so exported timestamps are absolute epoch µs
        self._wall0 = time.time()
        self._perf0 = time.perf_counter()
        self._lock = make_lock("obs.trace.ring")
        self._ring: List[dict] = []  # guarded-by: _lock
        self._slot = 0  # guarded-by: _lock — next overwrite index once full
        self._finished = 0  # guarded-by: _lock — spans pushed to the ring
        self._dropped = 0  # guarded-by: _lock — spans overwritten unread

    # -- span creation --------------------------------------------------------

    def next_id(self) -> int:
        return next(self._ids)

    def to_wall_us(self, t_perf: float) -> float:
        """Map a ``perf_counter`` instant to absolute epoch microseconds."""
        return (self._wall0 + (t_perf - self._perf0)) * 1e6

    def root(self, name: str) -> Optional[Span]:
        """One root span per admitted request, or ``None`` when off.

        ``None`` is the contract for "not traced": every downstream site
        checks the context once and does no other work.
        """
        return Span(self, name) if self.enabled else None

    # -- ring -----------------------------------------------------------------

    def push(self, record: dict) -> None:
        """Land one finished span; a full ring overwrites the oldest."""
        with self._lock:
            self._finished += 1
            if len(self._ring) < RING_CAPACITY:
                self._ring.append(record)
            else:
                self._ring[self._slot] = record
                self._slot = (self._slot + 1) % RING_CAPACITY
                self._dropped += 1

    def export(self) -> List[dict]:
        """Buffered spans, oldest first (a consistent copy)."""
        with self._lock:
            if len(self._ring) < RING_CAPACITY:
                return list(self._ring)
            return self._ring[self._slot:] + self._ring[: self._slot]

    def stats(self) -> dict:
        with self._lock:
            return {
                "finished": self._finished,
                "dropped": self._dropped,
                "buffered": len(self._ring),
            }


# -- module default tracer ----------------------------------------------------

_default_lock = make_lock("obs.trace.default")
_default: Optional[Tracer] = None


def get_tracer() -> Tracer:
    """The process-wide default tracer, built lazily from the
    environment (``REPRO_TRACE``)."""
    global _default
    with _default_lock:
        if _default is None:
            _default = Tracer()
        return _default


def set_tracer(tracer: Optional[Tracer]) -> Optional[Tracer]:
    """Swap the default tracer (tests, CLI); returns the previous one."""
    global _default
    with _default_lock:
        previous = _default
        _default = tracer
        return previous


# -- export formats -----------------------------------------------------------


def chrome_trace(spans: List[dict]) -> dict:
    """Chrome trace-event JSON (``ph: "X"`` complete events) — loadable
    in Perfetto / ``chrome://tracing``.  Span linkage and the component
    breakdown ride in each event's ``args``."""
    events = []
    for s in spans:
        events.append(
            {
                "name": s["name"],
                "cat": s["cat"],
                "ph": "X",
                "ts": s["ts_us"],
                "dur": s["dur_us"],
                "pid": 1,
                "tid": s["thread"],
                "args": {
                    "trace_id": s["trace_id"],
                    "span_id": s["span_id"],
                    "parent_id": s["parent_id"],
                    "outcome": s["outcome"],
                    "components_ms": s["components_ms"],
                    **s["args"],
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


#: pinned Chrome trace-event schema: required event keys -> type check.
_EVENT_SCHEMA = {
    "name": str,
    "cat": str,
    "ph": str,
    "ts": (int, float),
    "dur": (int, float),
    "pid": int,
    "tid": int,
    "args": dict,
}


def validate_chrome_trace(payload: dict) -> int:
    """Validate Chrome trace-event JSON against the pinned schema;
    returns the event count, raises ``ValueError`` on any deviation.
    Gated in CI so ``GET /trace`` output stays Perfetto-loadable."""
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise ValueError("trace payload must be an object with 'traceEvents'")
    events = payload["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        for key, types in _EVENT_SCHEMA.items():
            if key not in ev:
                raise ValueError(f"traceEvents[{i}] missing key {key!r}")
            if not isinstance(ev[key], types) or isinstance(ev[key], bool):
                raise ValueError(
                    f"traceEvents[{i}].{key} has type "
                    f"{type(ev[key]).__name__}, want {types}"
                )
        if ev["ph"] != "X":
            raise ValueError(f"traceEvents[{i}].ph must be 'X', got {ev['ph']!r}")
        if ev["dur"] < 0 or ev["ts"] < 0:
            raise ValueError(f"traceEvents[{i}] has negative ts/dur")
        args = ev["args"]
        for key in ("trace_id", "span_id", "outcome"):
            if key not in args:
                raise ValueError(f"traceEvents[{i}].args missing {key!r}")
    return len(events)
