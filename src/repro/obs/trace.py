"""End-to-end request tracing: spans, head sampling, bounded ring export.

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
  fixed-capacity ring under one :func:`make_lock` — a full ring
  overwrites the oldest span and counts a drop; tracing can never grow
  memory without bound or block the request path.
- **Head-based sampling.**  The keep/skip decision is made once, at
  root-span creation (``REPRO_TRACE=1`` to enable,
  ``REPRO_TRACE_SAMPLE=0.01`` for 1-in-100): an unsampled request
  carries a ``None`` context and every instrumentation site
  short-circuits, so the steady-state overhead of a disabled or
  down-sampled tracer is one ``None`` check.
- **Standard export.**  :func:`chrome_trace` renders the ring as Chrome
  trace-event JSON (loadable in Perfetto / ``chrome://tracing``);
  ``GET /trace`` serves it and ``repro trace --url`` saves it.

Latency decomposition: component seconds accumulated on a root span
(:data:`COMPONENTS`: queue / compute / feature) are
defined to be **non-overlapping**, so their sum is ≤ the measured
end-to-end latency — the remainder is reported as unattributed slack,
and ``tests/serving/test_tracing.py`` pins the inequality.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from collections import deque
from typing import Dict, List, Optional

import numpy as np

from repro.analysis.sanitizers import make_lock

#: canonical latency components of one served request, in pipeline
#: order: the ones the decomposition cross-check sums against end-to-end
#: latency.
COMPONENTS = ("queue", "compute", "feature")

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

    ``activate(None)`` is valid and clears the slot — a worker thread
    that just ran a sampled request must not leak its span into the
    next, unsampled one.
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
    """One timed interval of one request.

    Component/annotation state takes the span's own lock: one thread may
    close a span while another still attaches components to it — both
    must be safe.  After :meth:`end` the span is immutable; late
    mutations are ignored (they must not corrupt the exported record).
    """

    __slots__ = (
        "tracer", "name", "cat", "trace_id", "span_id", "parent_id",
        "t_start", "_lock", "_components", "_args", "_ended",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        cat: str = "request",
        trace_id: Optional[int] = None,
        parent_id: Optional[int] = None,
    ):
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.span_id = tracer.next_id()
        self.trace_id = self.span_id if trace_id is None else trace_id
        self.parent_id = parent_id
        self._lock = make_lock("obs.trace.span")
        self._components: Dict[str, float] = {}  # guarded-by: _lock
        self._args: Dict[str, object] = {}  # guarded-by: _lock
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
                "trace_id": self.trace_id,
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

    def end(self, outcome: str = "ok", e2e_s: Optional[float] = None) -> None:
        """Close the span into the ring; first close wins (idempotent).

        Root spans closed ``ok`` also feed the tracer's per-endpoint
        latency decomposition, cross-checked against ``e2e_s`` (defaults
        to the span's own wall time).
        """
        t_end = time.perf_counter()
        with self._lock:
            if self._ended:
                return
            self._ended = True
            components = dict(self._components)
            args = dict(self._args)
        self.tracer.push(
            {
                "trace_id": self.trace_id,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "name": self.name,
                "cat": self.cat,
                "ts_us": self.tracer.to_wall_us(self.t_start),
                "dur_us": (t_end - self.t_start) * 1e6,
                "outcome": outcome,
                "thread": threading.get_ident(),
                "components_ms": {k: v * 1e3 for k, v in components.items()},
                "args": args,
            }
        )
        if self.parent_id is None and outcome == "ok":
            e2e = (t_end - self.t_start) if e2e_s is None else float(e2e_s)
            self.tracer.record_components(self.name, components, e2e)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.end(_ERROR_OUTCOME if exc_type is not None else "ok")
        return False


# -- decomposition aggregation ------------------------------------------------


class _Agg:
    """Sum/count plus a bounded window for quantiles (not thread-safe on
    its own — the tracer's decomposition lock serializes access)."""

    __slots__ = ("total_s", "count", "window")

    def __init__(self, window: int = 2048):
        self.total_s = 0.0
        self.count = 0
        self.window = deque(maxlen=window)

    def add(self, seconds: float) -> None:
        self.total_s += float(seconds)
        self.count += 1
        self.window.append(float(seconds))

    def summary(self, mean_ms: float) -> dict:
        lat = np.asarray(self.window, dtype=np.float64) * 1e3
        return {
            "count": self.count,
            "total_s": self.total_s,
            "mean_ms": mean_ms,
            "p50_ms": float(np.percentile(lat, 50.0)),
            "p99_ms": float(np.percentile(lat, 99.0)),
        }


def decompose(e2e, components) -> dict:
    """Mean latencies (ms) of one endpoint from its accumulated
    ``(total_s, count)`` pairs: ``e2e`` over the ok roots, ``components``
    by name.

    Each component mean is normalized by that component's own
    observation count (a ``feature`` mean is "per request that gathered
    features").  ``component_sum_mean_ms`` is instead the total
    attributed time divided by the number of ok roots: components are
    conditional (a table read never gathers features), so only this
    per-request normalization is additive — it keeps the conservation
    invariant ``component_sum ≤ e2e mean``, whose slack is
    ``unattributed_mean_ms`` (clamped at the bound the tests pin: it
    cannot go negative without an accounting bug).  A zero count raises
    ``ZeroDivisionError``.

    :meth:`Tracer.decomposition` and ``repro trace`` (from the exported
    ``repro_request_component_{seconds,samples}_total`` totals) both
    compute their means here.
    """
    e2e_s, roots = e2e
    e2e_ms = 1e3 * e2e_s / roots
    attributed_ms = 1e3 * sum(total_s for total_s, _ in components.values()) / roots
    return {
        "e2e_mean_ms": e2e_ms,
        "component_mean_ms": {
            name: 1e3 * total_s / count
            for name, (total_s, count) in sorted(components.items())
        },
        "component_sum_mean_ms": attributed_ms,
        "unattributed_mean_ms": max(0.0, e2e_ms - attributed_ms),
    }


# -- tracer -------------------------------------------------------------------


class Tracer:
    """Sampling decision + bounded span ring + latency decomposition.

    Parameters default from the environment so one knob flips the whole
    serving stack: ``REPRO_TRACE`` (off unless set truthy),
    ``REPRO_TRACE_SAMPLE`` (head sampling rate in (0, 1], default keep
    everything), ``REPRO_TRACE_BUFFER`` (ring capacity in spans).
    """

    def __init__(
        self,
        enabled: Optional[bool] = None,
        sample_rate: Optional[float] = None,
        capacity: Optional[int] = None,
    ):
        env = os.environ
        if enabled is None:
            enabled = env.get("REPRO_TRACE", "") not in ("", "0", "false", "no")
        if sample_rate is None:
            sample_rate = float(env.get("REPRO_TRACE_SAMPLE", "1.0"))
        if capacity is None:
            capacity = int(env.get("REPRO_TRACE_BUFFER", "4096"))
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")
        self.enabled = bool(enabled)
        self.sample_rate = float(sample_rate)
        self.capacity = int(capacity)
        # deterministic head sampling: keep every Nth root (0 = keep none)
        if sample_rate >= 1.0:
            self._period = 1
        elif sample_rate <= 0.0:
            self._period = 0
        else:
            self._period = max(1, int(round(1.0 / sample_rate)))
        # id allocation: itertools.count.__next__ is atomic in CPython
        self._ids = itertools.count(1)
        # wall-clock anchor so exported timestamps are absolute epoch µs
        self._wall0 = time.time()
        self._perf0 = time.perf_counter()
        self._lock = make_lock("obs.trace.ring")
        self._ring: List[dict] = []  # guarded-by: _lock
        self._slot = 0  # guarded-by: _lock — next overwrite index once full
        self._seen = 0  # guarded-by: _lock — root sampling decisions made
        self._sampled = 0  # guarded-by: _lock — root spans actually opened
        self._finished = 0  # guarded-by: _lock — spans pushed to the ring
        self._dropped = 0  # guarded-by: _lock — spans overwritten unread
        self._decomp_lock = make_lock("obs.trace.decomp")
        self._decomp: Dict[str, dict] = {}  # guarded-by: _decomp_lock

    # -- span creation --------------------------------------------------------

    def next_id(self) -> int:
        return next(self._ids)

    def to_wall_us(self, t_perf: float) -> float:
        """Map a ``perf_counter`` instant to absolute epoch microseconds."""
        return (self._wall0 + (t_perf - self._perf0)) * 1e6

    def root(self, name: str, cat: str = "request") -> Optional[Span]:
        """One head-sampled root span per admitted request, or ``None``.

        ``None`` is the contract for "not traced": every downstream site
        checks the context once and does no other work.
        """
        if not self.enabled or self._period == 0:
            return None
        with self._lock:
            self._seen += 1
            take = (self._seen - 1) % self._period == 0
            if take:
                self._sampled += 1
        if not take:
            return None
        return Span(self, name, cat=cat)

    # -- ring -----------------------------------------------------------------

    def push(self, record: dict) -> None:
        """Land one finished span; a full ring overwrites the oldest."""
        with self._lock:
            self._finished += 1
            if len(self._ring) < self.capacity:
                self._ring.append(record)
            else:
                self._ring[self._slot] = record
                self._slot = (self._slot + 1) % self.capacity
                self._dropped += 1

    def export(self) -> List[dict]:
        """Buffered spans, oldest first (a consistent copy)."""
        with self._lock:
            if len(self._ring) < self.capacity:
                return list(self._ring)
            return self._ring[self._slot:] + self._ring[: self._slot]

    def stats(self) -> dict:
        with self._lock:
            return {
                "enabled": self.enabled,
                "sample_rate": self.sample_rate,
                "capacity": self.capacity,
                "seen": self._seen,
                "sampled": self._sampled,
                "finished": self._finished,
                "dropped": self._dropped,
                "buffered": len(self._ring),
            }

    # -- latency decomposition ------------------------------------------------

    def record_components(self, endpoint: str, components: Dict[str, float], e2e_s: float):
        """Fold one ok root's component seconds into the per-endpoint
        histograms (sampled requests only, by construction)."""
        with self._decomp_lock:
            ep = self._decomp.get(endpoint)
            if ep is None:
                ep = self._decomp[endpoint] = {"e2e": _Agg(), "components": {}}
            ep["e2e"].add(e2e_s)
            for name, seconds in components.items():
                agg = ep["components"].get(name)
                if agg is None:
                    agg = ep["components"][name] = _Agg()
                agg.add(seconds)

    def decomposition(self) -> Dict[str, dict]:
        """Per-endpoint component histograms vs end-to-end latency, with
        the means of :func:`decompose`."""
        with self._decomp_lock:
            out: Dict[str, dict] = {}
            for endpoint, ep in sorted(self._decomp.items()):
                e2e, comps = ep["e2e"], ep["components"]
                means = decompose(
                    (e2e.total_s, e2e.count),
                    {name: (agg.total_s, agg.count) for name, agg in comps.items()},
                )
                out[endpoint] = {
                    "count": e2e.count,
                    "e2e": e2e.summary(means["e2e_mean_ms"]),
                    "components": {
                        name: comps[name].summary(mean_ms)
                        for name, mean_ms in means["component_mean_ms"].items()
                    },
                    "component_sum_mean_ms": means["component_sum_mean_ms"],
                    "unattributed_mean_ms": means["unattributed_mean_ms"],
                }
            return out


# -- module default tracer ----------------------------------------------------

_default_lock = make_lock("obs.trace.default")
_default: Optional[Tracer] = None


def get_tracer() -> Tracer:
    """The process-wide default tracer, built lazily from the
    environment (``REPRO_TRACE`` / ``REPRO_TRACE_SAMPLE`` /
    ``REPRO_TRACE_BUFFER``)."""
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
