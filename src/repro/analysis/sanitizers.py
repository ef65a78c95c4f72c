"""Runtime concurrency sanitizer: lock-order recording + blocking probes.

This module is the dynamic half of ``repro check`` (the static half lives
in :mod:`repro.analysis.linter`).  Every lock-owning module in the tree
creates its primitives through :func:`make_lock` / :func:`make_condition`
instead of calling :mod:`threading` directly.  When the sanitizer is off
(the default) those factories return plain ``threading.Lock`` /
``threading.Condition`` objects — zero overhead, bit-identical behavior.

When ``REPRO_SANITIZE=1`` (or a test forces it on) the factories return
:class:`SanitizedLock` wrappers that report every acquisition and release
to a process-global :class:`LockOrderRecorder`.  The recorder maintains:

- a per-thread stack of currently-held lock *names*,
- a name-level lock-order graph: an edge ``A -> B`` means some thread
  acquired ``B`` while holding ``A`` (with an acquire-site witness),
- a list of *blocking calls under a held lock* observed by the probes
  (currently ``time.sleep``, patched process-wide while sanitizing).

A cycle in the order graph is a potential deadlock even if the test run
happened not to interleave badly — the same signal lockdep / TSan's
deadlock detector use.  Findings are exposed via
:meth:`LockOrderRecorder.findings` and, when ``REPRO_SANITIZE_REPORT`` is
set, written as JSON at interpreter exit so CI can gate on a clean run.

Design notes
------------
- Edges are recorded at *name* level, not object level.  Two instances
  of the same class share a lock name (e.g. ``featurestore.hotset``);
  re-acquiring the same name on one thread is intentionally *not* an edge, so
  per-instance locks of one class never self-report.  Cross-name cycles
  (``A -> B`` and ``B -> A``) are exactly the hierarchy violations we
  care about.
- ``threading.Condition`` accepts a duck-typed lock: it only needs
  ``acquire(blocking, timeout)``/``release`` and falls back to a
  probe-based ``_is_owned``.  ``SanitizedLock`` satisfies that contract,
  so ``Condition.wait`` transparently records the release/re-acquire
  pair (a ``wait`` on a held condition is *not* a blocking call — it
  releases its own lock).
- The recorder itself uses one plain ``threading.Lock`` held only for
  dict updates; sanitized locks never nest inside it.
"""

from __future__ import annotations

import atexit
import contextlib
import json
import os
import sys
import threading
import time as _time
from typing import Dict, List, Optional, Tuple

ENV_FLAG = "REPRO_SANITIZE"
ENV_REPORT = "REPRO_SANITIZE_REPORT"

_IMPORT_PID = os.getpid()
_REAL_SLEEP = _time.sleep

# Test hook: overrides the environment flag when not None.
_FORCE: Optional[bool] = None


def enabled(force: Optional[bool] = None) -> bool:
    """Is the sanitizer on? ``force`` > module force-flag > environment."""
    if force is not None:
        return force
    if _FORCE is not None:
        return _FORCE
    return os.environ.get(ENV_FLAG, "").strip().lower() not in (
        "", "0", "false", "no",
    )


def set_force(value: Optional[bool]) -> None:
    """Force the sanitizer on/off for tests (None restores env control)."""
    global _FORCE
    _FORCE = value


def _call_site(skip_internal: Tuple[str, ...] = ("sanitizers.py", "threading.py")) -> str:
    """file:line of the nearest frame outside this module and threading."""
    frame = sys._getframe(1)
    while frame is not None and frame.f_code.co_filename.endswith(skip_internal):
        frame = frame.f_back
    if frame is None:
        return "?"
    path = frame.f_code.co_filename
    parts = path.replace(os.sep, "/").rsplit("/", 3)
    short = "/".join(parts[-3:]) if len(parts) > 3 else path
    return f"{short}:{frame.f_lineno}"


class LockOrderRecorder:
    """Collects lock-order edges, held stacks, and blocking-call findings."""

    # Bound memory even under pathological instrumentation.
    MAX_BLOCKING = 256

    def __init__(self) -> None:
        self._mu = threading.Lock()
        # (before, after) -> {"count", "site", "thread"} witness of first sighting
        self._edges: Dict[Tuple[str, str], Dict[str, object]] = {}
        # (call, held-names, site) -> count
        self._blocking: Dict[Tuple[str, Tuple[str, ...], str], int] = {}
        self._tls = threading.local()

    # -- per-thread held stack -------------------------------------------

    def _stack(self) -> List[str]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def held(self) -> Tuple[str, ...]:
        """Names of sanitized locks the current thread holds (outer first)."""
        return tuple(self._stack())

    # -- event hooks (called by SanitizedLock) ---------------------------

    def on_acquire(self, name: str, site: str) -> None:
        stack = self._stack()
        outer = [h for h in dict.fromkeys(stack) if h != name]
        if outer:
            with self._mu:
                for before in outer:
                    edge = self._edges.get((before, name))
                    if edge is None:
                        self._edges[(before, name)] = {
                            "count": 1,
                            "site": site,
                            "thread": threading.current_thread().name,
                        }
                    else:
                        edge["count"] = int(edge["count"]) + 1  # type: ignore[index]
        stack.append(name)

    def on_release(self, name: str) -> None:
        stack = self._stack()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] == name:
                del stack[i]
                return

    def on_blocking_call(self, call: str, site: str) -> None:
        held = tuple(dict.fromkeys(self._stack()))
        if not held:
            return
        key = (call, held, site)
        with self._mu:
            if key not in self._blocking and len(self._blocking) >= self.MAX_BLOCKING:
                return
            self._blocking[key] = self._blocking.get(key, 0) + 1

    # -- analysis --------------------------------------------------------

    def edges(self) -> List[Dict[str, object]]:
        with self._mu:
            return [
                {"before": a, "after": b, **info}
                for (a, b), info in sorted(self._edges.items())
            ]

    def cycles(self) -> List[List[str]]:
        """Cycles in the name-level order graph (each a canonical rotation)."""
        with self._mu:
            adj: Dict[str, set] = {}
            for a, b in self._edges:
                adj.setdefault(a, set()).add(b)
        found = set()

        def walk(path: List[str]) -> None:
            node = path[-1]
            for nxt in sorted(adj.get(node, ())):
                if nxt == path[0]:
                    cyc = tuple(path)
                    pivot = cyc.index(min(cyc))
                    found.add(cyc[pivot:] + cyc[:pivot])
                elif nxt not in path and len(path) < 16:
                    walk(path + [nxt])

        for start in sorted(adj):
            walk([start])
        return [list(c) for c in sorted(found)]

    def blocking_calls(self) -> List[Dict[str, object]]:
        with self._mu:
            return [
                {"call": call, "held": list(held), "site": site, "count": count}
                for (call, held, site), count in sorted(self._blocking.items())
            ]

    def findings(self) -> Dict[str, object]:
        """Everything that should fail a sanitized run: cycles + blocking."""
        return {"cycles": self.cycles(), "blocking": self.blocking_calls()}

    def clear(self) -> None:
        with self._mu:
            self._edges.clear()
            self._blocking.clear()
        # Thread-local stacks are intentionally untouched: live threads may
        # legitimately hold locks across a clear().

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe report of the full recorder state."""
        edges = self.edges()
        return {
            "enabled": enabled(),
            "edges": edges,
            "num_edges": len(edges),
            "cycles": self.cycles(),
            "blocking": self.blocking_calls(),
        }


_RECORDER = LockOrderRecorder()


def current_recorder() -> LockOrderRecorder:
    return _RECORDER


@contextlib.contextmanager
def scoped_recorder(recorder: Optional[LockOrderRecorder] = None):
    """Swap the global recorder for the duration of a test block."""
    global _RECORDER
    previous = _RECORDER
    _RECORDER = recorder if recorder is not None else LockOrderRecorder()
    try:
        yield _RECORDER
    finally:
        _RECORDER = previous


class SanitizedLock:
    """A ``threading.Lock`` that reports acquire/release to a recorder.

    Satisfies the duck-lock contract ``threading.Condition`` expects, so
    ``threading.Condition(make_lock("x"))`` instruments the condition's
    own lock transparently.
    """

    __slots__ = ("_name", "_lock", "_recorder")

    def __init__(
        self,
        name: str,
        recorder: Optional[LockOrderRecorder] = None,
    ) -> None:
        self._name = name
        self._lock = threading.Lock()
        self._recorder = recorder

    @property
    def name(self) -> str:
        return self._name

    def _rec(self) -> LockOrderRecorder:
        return self._recorder if self._recorder is not None else _RECORDER

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._lock.acquire(blocking, timeout)
        if got:
            self._rec().on_acquire(self._name, _call_site())
        return got

    def release(self) -> None:
        self._rec().on_release(self._name)
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SanitizedLock {self._name!r} locked={self._lock.locked()}>"


def make_lock(
    name: str,
    *,
    recorder: Optional[LockOrderRecorder] = None,
    force: Optional[bool] = None,
):
    """A mutex: plain ``threading.Lock`` unless the sanitizer is on."""
    if not enabled(force):
        return threading.Lock()
    install_probes()
    return SanitizedLock(name, recorder)


def make_condition(
    name: str,
    *,
    recorder: Optional[LockOrderRecorder] = None,
    force: Optional[bool] = None,
):
    """A condition variable over its own (possibly sanitized) lock."""
    if not enabled(force):
        return threading.Condition()
    install_probes()
    return threading.Condition(SanitizedLock(name, recorder))


# -- blocking-call probes ----------------------------------------------------

_PROBES_INSTALLED = False


def _probed_sleep(seconds: float) -> None:
    recorder = _RECORDER
    if recorder.held():
        recorder.on_blocking_call(f"time.sleep({seconds!r})", _call_site())
    _REAL_SLEEP(seconds)


def install_probes() -> None:
    """Patch ``time.sleep`` to flag sleeps made while holding a lock."""
    global _PROBES_INSTALLED
    if _PROBES_INSTALLED:
        return
    _time.sleep = _probed_sleep
    _PROBES_INSTALLED = True


def uninstall_probes() -> None:
    global _PROBES_INSTALLED
    if _PROBES_INSTALLED:
        _time.sleep = _REAL_SLEEP
        _PROBES_INSTALLED = False


# -- exit report -------------------------------------------------------------


def _write_report_at_exit() -> None:
    path = os.environ.get(ENV_REPORT, "").strip()
    if not path or not enabled() or os.getpid() != _IMPORT_PID:
        # Forked shm workers inherit the hook; only the parent reports.
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_RECORDER.snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError:  # pragma: no cover - best-effort reporting
        pass


atexit.register(_write_report_at_exit)
