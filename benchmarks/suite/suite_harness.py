"""Benchmark harness pieces that do not depend on the program under test.

Everything here is the benchmark's own: the percentile helper, the
Poisson/Zipf schedule generator, the span recorder, the HTTP client and
the server-child lifecycle.  Nothing in this module imports ``repro``,
so a later PR can change or delete ``repro.serving.loadgen``,
``percentiles_ms`` or ``benchmarks/bench_utils.py`` without moving the
yardstick.
"""

from __future__ import annotations

import heapq
import http.client
import json
import math
import os
import platform
import re
import resource
import selectors
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
SRC_DIR = os.path.join(REPO_ROOT, "src")
RESULTS_DIR = os.path.join(SUITE_DIR, "results")


def scratch_root() -> str:
    """Where temporary files go: inside the checkout (the benchmark
    writes nowhere else), under the ignored ``results/``."""
    path = os.path.join(RESULTS_DIR, "tmp")
    os.makedirs(path, exist_ok=True)
    return path

#: environment variables that change what the program does; dropped so a
#: developer's shell cannot leak into the numbers.
_SCRUBBED_PREFIXES = ("REPRO_NUM_THREADS", "REPRO_TRACE", "REPRO_SANITIZE")


def child_env(extra: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """Environment for a child interpreter: ``REPRO_*`` switches
    scrubbed, ``src/`` importable, everything else (including the BLAS
    pinning ``run.py`` sets) inherited."""
    env = {
        k: v for k, v in os.environ.items() if not k.startswith(_SCRUBBED_PREFIXES)
    }
    env["PYTHONPATH"] = SRC_DIR
    env.update(extra or {})
    return env


# -- percentiles ---------------------------------------------------------------------

#: the tail percentile reported is the highest of these that still has
#: at least ``MIN_BEYOND`` samples beyond it.
TAIL_LADDER = (75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100])."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_quantile(n: int) -> float:
    """Highest percentile of the ladder with ``MIN_BEYOND`` samples
    beyond it; the median when even p75 has too few."""
    best = 50.0
    for q in TAIL_LADDER:
        if round(n * (100.0 - q) / 100.0, 6) >= MIN_BEYOND:
            best = q
    return best


def summarize(samples: Sequence[float]) -> dict:
    """``{"n", "p50", "tail_q", "tail"}``: median plus the highest
    percentile the sample count supports."""
    q = tail_quantile(len(samples))
    return {
        "n": len(samples),
        "p50": percentile(samples, 50.0),
        "tail_q": q,
        "tail": percentile(samples, q),
    }


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


# -- schedules -----------------------------------------------------------------------


def poisson_arrivals(rng: np.random.Generator, rate: float, duration: float) -> np.ndarray:
    """Arrival offsets (seconds) of a Poisson process on ``[0, duration)``."""
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    # draw in blocks until the horizon is covered; the kept prefix does
    # not depend on the block size
    times: List[np.ndarray] = []
    t = 0.0
    while t < duration:
        gaps = rng.exponential(1.0 / rate, size=max(int(rate * duration) + 16, 16))
        block = t + np.cumsum(gaps)
        times.append(block)
        t = float(block[-1])
    arrivals = np.concatenate(times)
    return arrivals[arrivals < duration]


def interarrival_scv(arrivals: np.ndarray) -> float:
    """Squared coefficient of variation of the gaps (1 for Poisson)."""
    gaps = np.diff(arrivals)
    if gaps.size < 2:
        return float("nan")
    return float(np.var(gaps) / np.mean(gaps) ** 2)


def zipf_vertices(
    rng: np.random.Generator, num_vertices: int, count: int, a: float = 1.1
) -> np.ndarray:
    """``count`` vertex ids with bounded-Zipf(``a``) popularity.  Rank
    ``k`` has weight ``k**-a``; ranks map to ids through a permutation
    drawn from the same generator, so hot vertices are not the low ids."""
    weights = np.arange(1, num_vertices + 1, dtype=np.float64) ** -a
    ranks = rng.choice(num_vertices, size=count, p=weights / weights.sum())
    return rng.permutation(num_vertices)[ranks]


@dataclass(frozen=True)
class Request:
    """One scheduled HTTP request."""

    at: float  #: offset from phase start, seconds
    kind: str  #: "predict" | "topk" | "update_edges" | "update_features"
    path: str
    body: bytes


def read_requests(
    seed: int,
    arrivals: np.ndarray,
    num_vertices: int,
    topk_share: float = 0.25,
    per_request: int = 8,
    k: int = 3,
    stream: int = 1,
) -> List[Request]:
    """Seeded read mix: ``predict`` / ``topk`` bodies over Zipf vertices.
    ``stream`` separates independent draws under one seed."""
    rng = np.random.default_rng([seed, stream])
    n = len(arrivals)
    vertices = zipf_vertices(rng, num_vertices, n * per_request).reshape(n, per_request)
    is_topk = rng.random(n) < topk_share
    out = []
    for at, row, topk in zip(arrivals.tolist(), vertices.tolist(), is_topk.tolist()):
        payload = {"vertices": row}
        if topk:
            payload["k"] = k
        out.append(
            Request(at, "topk" if topk else "predict", "/predict", json_bytes(payload))
        )
    return out


def json_bytes(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("ascii")


def schedule_bytes(requests: Sequence[Request]) -> bytes:
    """Canonical serialization (determinism checks diff this)."""
    return b"\n".join(
        b"%.9f %s %s %s" % (r.at, r.kind.encode(), r.path.encode(), r.body)
        for r in requests
    )


# -- spans ---------------------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    workload: str = ""
    thread: int = 0
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span recorder wrapped *around* calls into a layer.

    Spans nest per thread (the enclosing open span is the parent) and
    are written out once, as Chrome trace-event JSON, when the run ends.
    A disabled recorder costs one attribute test per ``span()``.
    """

    def __init__(self, workload: str = "", enabled: bool = True):
        self.workload = workload
        self.enabled = enabled
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, **args) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = Span(
            name=name,
            start=time.perf_counter(),
            parent=stack[-1] if stack else None,
            workload=self.workload,
            thread=threading.get_ident(),
            args=args,
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def add(self, name: str, start: float, end: float, parent: Optional[int] = None,
            **args) -> int:
        """Record an already-timed interval (e.g. a request measured
        from its scheduled send time)."""
        record = Span(name, start, end, parent, self.workload,
                      threading.get_ident(), args)
        with self._lock:
            self.spans.append(record)
            return len(self.spans) - 1

    def self_times(self) -> List[float]:
        """Per span: duration minus the part its children cover (the
        union of the child intervals, clipped to the span)."""
        children: Dict[int, List[Tuple[float, float]]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append((s.start, s.end))
        out = []
        for i, s in enumerate(self.spans):
            covered = 0.0
            cursor = s.start
            for lo, hi in sorted(children.get(i, ())):
                lo, hi = max(lo, cursor), min(hi, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(s.duration - covered)
        return out

    def totals(self) -> Dict[str, dict]:
        """``name -> {"count", "total_s", "self_s"}``."""
        out: Dict[str, dict] = {}
        for s, self_s in zip(self.spans, self.self_times()):
            row = out.setdefault(s.name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += s.duration
            row["self_s"] += self_s
        return out

    def chrome_trace(self) -> dict:
        events = []
        for i, s in enumerate(self.spans):
            events.append({
                "name": s.name,
                "cat": s.name.split(".")[0],
                "ph": "X",
                "ts": (s.start - self._t0) * 1e6,
                "dur": s.duration * 1e6,
                "pid": 1,
                "tid": s.thread % 100000,
                "args": {"id": i, "parent": s.parent, "workload": s.workload, **s.args},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(self.chrome_trace(), f)


# -- machine-speed reference ---------------------------------------------------------


class SpeedReference:
    """A fixed piece of work, timed beside the operations of a run.

    The sandbox's cores are shares of a busy host: the same code runs
    1.2x to 2x slower for seconds or for minutes at a time, and no run
    length or quantile takes that out of a timing.  The reference does
    the kinds of work the training code does (dict and list building,
    small numpy allocations, a row gather) on inputs that never change,
    so its time moves with the machine and with nothing in the program.
    An in-process workload divides its timings by ``slowness()``: the
    reference's median time in the same stretch of the run over its time
    on a quiet day on the box that defined the benchmark.

    The serving workloads do not use it.  Their latency is wake-ups,
    timers and hand-offs between two processes, which this does not
    track: scaled by it, their ten-run spread got up to four times wider.
    """

    #: one pass on the defining box (2 vCPU Xeon 2.1 GHz) when quiet;
    #: only ratios between runs matter, this keeps the numbers readable
    NOMINAL_S = 0.0036

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)  # never the run's seed
        self._keys = rng.integers(0, 2_000_000, size=6000).tolist()
        self._pool = rng.integers(0, 2_000_000, size=10_000)
        self._table = rng.standard_normal((200_000, 16)).astype(np.float32)
        self._rows = rng.integers(0, 200_000, size=15_000)
        self._rng = np.random.default_rng(1)
        self.samples: List[float] = []

    def work(self) -> None:
        keys = self._keys
        lookup = {k: i for i, k in enumerate(keys)}
        np.array([lookup[k] for k in keys], dtype=np.int64)
        pool, choice = self._pool, self._rng.choice
        np.concatenate([choice(pool[i:i + 50], size=10, replace=False)
                        for i in range(0, pool.size, 50)])
        self._table[self._rows].sum(axis=0)

    def sample(self, times: int = 1) -> None:
        """Time ``times`` passes, after one untimed pass that brings the
        reference's own data back into the caches the last op emptied."""
        self.work()
        for _ in range(times):
            t0 = time.perf_counter()
            self.work()
            self.samples.append(time.perf_counter() - t0)

    def mark(self) -> int:
        return len(self.samples)

    def slowness(self, since: int = 0, until: Optional[int] = None) -> float:
        """Median sample between two ``mark()``s over the nominal: 1.0 on
        the defining box when quiet, 2.0 when the machine runs at half speed."""
        return median(self.samples[since:until]) / self.NOMINAL_S


# -- timed loops ---------------------------------------------------------------------


def timed_ops(
    op: Callable[[int], object],
    seconds: float,
    min_ops: int,
    recorder: Optional[SpanRecorder] = None,
    span_name: str = "op",
    trace_every: int = 1,
    reference: Optional[SpeedReference] = None,
) -> Tuple[List[float], List[object], List[bool]]:
    """Call ``op(i)`` back to back until ``seconds`` elapse (and at
    least ``min_ops`` times).  Returns per-call wall times, results and
    whether each call ran inside a span (``trace_every=2`` traces every
    other call, which is how span overhead is measured in one run).
    The speed reference is sampled before every call."""
    times: List[float] = []
    results: List[object] = []
    traced: List[bool] = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_ops or time.perf_counter() < deadline:
        if reference is not None:
            reference.sample()
        in_span = recorder is not None and recorder.enabled and i % trace_every == 0
        t0 = time.perf_counter()
        with recorder.span(span_name, index=i) if in_span else nullcontext():
            out = op(i)
        times.append(time.perf_counter() - t0)
        results.append(out)
        traced.append(in_span)
        i += 1
    return times, results, traced


def span_overhead_pct(times: Sequence[float], traced: Sequence[bool]) -> float:
    """Median traced call over median untraced call, minus one, in %."""
    on = [t for t, flag in zip(times, traced) if flag]
    off = [t for t, flag in zip(times, traced) if not flag]
    if not on or not off:
        return 0.0
    return 100.0 * (median(on) / median(off) - 1.0)


# -- run results ---------------------------------------------------------------------


@dataclass
class RunResult:
    """What one workload run hands back to ``run.py``."""

    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: List[dict] = field(default_factory=list)
    detail: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """Record one correctness check; a failed one counts as a
        failed operation and fails the run."""
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        if not ok:
            self.failed += 1
        return bool(ok)

    @property
    def correct(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def set_end_to_end(self, setup_times: Sequence[float], latencies: Sequence[float],
                       ops_per_s: float, ops_counted: int, peak_rss_mb: float,
                       setup_slowness: float = 1.0, op_slowness: float = 1.0,
                       rate_slowness: float = 1.0) -> None:
        """The four end-to-end metrics, their sample counts, and the
        latency summary (median + highest supported percentile).  Times
        are divided by the machine's slowness while they were taken (see
        ``SpeedReference``) and rates multiplied by it; the numbers as
        measured and the factors go to ``detail["as_measured"]``."""
        self.end_to_end = {
            "setup_s": median(setup_times) / setup_slowness,
            "op_p50_ms": 1e3 * median(latencies) / op_slowness,
            "ops_per_s": ops_per_s * rate_slowness,
            "peak_rss_mb": peak_rss_mb,
        }
        self.detail["samples"] = {
            "setup_s": len(setup_times), "op_p50_ms": len(latencies),
            "ops_per_s": ops_counted, "peak_rss_mb": 1,
        }
        self.detail["as_measured"] = {
            "setup_s": median(setup_times), "op_p50_ms": 1e3 * median(latencies),
            "ops_per_s": ops_per_s, "setup_slowness": setup_slowness,
            "op_slowness": op_slowness, "rate_slowness": rate_slowness,
        }
        summary = summarize(latencies)
        self.detail["op_ms"] = {**summary, "p50": 1e3 * summary["p50"],
                                "tail": 1e3 * summary["tail"]}


#: reference passes before each set-up and after the last: a set-up runs
#: for seconds and only its ends can be sampled, so sample them well
SETUP_BURST = 8


def repeat_setup(build: Callable[[], object], repeats: int,
                 teardown: Optional[Callable[[object], None]] = None,
                 reference: Optional[SpeedReference] = None,
                 ) -> Tuple[object, List[float]]:
    """Set up ``repeats`` times from scratch; keep the last instance.
    ``setup_s`` is the median of the returned times.  The speed
    reference is sampled before every set-up and after the last."""
    times = []
    state = None
    for _ in range(repeats):
        if state is not None and teardown is not None:
            teardown(state)
        state = None  # drop the old instance before building the next
        if reference is not None:
            reference.sample(SETUP_BURST)
        t0 = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - t0)
    if reference is not None:
        reference.sample(SETUP_BURST)
    return state, times


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- HTTP ----------------------------------------------------------------------------


class HttpClient:
    """One keep-alive connection; reconnects once on a dropped socket."""

    def __init__(self, port: int, timeout: float = 30.0):
        self.port = port
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None
        #: ``Retry-After`` of the last answer, seconds (None when absent)
        self.retry_after: Optional[float] = None

    def _connect(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=self.timeout
            )
        return self._conn

    def request(self, method: str, path: str, body: Optional[bytes] = None
                ) -> Tuple[int, bytes]:
        headers = {"Content-Type": "application/json"} if body is not None else {}
        for attempt in (0, 1):
            conn = self._connect()
            try:
                conn.request(method, path, body=body, headers=headers)
                resp = conn.getresponse()
                hint = resp.getheader("Retry-After")
                self.retry_after = float(hint) if hint is not None else None
                return resp.status, resp.read()
            except (http.client.HTTPException, OSError):
                self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")

    def get_json(self, path: str) -> dict:
        status, data = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(data)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


@dataclass
class Outcome:
    """What happened to one scheduled request."""

    request: Request
    status: int  #: final HTTP status; 0 = transport error or gave up
    latency: float  #: from the scheduled send time to the final answer
    late: float  #: first actual send minus scheduled send
    retries: int  #: 503 answers before the final one
    data: bytes


#: a 503 (drain, deadline) tells the client to come back; it does, after
#: the answer's ``Retry-After`` header (this when the header is missing),
#: and gives a request up after this long
RETRY_AFTER_S = 1.0
GIVE_UP_S = 10.0


def send_schedule(
    port: int,
    requests: Sequence[Request],
    start: float,
    recorder: Optional[SpanRecorder] = None,
) -> List[Outcome]:
    """Open loop on one connection: each request is sent at
    ``start + request.at`` (or as soon after as the connection frees
    up) and timed from that scheduled instant.  A 503 answer re-queues
    the request for when its ``Retry-After`` header says, as an
    independent user would come back, without holding up the requests
    scheduled behind it; the wait counts into its latency."""
    client = HttpClient(port)
    outcomes = []
    #: (send time, tie-break, request, scheduled time, first send, retries)
    pending = [(start + r.at, i, r, start + r.at, None, 0) for i, r in enumerate(requests)]
    heapq.heapify(pending)
    try:
        while pending:
            send_at, order, req, due, first_sent, retries = heapq.heappop(pending)
            delay = send_at - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            first_sent = sent if first_sent is None else first_sent
            try:
                status, data = client.request("POST", req.path, req.body)
            except (http.client.HTTPException, OSError):
                status, data = 0, b""
            done = time.perf_counter()
            if status == 503 and done - due < GIVE_UP_S:
                wait = client.retry_after if client.retry_after else RETRY_AFTER_S
                heapq.heappush(pending, (done + wait, order, req, due,
                                         first_sent, retries + 1))
                continue
            outcomes.append(Outcome(req, status, done - due, first_sent - due, retries, data))
            if recorder is not None and recorder.enabled:
                recorder.add(f"http.{req.kind}", due, done, status=status,
                             retries=retries)
    finally:
        client.close()
    return outcomes


def _run_threads(worker: Callable[[int], None], count: int) -> None:
    """Run ``worker(0..count-1)`` on threads; re-raise the first error here."""
    errors: List[BaseException] = []

    def guarded(i: int) -> None:
        try:
            worker(i)
        except BaseException as exc:  # re-raised on the caller's thread
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(i,)) for i in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def run_open_loop(
    port: int,
    lanes: Sequence[Sequence[Request]],
    recorder: Optional[SpanRecorder] = None,
) -> List[Outcome]:
    """One connection (thread) per lane, all against one start instant;
    outcomes come back in schedule order."""
    results: List[List[Outcome]] = [[] for _ in lanes]
    start = time.perf_counter() + 0.05

    def worker(i: int) -> None:
        results[i] = send_schedule(port, lanes[i], start, recorder)

    _run_threads(worker, len(lanes))
    return sorted((o for lane in results for o in lane), key=lambda o: o.request.at)


def run_closed_loop(
    port: int,
    bodies: Sequence[Request],
    seconds: float,
    connections: int = 2,
) -> Tuple[int, int, float]:
    """``connections`` clients back to back for ``seconds``.  Returns
    ``(completed 2xx, attempted, elapsed)``."""
    counts = [[0, 0] for _ in range(connections)]
    start = time.perf_counter()
    deadline = start + seconds

    def worker(i: int) -> None:
        client = HttpClient(port)
        try:
            j = i
            while time.perf_counter() < deadline:
                req = bodies[j % len(bodies)]
                j += connections
                status, _ = client.request("POST", req.path, req.body)
                counts[i][1] += 1
                if 200 <= status < 300:
                    counts[i][0] += 1
        finally:
            client.close()

    _run_threads(worker, connections)
    elapsed = time.perf_counter() - start
    return sum(c[0] for c in counts), sum(c[1] for c in counts), elapsed


# -- server child --------------------------------------------------------------------

_PORT_RE = re.compile(rb"http://127\.0\.0\.1:(\d+)/healthz")


class ServerProcess:
    """``python -m repro serve`` with CLI defaults on an ephemeral port.

    ``start()`` spawns it; leaving the ``with`` block (or ``stop()``)
    terminates it, kills it if it lingers, and waits for it.
    """

    def __init__(self, args: Sequence[str], env_extra: Optional[Dict[str, str]] = None,
                 start_timeout: float = 60.0):
        self.args = list(args)
        self.env_extra = env_extra
        self.start_timeout = start_timeout
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> "ServerProcess":
        self.proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "serve", *self.args, "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env=child_env(self.env_extra),
            cwd=REPO_ROOT,
        )
        try:
            self.port = self._read_port()
            self._await_healthy()
        except BaseException:
            self.stop()
            raise
        return self

    def _read_port(self) -> int:
        """The server prints its bound address once the tables are
        built; read stdout until that line (or the deadline, or EOF)."""
        assert self.proc is not None and self.proc.stdout is not None
        deadline = time.monotonic() + self.start_timeout
        buf = b""
        fd = self.proc.stdout.fileno()
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while True:
                match = _PORT_RE.search(buf)
                if match:
                    return int(match.group(1))
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError("server child did not report a port")
                if sel.select(timeout=remaining):
                    chunk = os.read(fd, 4096)
                    if not chunk:
                        raise RuntimeError(
                            f"server child exited early (code {self.proc.poll()})"
                        )
                    buf += chunk

    def _await_healthy(self) -> None:
        deadline = time.monotonic() + self.start_timeout
        client = HttpClient(self.port, timeout=5.0)
        try:
            while True:
                try:
                    status, _ = client.request("GET", "/healthz")
                    if status == 200:
                        return
                except (http.client.HTTPException, OSError):
                    pass
                if time.monotonic() > deadline:
                    raise TimeoutError("server child never became healthy")
                time.sleep(0.01)
        finally:
            client.close()

    def peak_rss_mb(self) -> float:
        """The child's ``VmHWM`` (peak resident set), MB."""
        assert self.proc is not None
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found")

    def stop(self) -> None:
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


# -- environment block ---------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` directly (the driver's
    checkout is not a repository: then "unknown")."""
    head = os.path.join(REPO_ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(REPO_ROOT, ".git", ref[5:])) as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "git_commit": _git_commit(),
        "seed": seed,
    }
