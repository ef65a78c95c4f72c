"""The two serving workloads: ``python -m repro serve`` as a child
process with CLI defaults, driven over HTTP from this process.

``serve_read`` is reads only (open loop, then closed loop);
``serve_mixed`` puts a fixed-time update schedule beside open-loop
reads.  The checkpoint the server loads is an *input*: it is trained
and written once per run, before set-up is timed.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from suite_harness import (
    HttpClient,
    Outcome,
    Request,
    RunResult,
    ServerProcess,
    SpanRecorder,
    json_bytes,
    interarrival_scv,
    median,
    percentile,
    poisson_arrivals,
    read_requests,
    repeat_setup,
    run_closed_loop,
    run_open_loop,
    scratch_root,
)

from repro.core import TrainConfig, Trainer, save_checkpoint
from repro.core.checkpoint import training_meta
from repro.graph import load_dataset
from repro.serving import (
    IncrementalRefresher,
    InferenceEngine,
    PredictionService,
    ResultCache,
    ServingFrontend,
)

DATASET = "ogbn-papers"
#: `repro serve` defaults, restated for the in-process replay (the child
#: gets them by passing no flags)
CLI_DEFAULTS = dict(cache_size=4096, max_batch=256, max_wait_ms=2.0,
                    full_threshold=0.25, workers=4, max_queue=256,
                    request_timeout=30.0)
ORACLE_EVERY = 50


class Inputs:
    """Dataset, checkpoint and server command line for one run."""

    def __init__(self, scale: float, seed: int, rec: SpanRecorder):
        self.scale, self.seed = scale, seed
        self.tmp = tempfile.mkdtemp(prefix="serve-", dir=scratch_root())
        t0 = time.perf_counter()
        with rec.span("graph.load_dataset", dataset=DATASET, scale=scale):
            self.ds = load_dataset(DATASET, scale=scale, seed=seed)
        self.load_s = time.perf_counter() - t0
        cfg = TrainConfig(num_threads=1, seed=seed, eval_every=0).for_dataset(DATASET)
        trainer = Trainer(self.ds, cfg)
        trainer.train_epoch(0)
        self.checkpoint = os.path.join(self.tmp, "model.npz")
        save_checkpoint(self.checkpoint, trainer.model, trainer.optimizer, epoch=1,
                        extra=training_meta(cfg))
        self.server_args = ["--dataset", DATASET, "--scale", repr(scale),
                            "--seed", str(seed), "--checkpoint", self.checkpoint]

    def oracle(self, rec: SpanRecorder) -> Tuple[InferenceEngine, float]:
        """In-process engine on the same checkpoint, and its precompute time."""
        engine = InferenceEngine.from_checkpoint(self.checkpoint, self.ds)
        t0 = time.perf_counter()
        with rec.span("serving.precompute"):
            engine.precompute()
        return engine, time.perf_counter() - t0

    def cleanup(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def _start_server(inputs: Inputs, rec: SpanRecorder, env_extra=None) -> ServerProcess:
    """One set-up: spawn, wait for ``/healthz`` 200, answer a first read."""
    with rec.span("serving.server_start"):
        server = ServerProcess(inputs.server_args, env_extra).start()
    try:
        client = HttpClient(server.port)
        try:
            status, _ = client.request("POST", "/predict", json_bytes({"vertices": [0]}))
        finally:
            client.close()
        if status != 200:
            raise RuntimeError(f"first read answered {status}")
    except BaseException:
        server.stop()
        raise
    return server


def answer(target, vertices: np.ndarray, k) -> dict:
    """The response body the HTTP handler builds, from any object with
    ``predict``-labels and ``topk`` (engine or service)."""
    if isinstance(target, InferenceEngine):
        labels = target.predict_labels(vertices)
    else:
        labels = target.predict(vertices)
    resp = {"vertices": vertices.tolist(), "labels": labels.tolist()}
    if k is not None:
        classes, scores = target.topk(vertices, k=k)
        resp["topk"] = [
            [{"class": int(c), "score": float(s)} for c, s in zip(crow, srow)]
            for crow, srow in zip(classes, scores)
        ]
    return resp


def _matches_oracle(engine: InferenceEngine, outcome: Outcome) -> bool:
    body = json.loads(outcome.request.body)
    got = json.loads(outcome.data)
    want = answer(engine, np.asarray(body["vertices"]), body.get("k"))
    if got.get("vertices") != want["vertices"] or got.get("labels") != want["labels"]:
        return False
    if "topk" not in want:
        return "topk" not in got
    for grow, wrow in zip(got.get("topk", ()), want["topk"]):
        for g, w in zip(grow, wrow):
            if g["class"] != w["class"] or abs(g["score"] - w["score"]) > 1e-6:
                return False
    return len(got.get("topk", ())) == len(want["topk"])


def _server_counters(client: HttpClient) -> dict:
    """The child's own account of the run (``/metrics`` + ``/stats``)."""
    metrics = client.get_json("/metrics")
    stats = client.get_json("/stats")
    batcher = stats.get("batcher") or {}
    totals = metrics["totals"]
    return {
        "metrics": metrics,
        "stats": stats,
        "serving.cache_hit_rate": float(metrics.get("cache_hit_rate") or 0.0),
        "serving.batch_mean_rows":
            batcher.get("vertices_computed", 0) / max(batcher.get("batches", 0), 1),
        "serving.rejected_draining": float(totals["rejected_draining"]),
        "serving.rejected_queue_full": float(totals["rejected_queue_full"]),
        "serving.timeouts": float(totals["timeout"]),
        "serving.num_drains": float(metrics["num_drains"]),
    }


_COUNTER_KEYS = ("serving.rejected_draining", "serving.rejected_queue_full",
                 "serving.timeouts", "serving.num_drains")


def _read_latency_layers(reads: Sequence[Outcome], arrivals: np.ndarray,
                         duration: float) -> Dict[str, float]:
    ok_ms = [1e3 * o.latency for o in reads if 200 <= o.status < 300]
    return {
        "serving.read_mean_ms": float(np.mean(ok_ms)),
        "serving.read_p90_ms": percentile(ok_ms, 90.0),
        "serving.read_p99_ms": percentile(ok_ms, 99.0),
        "bench.late_p99_ms": percentile([1e3 * o.late for o in reads], 99.0),
        "bench.interarrival_scv": interarrival_scv(arrivals),
        "bench.offered_rps": len(arrivals) / duration,
    }


def _check_generator(result: RunResult, layers: Dict[str, float], n: int) -> None:
    """SCV of exponential gaps is 1; its estimate from ``n`` gaps has
    standard deviation ~2/sqrt(n), so allow four of those (>= 0.1)."""
    scv = layers["bench.interarrival_scv"]
    tolerance = max(0.1, 8.0 / np.sqrt(n))
    result.check("Poisson inter-arrival SCV is 1 within sampling error",
                 abs(scv - 1.0) <= tolerance, f"scv {scv:.4f} n {n} tol {tolerance:.3f}")


# -- serve_read ------------------------------------------------------------------------

READ_RATE = 150.0
OPEN_SHARE = 0.6  # of the measured seconds; the rest is the closed loop
CLOSED_LOOP_BODIES = 4000  # more than one closed-loop phase gets through


def _replay_layers(inputs: Inputs, engine: InferenceEngine,
                   requests: Sequence[Request], rec: SpanRecorder
                   ) -> Dict[str, float]:
    """The same requests, one caller, closed loop, at each boundary of
    the serving stack: engine, service, frontend, HTTP.  Every boundary
    starts from a cold result cache (HTTP: a fresh child), so the four
    see the same hits and misses."""
    parsed = []
    for req in requests:
        body = json.loads(req.body)
        parsed.append((req.kind, np.asarray(body["vertices"]), body.get("k")))
    d = CLI_DEFAULTS
    # composed as cli._build_service / cmd_serve compose them
    service = PredictionService(
        engine,
        cache=ResultCache(d["cache_size"]),
        batch=True, max_batch=d["max_batch"], max_wait_ms=d["max_wait_ms"],
        refresher=IncrementalRefresher(engine, full_threshold=d["full_threshold"]),
    )
    frontend = ServingFrontend(service, num_workers=d["workers"],
                               max_queue=d["max_queue"],
                               default_timeout_s=d["request_timeout"])

    def timed(name: str, call: Callable) -> float:
        times = []
        with rec.span(f"serving.replay.{name}", requests=len(parsed)):
            for item, req in zip(parsed, requests):
                t0 = time.perf_counter()
                call(item, req)
                times.append(time.perf_counter() - t0)
        return 1e6 * median(times)

    try:
        p50 = {"engine": timed("engine", lambda it, _: answer(engine, it[1], it[2]))}
        p50["service"] = timed("service", lambda it, _: answer(service, it[1], it[2]))
        service.cache.reset()
        p50["frontend"] = timed(
            "frontend",
            lambda it, _: frontend.call(it[0], lambda: answer(service, it[1], it[2])),
        )
    finally:
        frontend.close()
        service.close()
    with _start_server(inputs, rec) as server:
        client = HttpClient(server.port)
        try:
            p50["http"] = timed(
                "http", lambda _, req: client.request("POST", req.path, req.body)
            )
        finally:
            client.close()
    return {
        "serving.engine_p50_us": p50["engine"],
        "serving.service_p50_us": p50["service"],
        "serving.frontend_p50_us": p50["frontend"],
        "serving.http_p50_us": p50["http"],
        "serving.service_added_us": p50["service"] - p50["engine"],
        "serving.frontend_added_us": p50["frontend"] - p50["service"],
        "serving.http_added_us": p50["http"] - p50["frontend"],
    }


def run_serve_read(scale: float, setup_repeats: int, seed: int, seconds: float,
                   trace: bool, rec: SpanRecorder) -> RunResult:
    result = RunResult()
    inputs = Inputs(scale, seed, rec)
    server = None
    try:
        server, setup_times = repeat_setup(
            lambda: _start_server(inputs, rec), setup_repeats,
            teardown=lambda s: s.stop(),
        )
        engine, precompute_s = inputs.oracle(rec)
        open_s = OPEN_SHARE * seconds
        arrivals = poisson_arrivals(np.random.default_rng([seed, 0]), READ_RATE, open_s)
        requests = read_requests(seed, arrivals, inputs.ds.num_vertices)

        with rec.span("phase.open_loop", rate=READ_RATE, seconds=open_s):
            reads = run_open_loop(server.port, [requests[0::2], requests[1::2]], rec)
        counters_client = HttpClient(server.port)
        try:
            counters = _server_counters(counters_client)
        finally:
            counters_client.close()
        # fresh draws from the same popularity law: replaying the open-loop
        # bodies would find every row already cached
        closed_requests = read_requests(
            seed, np.zeros(CLOSED_LOOP_BODIES), inputs.ds.num_vertices, stream=4
        )
        with rec.span("phase.closed_loop", connections=2):
            done, tried, elapsed = run_closed_loop(
                server.port, closed_requests, seconds - open_s, connections=2
            )

        ok = [o for o in reads if 200 <= o.status < 300]
        sampled = reads[::ORACLE_EVERY]
        wrong = sum(1 for o in sampled if o.status == 200 and not _matches_oracle(engine, o))
        result.attempted = len(reads) + tried
        result.failed = (len(reads) - len(ok)) + (tried - done) + wrong
        result.check("every read answered 2xx",
                     len(ok) == len(reads) and done == tried,
                     f"open {len(ok)}/{len(reads)} closed {done}/{tried}")
        result.check(f"1 in {ORACLE_EVERY} responses equal the in-process engine",
                     wrong == 0, f"{wrong} of {len(sampled)} differ")
        ok_lat = [o.latency for o in ok]
        result.set_end_to_end(setup_times, ok_lat, done / elapsed, tried,
                              server.peak_rss_mb())
        result.detail.update(
            dataset=inputs.ds.summary(),
            open_loop={"rate": READ_RATE, "seconds": open_s, "connections": 2},
            closed_loop={"seconds": elapsed, "connections": 2},
        )
        if not trace:
            return result

        layers = _read_latency_layers(reads, arrivals, open_s)
        _check_generator(result, layers, len(arrivals))
        server.stop()
        replay = _replay_layers(
            inputs, engine, requests[: max(int(75 * seconds), 50)], rec
        )
        ordered = (replay["serving.engine_p50_us"] <= replay["serving.service_p50_us"]
                   <= replay["serving.frontend_p50_us"] <= replay["serving.http_p50_us"])
        result.detail["layers_close"] = {"engine<=service<=frontend<=http": ordered}
        # the same open-loop phase against a child that records request traces
        server = _start_server(inputs, rec, env_extra={"REPRO_TRACE": "1"})
        with rec.span("phase.open_loop", rate=READ_RATE, seconds=open_s,
                      server="REPRO_TRACE=1"):
            traced_reads = run_open_loop(server.port, [requests[0::2], requests[1::2]])
        traced_p50 = median([o.latency for o in traced_reads if o.status == 200])
        result.per_layer = {
            "graph.load_s": inputs.load_s,
            "serving.precompute_s": precompute_s,
            **{k: v for k, v in counters.items() if k.startswith("serving.")},
            **layers,
            **replay,
            "obs.trace_overhead_pct": 100.0 * (traced_p50 / median(ok_lat) - 1.0),
        }
        return result
    finally:
        if server is not None:
            server.stop()
        inputs.cleanup()


# -- serve_mixed -----------------------------------------------------------------------

#: one connection serves ~250 reads/s, so 50/s leaves it four fifths idle:
#: at 100/s a host running at half speed filled it, the backlog behind
#: each update never cleared and the median latency went from 5 ms to 2 s
MIXED_READ_RATE = 50.0
UPDATE_EVERY_S = 1.0
EDGES_PER_UPDATE = 4
ROWS_PER_UPDATE = 2


def update_requests(seed: int, ds, seconds: float, stream: int = 2) -> List[Request]:
    """Fixed-time update schedule, one every ``UPDATE_EVERY_S``: every
    third adds random edges (full recompute at this scale), the others
    rewrite feature rows of low-out-degree vertices (mostly the
    incremental path)."""
    rng = np.random.default_rng([seed, stream])
    n = ds.num_vertices
    out_degree = np.bincount(ds.graph.indices, minlength=n)
    low = np.argsort(out_degree, kind="stable")[: n // 2]
    out = []
    for slot in range(int(seconds / UPDATE_EVERY_S)):
        at = (slot + 0.5) * UPDATE_EVERY_S
        if slot % 3 == 1:
            pairs = rng.integers(0, n, size=(EDGES_PER_UPDATE, 2))
            out.append(Request(at, "update_edges", "/update_edges",
                               json_bytes({"add": pairs.tolist()})))
        else:
            vertices = rng.choice(low, size=ROWS_PER_UPDATE, replace=False)
            rows = rng.standard_normal((ROWS_PER_UPDATE, ds.feature_dim)).astype(np.float32)
            out.append(Request(at, "update_features", "/update_features", json_bytes(
                {"vertices": vertices.tolist(), "features": rows.tolist()})))
    return out


def _inproc_updates(inputs: Inputs, warmup: Sequence[Request],
                    updates: Sequence[Request], rec: SpanRecorder) -> Dict[str, float]:
    """The same payloads (warm-up ones first, untimed) through the
    refresher in-process: HTTP latency minus these is the drain +
    frontend + wire share."""
    engine, _ = inputs.oracle(rec)
    refresher = IncrementalRefresher(engine, full_threshold=CLI_DEFAULTS["full_threshold"])
    times: Dict[str, List[float]] = {"update_edges": [], "update_features": []}
    for i, req in enumerate([*warmup, *updates]):
        body = json.loads(req.body)
        t0 = time.perf_counter()
        with rec.span(f"serving.inproc.{req.kind}"):
            if req.kind == "update_edges":
                refresher.update_edges(add=[tuple(p) for p in body["add"]])
            else:
                refresher.update_features(
                    np.asarray(body["vertices"]),
                    np.asarray(body["features"], dtype=np.float32),
                )
        if i >= len(warmup):
            times[req.kind].append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    with rec.span("dyngraph.compact"):
        engine.dynamic.compact()
    compact_s = time.perf_counter() - t0
    return {
        "serving.update_features_inproc_ms": 1e3 * median(times["update_features"]),
        "dyngraph.update_edges_inproc_ms": 1e3 * median(times["update_edges"]),
        "dyngraph.compact_ms": 1e3 * compact_s,
    }


#: the update schedule needs this long to hold one update of each kind
MIN_MIXED_SECONDS = 2 * UPDATE_EVERY_S


def run_serve_mixed(scale: float, setup_repeats: int, seed: int, seconds: float,
                    trace: bool, rec: SpanRecorder) -> RunResult:
    if seconds < MIN_MIXED_SECONDS:
        raise ValueError(f"serve_mixed needs --seconds >= {MIN_MIXED_SECONDS:g}")
    result = RunResult()
    inputs = Inputs(scale, seed, rec)
    server = None
    try:
        server, setup_times = repeat_setup(
            lambda: _start_server(inputs, rec), setup_repeats,
            teardown=lambda s: s.stop(),
        )
        arrivals = poisson_arrivals(np.random.default_rng([seed, 0]),
                                    MIXED_READ_RATE, seconds)
        reads_sched = read_requests(seed, arrivals, inputs.ds.num_vertices)
        updates_sched = update_requests(seed, inputs.ds, seconds)
        # the first edge update builds the delta-CSR shadow graph (a one-off,
        # four times a later update): three updates happen before timing
        warmup_sched = update_requests(seed, inputs.ds, 3 * UPDATE_EVERY_S, stream=5)

        client = HttpClient(server.port)
        try:
            for req in warmup_sched:
                status, _ = client.request("POST", req.path, req.body)
                if status != 200:
                    raise RuntimeError(f"warm-up {req.kind} answered {status}")
            before = _server_counters(client)
            with rec.span("phase.mixed", read_rate=MIXED_READ_RATE,
                          updates=len(updates_sched)):
                outcomes = run_open_loop(server.port, [reads_sched, updates_sched], rec)
            after = _server_counters(client)
        finally:
            client.close()

        reads = [o for o in outcomes if o.request.path == "/predict"]
        updates = [o for o in outcomes if o.request.path != "/predict"]
        ok_reads = [o for o in reads if o.status == 200]
        first_try = [o for o in ok_reads if o.retries == 0]
        ok_updates = [o for o in updates if o.status == 200]
        result.attempted = len(outcomes)
        result.failed = (len(reads) - len(ok_reads)) + (len(updates) - len(ok_updates))
        result.check("every read answered 2xx (503s retried)",
                     len(ok_reads) == len(reads), f"{len(ok_reads)}/{len(reads)}")
        result.check("every update answered 2xx",
                     len(ok_updates) == len(updates), f"{len(ok_updates)}/{len(updates)}")

        # the server's own counters must account for everything sent
        ep_before, ep_after = before["metrics"]["endpoints"], after["metrics"]["endpoints"]

        def moved(endpoint: str, outcome: str) -> int:
            return (ep_after.get(endpoint, {}).get(outcome, 0)
                    - ep_before.get(endpoint, {}).get(outcome, 0))

        for kind in ("update_edges", "update_features"):
            sent = sum(1 for o in updates if o.request.kind == kind)
            result.check(f"server counted every {kind}", moved(kind, "ok") == sent,
                         f"server {moved(kind, 'ok')} sent {sent}")
        refresher = {k: after["stats"]["refresher"][k] - before["stats"]["refresher"][k]
                     for k in ("incremental", "full", "deferred", "topology_updates")}
        applied = refresher["incremental"] + refresher["full"] + refresher["deferred"]
        result.check("refresher applied every update", applied == len(updates),
                     f"refresher {applied} sent {len(updates)}")
        retried = sum(o.retries for o in reads)
        shed = sum(after[k] - before[k] for k in
                   ("serving.rejected_draining", "serving.timeouts"))
        result.check("every 503 the client saw is in the server's counters",
                     shed == retried, f"server {shed:g} client {retried}")

        # both read metrics are about reads the server took on first
        # attempt; a refused read's latency is mostly the client's back-off,
        # and how many were refused is what ops_per_s shows
        ok_lat = [o.latency for o in first_try]
        # the share served first try at the nominal rate: the number of
        # arrivals a seed draws (+-5 %) is the generator's, not the server's
        result.set_end_to_end(setup_times, ok_lat,
                              MIXED_READ_RATE * len(first_try) / len(reads), len(reads),
                              server.peak_rss_mb())
        by_kind = {kind: [o.latency for o in ok_updates if o.request.kind == kind]
                   for kind in ("update_edges", "update_features")}
        result.detail.update(
            dataset=inputs.ds.summary(),
            reads={"sent": len(reads), "ok_first_try": len(first_try), "retries": retried,
                   "rate": MIXED_READ_RATE},
            updates={kind: len(v) for kind, v in by_kind.items()},
            refresher=refresher,
        )
        if not trace:
            return result

        layers = _read_latency_layers(reads, arrivals, seconds)
        _check_generator(result, layers, len(arrivals))
        result.per_layer = {
            "graph.load_s": inputs.load_s,
            **{k: after[k] - before[k] for k in _COUNTER_KEYS},
            "serving.cache_hit_rate": after["serving.cache_hit_rate"],
            "serving.batch_mean_rows": after["serving.batch_mean_rows"],
            **layers,
            "serving.read_retry_share": 1.0 - len(first_try) / len(reads),
            **{f"serving.{kind[7:-1]}_update_p50_ms": 1e3 * median(lat)
               for kind, lat in by_kind.items() if lat},
            "serving.refresh_incremental_share":
                refresher["incremental"] / max(applied, 1),
            **_inproc_updates(inputs, warmup_sched, updates_sched, rec),
        }
        return result
    finally:
        if server is not None:
            server.stop()
        inputs.cleanup()
