"""Serving throughput/latency baseline -> ``BENCH_serving.json``.

A repo-root perf-trajectory file: measures the online request path of
:mod:`repro.serving` over a Zipf-skewed request stream.

Four series (schema v2):

- ``results`` — closed-loop floor: ``direct`` synchronous
  ``predict_logits`` table reads, one cell per batch size (``cache`` is
  ``"off"``: no read path consults a result cache).
- ``offered_load`` — **open-loop** latency-vs-offered-load curves
  through a table-mode service behind the bounded
  :class:`~repro.serving.frontend.ServingFrontend`:
  seeded Poisson and bursty (MMPP) arrivals swept across fractions and
  multiples of the measured closed-loop capacity, reporting offered vs
  achieved req/s, p50/p99 from scheduled arrival time (no coordinated
  omission), and reject/timeout rates — the saturation knee is where
  achieved flattens and p99/rejects take off.
- ``ingest_while_serving`` — sustained predict/topk traffic at half
  capacity while a background ingester applies a continuous stream of
  edge updates (each one a published incremental refresh):
  the cost of mutation-while-serving in latency and shed requests.
- ``latency_decomposition`` — a fully-traced run at half capacity:
  per-endpoint mean queue / compute / feature component
  latencies cross-checked against the end-to-end mean (attributed sum
  and unattributed slack), from :mod:`repro.obs.trace`.

Usage::

    python benchmarks/bench_serving.py            # full baseline
    python benchmarks/bench_serving.py --smoke    # CI schema check
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import threading
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from bench_utils import emit, emit_json, table  # noqa: E402

from repro.core import TrainConfig, Trainer, save_checkpoint  # noqa: E402
from repro.core.checkpoint import training_meta  # noqa: E402
from repro.graph.datasets import load_dataset  # noqa: E402
from repro.serving import (  # noqa: E402
    IncrementalRefresher,
    InferenceEngine,
    PredictionService,
    ServingFrontend,
)
from repro.serving.loadgen import (  # noqa: E402
    ARRIVALS,
    FrontendTarget,
    build_schedule,
    run_open_loop,
)

SCHEMA_VERSION = 2

#: open-loop sweep mix: reads only — mutation-while-serving cost is its
#: own series.
SWEEP_MIX = {"predict": 0.75, "topk": 0.25}


def _zipf_stream(rng, num_vertices: int, size: int, skew: float = 1.1) -> np.ndarray:
    """Zipf-distributed vertex ids over a random hot-set permutation."""
    ranks = rng.zipf(skew, size=size) - 1
    perm = rng.permutation(num_vertices)
    return perm[np.minimum(ranks, num_vertices - 1)]


def _percentiles_ms(latencies_s) -> dict:
    lat = np.asarray(latencies_s) * 1e3
    return {
        "p50_ms": float(np.percentile(lat, 50)),
        "p99_ms": float(np.percentile(lat, 99)),
    }


def _run_direct(service, stream, batch_size: int) -> dict:
    latencies = []
    t0 = time.perf_counter()
    for lo in range(0, stream.size, batch_size):
        ids = stream[lo : lo + batch_size]
        t1 = time.perf_counter()
        service.predict_logits(ids)
        latencies.append(time.perf_counter() - t1)
    total = time.perf_counter() - t0
    return {
        "requests": len(latencies),
        "total_s": total,
        "reqs_per_s": len(latencies) / total,
        "vertices_per_s": stream.size / total,
        **_percentiles_ms(latencies),
    }


def _make_engine(args):
    """Train briefly, round-trip through a real checkpoint, precompute."""
    ds = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    cfg = TrainConfig(
        num_layers=2, hidden_features=16, eval_every=0, seed=args.seed
    )
    trainer = Trainer(ds, cfg)
    trainer.fit(num_epochs=args.train_epochs)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench.npz")
        save_checkpoint(
            path, trainer.model, trainer.optimizer,
            epoch=args.train_epochs, extra=training_meta(cfg),
        )
        engine = InferenceEngine.from_checkpoint(path, ds)
    t0 = time.perf_counter()
    engine.precompute()
    return ds, engine, time.perf_counter() - t0


# -- open-loop series (schema v2) -------------------------------------------------


def _fresh_frontend(engine, args, tracer=None) -> ServingFrontend:
    """The production composition behind one rate point, as ``repro
    serve`` builds it: table-mode service (incremental refresher) +
    bounded frontend."""
    service = PredictionService(engine, refresher=IncrementalRefresher(engine))
    return ServingFrontend(
        service,
        num_workers=args.workers,
        max_queue=args.max_queue,
        default_timeout_s=args.request_timeout,
        tracer=tracer,
    )


def _estimate_capacity(engine, args, duration_s: float) -> float:
    """Closed-loop ceiling (req/s): ``workers`` clients re-issuing
    batch-8 predicts as fast as the service answers.  The offered-load
    sweep expresses its rates as fractions/multiples of this number, so
    the knee lands inside the swept range on any machine."""
    frontend = _fresh_frontend(engine, args)
    svc = frontend.service
    rng = np.random.default_rng(args.seed + 13)
    stream = _zipf_stream(rng, engine.num_vertices, 4096)
    counts = [0] * args.workers
    deadline = time.perf_counter() + duration_s

    def client(c: int) -> None:
        i = c
        while time.perf_counter() < deadline:
            ids = stream[(i * 8) % 4088 : (i * 8) % 4088 + 8]
            frontend.call("predict", lambda: svc.predict_logits(ids))
            counts[c] += 1
            i += args.workers

    threads = [threading.Thread(target=client, args=(c,)) for c in range(args.workers)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - t0
    frontend.close()
    svc.close()
    return sum(counts) / elapsed


def _dispatch_ceiling(args, duration_s: float = 0.5) -> float:
    """Max req/s the open-loop generator itself can fire (null target).

    At small bench scales the engine outruns a Python dispatcher; rate
    points above this ceiling would measure the generator, not the
    server, so the sweep base is capped well below it."""
    rng = np.random.default_rng(1)
    arrivals = ARRIVALS["poisson"](50_000.0, duration_s, rng)
    schedule = build_schedule(arrivals, 100, rng, mix={"predict": 1.0},
                              batch_size=8)
    report = run_open_loop(
        lambda req: None, schedule, num_clients=args.loadgen_clients
    )
    return report.offered / max(report.elapsed_s, 1e-9)


def _run_offered_point(engine, args, arrival: str, rate: float,
                       duration_s: float, seed: int) -> dict:
    """One (arrival process, offered rate) point through a fresh stack."""
    frontend = _fresh_frontend(engine, args)
    try:
        rng = np.random.default_rng(seed)
        arrivals = ARRIVALS[arrival](rate, duration_s, rng)
        schedule = build_schedule(
            arrivals, engine.num_vertices, rng, mix=SWEEP_MIX, batch_size=8
        )
        report = run_open_loop(
            FrontendTarget(frontend), schedule, num_clients=args.loadgen_clients
        )
    finally:
        frontend.close()
        frontend.service.close()
    s = report.summary()
    return {
        "arrival": arrival,
        "target_rps": rate,
        "offered": s["offered"],
        "offered_rps": s["offered_rps"],
        "achieved_rps": s["achieved_rps"],
        "ok": s["ok"],
        "rejected": s["rejected"],
        "timeouts": s["timeouts"],
        "errors": s["errors"],
        "reject_rate": s["reject_rate"],
        "timeout_rate": s["timeout_rate"],
        # quantile keys are omitted from the summary when nothing was
        # served (e.g. a fully-saturated point); keep the row schema
        # stable with an explicit 0.0
        "p50_ms": s.get("p50_ms", 0.0),
        "p99_ms": s.get("p99_ms", 0.0),
    }


def _run_ingest_while_serving(engine, args, rate: float,
                              duration_s: float) -> dict:
    """Read traffic at ``rate`` while a background ingester applies a
    continuous edge-update stream (a published refresh each)."""
    frontend = _fresh_frontend(engine, args)
    svc = frontend.service
    stop = threading.Event()
    updates_applied = [0]
    update_errors = [0]

    def ingester() -> None:
        rng = np.random.default_rng(args.seed + 101)
        while not stop.is_set():
            edges = rng.integers(0, engine.num_vertices, size=(8, 2))
            try:
                frontend.update_edges(add=edges)
                updates_applied[0] += 1
            except Exception:  # noqa: BLE001 — counted, bench must finish
                update_errors[0] += 1
            stop.wait(0.05)

    t = threading.Thread(target=ingester, name="bench-ingester", daemon=True)
    try:
        rng = np.random.default_rng(args.seed + 31)
        arrivals = ARRIVALS["poisson"](rate, duration_s, rng)
        schedule = build_schedule(
            arrivals, engine.num_vertices, rng,
            mix={"predict": 0.75, "topk": 0.25}, batch_size=8,
        )
        t.start()
        report = run_open_loop(
            FrontendTarget(frontend), schedule, num_clients=args.loadgen_clients
        )
    finally:
        stop.set()
        t.join(timeout=30.0)
        snap = frontend.metrics_snapshot()
        frontend.close()
        svc.close()
    s = report.summary()
    update_ep = snap["endpoints"].get("update_edges", {})
    return {
        "target_rps": rate,
        "duration_s": duration_s,
        "offered": s["offered"],
        "achieved_rps": s["achieved_rps"],
        "reject_rate": s["reject_rate"],
        "p50_ms": s.get("p50_ms", 0.0),
        "p99_ms": s.get("p99_ms", 0.0),
        "updates_applied": updates_applied[0],
        "update_errors": update_errors[0],
        "update_p50_ms": update_ep.get("p50_ms", 0.0),
        "update_p99_ms": update_ep.get("p99_ms", 0.0),
    }


def _run_decomposition(engine, args, rate: float, duration_s: float) -> dict:
    """Fully-traced run at ``rate``: where does each endpoint's latency
    go?  Returns per-endpoint component means plus the conservation
    check (attributed component sum vs end-to-end mean)."""
    from repro.obs.trace import Tracer

    tracer = Tracer(enabled=True, sample_rate=1.0, capacity=8192)
    frontend = _fresh_frontend(engine, args, tracer=tracer)
    try:
        rng = np.random.default_rng(args.seed + 57)
        arrivals = ARRIVALS["poisson"](rate, duration_s, rng)
        schedule = build_schedule(
            arrivals, engine.num_vertices, rng, mix=SWEEP_MIX, batch_size=8
        )
        run_open_loop(
            FrontendTarget(frontend), schedule, num_clients=args.loadgen_clients
        )
    finally:
        frontend.close()
        frontend.service.close()
    endpoints = {}
    for name, dec in tracer.decomposition().items():
        endpoints[name] = {
            "count": dec["count"],
            "e2e_mean_ms": dec["e2e"]["mean_ms"],
            "e2e_p99_ms": dec["e2e"]["p99_ms"],
            "components_mean_ms": {
                c: v["mean_ms"] for c, v in dec["components"].items()
            },
            "attributed_mean_ms": dec["component_sum_mean_ms"],
            "unattributed_mean_ms": dec["unattributed_mean_ms"],
        }
    return {
        "target_rps": rate,
        "duration_s": duration_s,
        "trace": tracer.stats(),
        "endpoints": endpoints,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dataset", default="ogbn-products")
    ap.add_argument("--scale", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--train-epochs", type=int, default=3)
    ap.add_argument("--requests", type=int, default=2000,
                    help="request-stream length in vertices per config")
    ap.add_argument("--batch-sizes", type=int, nargs="+", default=[1, 16, 128])
    ap.add_argument("--workers", type=int, default=4,
                    help="frontend worker-pool size for the open-loop series")
    ap.add_argument("--max-queue", type=int, default=16,
                    help="frontend admission-queue bound (kept below "
                    "--loadgen-clients so saturation actually sheds)")
    ap.add_argument("--request-timeout", type=float, default=5.0,
                    help="per-request deadline in the open-loop series")
    ap.add_argument("--loadgen-clients", type=int, default=32,
                    help="open-loop client threads")
    ap.add_argument("--sweep-fractions", type=float, nargs="+",
                    default=[0.25, 0.5, 0.75, 1.0, 1.5, 2.0],
                    help="offered rates as fractions of measured capacity")
    ap.add_argument("--point-duration", type=float, default=3.0,
                    help="seconds per offered-load rate point")
    ap.add_argument("--ingest-duration", type=float, default=5.0,
                    help="seconds for the ingest-while-serving series")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny run for CI schema validation")
    args = ap.parse_args(argv)
    if args.smoke:
        args.scale = min(args.scale, 0.05)
        args.requests = 200
        args.batch_sizes = [1, 16]
        args.train_epochs = 1
        args.sweep_fractions = [0.5, 2.0]
        args.point_duration = 0.6
        args.ingest_duration = 1.0

    ds, engine, precompute_s = _make_engine(args)
    rng = np.random.default_rng(args.seed + 7)

    rows = []
    for batch_size in args.batch_sizes:
        stream_len = max(args.requests * batch_size, batch_size)
        stream = _zipf_stream(rng, ds.num_vertices, stream_len)
        with PredictionService(engine, refresher=IncrementalRefresher(engine)) as svc:
            rows.append({
                "mode": "direct",
                "batch_size": batch_size,
                "cache": "off",
                "cache_hit_rate": 0.0,
                **_run_direct(svc, stream, batch_size),
            })

    # -- open-loop offered-load sweep (schema v2) ---------------------------------
    capacity_rps = _estimate_capacity(
        engine, args, duration_s=min(args.point_duration, 2.0)
    )
    ceiling_rps = _dispatch_ceiling(args)
    # keep every swept rate honestly generatable: the top fraction (2x)
    # must still sit below the dispatcher's own ceiling
    sweep_base_rps = min(capacity_rps, 0.4 * ceiling_rps)
    print(f"closed-loop capacity estimate: {capacity_rps:.0f} req/s")
    print(f"loadgen dispatch ceiling     : {ceiling_rps:.0f} req/s")
    print(f"sweep base (1.0x)            : {sweep_base_rps:.0f} req/s")
    offered_rows = []
    for arrival in ("poisson", "bursty"):
        for frac in args.sweep_fractions:
            point = _run_offered_point(
                engine, args, arrival,
                rate=frac * sweep_base_rps,
                duration_s=args.point_duration,
                seed=args.seed + int(1000 * frac),
            )
            point["rate_fraction"] = frac
            offered_rows.append(point)
            print(
                f"  {arrival:<8s} {frac:>4.2f}x: offered "
                f"{point['offered_rps']:7.1f} achieved "
                f"{point['achieved_rps']:7.1f} req/s  "
                f"p99 {point['p99_ms']:7.2f} ms  "
                f"reject {100 * point['reject_rate']:5.1f}%"
            )

    ingest_row = _run_ingest_while_serving(
        engine, args, rate=0.5 * sweep_base_rps, duration_s=args.ingest_duration
    )

    decomposition = _run_decomposition(
        engine, args, rate=0.5 * sweep_base_rps,
        duration_s=args.point_duration,
    )
    for name, ep in sorted(decomposition["endpoints"].items()):
        parts = "  ".join(
            f"{c} {v:.2f}" for c, v in sorted(ep["components_mean_ms"].items())
        )
        print(f"  decomp {name:<14s} e2e {ep['e2e_mean_ms']:6.2f} ms | "
              f"{parts}  (attributed {ep['attributed_mean_ms']:.2f}, "
              f"slack {ep['unattributed_mean_ms']:.2f})")

    payload = {
        "schema_version": SCHEMA_VERSION,
        "dataset": ds.name,
        "scale": args.scale,
        "num_vertices": ds.num_vertices,
        "num_edges": ds.num_edges,
        "precompute_s": precompute_s,
        "smoke": bool(args.smoke),
        "results": rows,
        "frontend": {
            "workers": args.workers,
            "max_queue": args.max_queue,
            "request_timeout_s": args.request_timeout,
            "loadgen_clients": args.loadgen_clients,
        },
        "capacity_rps": capacity_rps,
        "dispatch_ceiling_rps": ceiling_rps,
        "sweep_base_rps": sweep_base_rps,
        "offered_load": offered_rows,
        "ingest_while_serving": ingest_row,
        "latency_decomposition": decomposition,
    }
    path = emit_json("serving", payload)
    emit(
        "serving_table",
        table(
            ["mode", "batch", "cache", "req/s", "p50 ms", "p99 ms", "hit%"],
            [
                [
                    r["mode"], r["batch_size"], r["cache"],
                    f"{r['reqs_per_s']:.0f}", f"{r['p50_ms']:.3f}",
                    f"{r['p99_ms']:.3f}", f"{100 * r['cache_hit_rate']:.0f}",
                ]
                for r in rows
            ],
        ),
    )
    emit(
        "serving_offered_load_table",
        table(
            ["arrival", "x cap", "offered/s", "achieved/s",
             "p50 ms", "p99 ms", "reject%", "timeout%"],
            [
                [
                    r["arrival"], f"{r['rate_fraction']:.2f}",
                    f"{r['offered_rps']:.0f}", f"{r['achieved_rps']:.0f}",
                    f"{r['p50_ms']:.2f}", f"{r['p99_ms']:.2f}",
                    f"{100 * r['reject_rate']:.1f}",
                    f"{100 * r['timeout_rate']:.1f}",
                ]
                for r in offered_rows
            ],
        ),
    )
    print(f"\nprecompute: {precompute_s:.3f}s for {ds.num_vertices} vertices")
    print(
        f"ingest-while-serving: {ingest_row['achieved_rps']:.1f} req/s with "
        f"{ingest_row['updates_applied']} updates, "
        f"p99 {ingest_row['p99_ms']:.2f} ms"
    )
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
