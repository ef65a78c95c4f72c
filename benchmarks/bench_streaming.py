"""Streaming-graph baseline -> ``BENCH_streaming.json``.

A repo-root perf-trajectory file (next to ``BENCH_serving.json``),
opening the dynamic-topology workload axis
of :mod:`repro.dyngraph`.  Three series:

- ``ingest``      edge-ingest throughput: a held-out edge suffix is
  replayed (seeded arrival order) chunk by chunk into the delta-CSR
  :class:`~repro.dyngraph.delta.DynamicGraph`, with and without online
  Libra assignment riding along, across chunk sizes.
- ``update_latency``  update -> fresh-prediction latency: each round
  pushes a mutation batch through ``PredictionService.update_edges`` and
  immediately queries the mutated vertices; the measured time is the
  full freshness path (graph merge + refresh + lookup), across batch
  sizes.
- ``compaction``  cost of folding a delta of the given fraction back
  into a frozen base (the price the auto-compaction threshold trades
  against view overhead).

Usage::

    python benchmarks/bench_streaming.py            # full baseline
    python benchmarks/bench_streaming.py --smoke    # CI schema check
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from bench_utils import emit, emit_json, table  # noqa: E402

from repro.core import TrainConfig, Trainer  # noqa: E402
from repro.dyngraph import DynamicGraph, LibraState  # noqa: E402
from repro.graph.builders import coo_to_csr  # noqa: E402
from repro.graph.datasets import load_dataset  # noqa: E402
from repro.serving import InferenceEngine, PredictionService  # noqa: E402

SCHEMA_VERSION = 1


def _arrival_stream(ds, seed: int):
    """All edges in a seeded random arrival order (CSR dump order is
    Libra's pathological case — real traffic interleaves destinations)."""
    src, dst, _ = ds.graph.to_coo()
    order = np.random.default_rng(seed).permutation(src.size)
    return src[order], dst[order]


def bench_ingest(ds, args) -> list:
    src, dst = _arrival_stream(ds, args.seed)
    m = src.size
    split = int(m * (1.0 - args.stream_fraction))
    n = ds.num_vertices
    base = coo_to_csr(src[:split], dst[:split], num_dst=n, num_src=n)
    rows = []
    for chunk_size in args.chunk_sizes:
        for with_partitioner in (False, True):
            # fresh structures per cell; compaction cost is measured in
            # its own series, so disable the auto trigger here
            dyn = DynamicGraph(base, compact_threshold=None)
            state = (
                LibraState(n, args.partitions, seed=args.seed)
                if with_partitioner
                else None
            )
            if state is not None:
                state.assign(src[:split], dst[:split])
                state.set_baseline()
            t0 = time.perf_counter()
            for lo in range(split, m, chunk_size):
                hi = min(lo + chunk_size, m)
                if state is not None:
                    state.assign(src[lo:hi], dst[lo:hi])
                dyn.add_edges(src[lo:hi], dst[lo:hi])
            seconds = time.perf_counter() - t0
            rows.append({
                "chunk_size": chunk_size,
                "partitioner": "libra" if with_partitioner else "none",
                "edges": m - split,
                "seconds": seconds,
                "edges_per_s": (m - split) / max(seconds, 1e-12),
                "replication_factor": (
                    state.replication_factor if state is not None else None
                ),
                "drift": state.drift() if state is not None else None,
            })
    return rows


def _make_service(ds, args):
    cfg = TrainConfig(
        num_layers=2, hidden_features=16, eval_every=0, seed=args.seed
    )
    trainer = Trainer(ds, cfg)
    trainer.fit(num_epochs=args.train_epochs)
    return PredictionService(InferenceEngine(ds, trainer.model, cfg).precompute())


def bench_update_latency(ds, args) -> list:
    rows = []
    rng = np.random.default_rng(args.seed + 3)
    n = ds.num_vertices
    for batch_size in args.batch_sizes:
        svc = _make_service(ds, args)  # fresh engine per cell
        latencies = []
        for _ in range(args.rounds):
            add = np.stack(
                [rng.integers(0, n, batch_size), rng.integers(0, n, batch_size)],
                axis=1,
            )
            probe = np.unique(add[:, 1])
            t0 = time.perf_counter()
            svc.update_edges(add=add)
            svc.predict_logits(probe)  # freshness: read the mutated rows
            latencies.append(time.perf_counter() - t0)
        svc.close()
        lat_ms = np.asarray(latencies) * 1e3
        rows.append({
            "batch_size": batch_size,
            "rounds": len(latencies),
            "mean_ms": float(lat_ms.mean()),
            "p50_ms": float(np.percentile(lat_ms, 50)),
            "p99_ms": float(np.percentile(lat_ms, 99)),
        })
    return rows


def bench_compaction(ds, args) -> list:
    rows = []
    rng = np.random.default_rng(args.seed + 5)
    n = ds.num_vertices
    for frac in args.delta_fractions:
        dyn = DynamicGraph(ds.graph, compact_threshold=None)
        k = max(1, int(ds.graph.num_edges * frac))
        dyn.add_edges(rng.integers(0, n, k), rng.integers(0, n, k))
        t0 = time.perf_counter()
        compacted = dyn.compact()
        seconds = time.perf_counter() - t0
        rows.append({
            "delta_fraction": frac,
            "delta_edges": k,
            "total_edges": int(compacted.num_edges),
            "seconds": seconds,
            "edges_per_s": compacted.num_edges / max(seconds, 1e-12),
        })
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dataset", default="ogbn-products")
    ap.add_argument("--scale", type=float, default=0.1)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--partitions", type=int, default=4)
    ap.add_argument("--stream-fraction", type=float, default=0.2)
    ap.add_argument("--chunk-sizes", type=int, nargs="+",
                    default=[1, 64, 1024])
    ap.add_argument("--batch-sizes", type=int, nargs="+",
                    default=[1, 16, 128],
                    help="edge-mutation batch sizes for the latency series")
    ap.add_argument("--rounds", type=int, default=30,
                    help="update->predict rounds per latency cell")
    ap.add_argument("--delta-fractions", type=float, nargs="+",
                    default=[0.05, 0.25, 0.5])
    ap.add_argument("--train-epochs", type=int, default=3)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny run for CI schema validation")
    args = ap.parse_args(argv)
    if args.smoke:
        args.scale = min(args.scale, 0.05)
        args.chunk_sizes = [64, 1024]
        args.batch_sizes = [1, 16]
        args.rounds = 5
        args.delta_fractions = [0.25]
        args.train_epochs = 1

    ds = load_dataset(args.dataset, scale=args.scale, seed=args.seed)

    ingest_rows = bench_ingest(ds, args)
    latency_rows = bench_update_latency(ds, args)
    compaction_rows = bench_compaction(ds, args)

    payload = {
        "schema_version": SCHEMA_VERSION,
        "dataset": ds.name,
        "scale": args.scale,
        "num_vertices": ds.num_vertices,
        "num_edges": ds.num_edges,
        "partitions": args.partitions,
        "stream_fraction": args.stream_fraction,
        "smoke": bool(args.smoke),
        "ingest": ingest_rows,
        "update_latency": latency_rows,
        "compaction": compaction_rows,
    }
    path = emit_json("streaming", payload)
    emit(
        "streaming_table",
        table(
            ["series", "config", "metric", "value"],
            [
                *[
                    [
                        "ingest",
                        f"chunk={r['chunk_size']} part={r['partitioner']}",
                        "edges/s",
                        f"{r['edges_per_s']:,.0f}",
                    ]
                    for r in ingest_rows
                ],
                *[
                    [
                        "update",
                        f"batch={r['batch_size']}",
                        "p50/p99 ms",
                        f"{r['p50_ms']:.2f} / {r['p99_ms']:.2f}",
                    ]
                    for r in latency_rows
                ],
                *[
                    [
                        "compaction",
                        f"delta={r['delta_fraction']}",
                        "edges/s",
                        f"{r['edges_per_s']:,.0f}",
                    ]
                    for r in compaction_rows
                ],
            ],
        ),
    )
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
