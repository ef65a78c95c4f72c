"""Streaming topology: ingest arriving edges, keep serving fresh.

Walks the full dynamic-graph loop a live service runs:

1. hold out a suffix of the dataset's edges as the "arriving" stream;
2. bulk-partition the base with the online Libra state, then assign the
   stream chunk by chunk while appending it to the delta-CSR
   :class:`~repro.dyngraph.delta.DynamicGraph` (watching replication
   drift and auto-compaction);
3. train briefly on the base graph, precompute a serving engine, then
   push the same stream through ``update_edges`` and verify the served
   logits match a from-scratch precompute on the compacted graph.

Run:  python examples/streaming_ingest.py [--scale 0.08] [--partitions 4]
"""

import argparse
import dataclasses
import time

import numpy as np

from repro import load_dataset
from repro.core import Trainer, TrainConfig
from repro.dyngraph import DynamicGraph, LibraState
from repro.graph.builders import coo_to_csr
from repro.serving import IncrementalRefresher, InferenceEngine


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="reddit")
    parser.add_argument("--scale", type=float, default=0.08)
    parser.add_argument("--partitions", type=int, default=4)
    parser.add_argument("--stream-fraction", type=float, default=0.15)
    parser.add_argument("--chunk-size", type=int, default=1024)
    parser.add_argument("--epochs", type=int, default=5)
    args = parser.parse_args()

    ds = load_dataset(args.dataset, scale=args.scale, seed=0)
    print(f"loaded {ds.summary()}")

    # -- 1. split into base graph + arriving stream (seeded arrival order)
    src, dst, _ = ds.graph.to_coo()
    m = src.size
    order = np.random.default_rng(0).permutation(m)
    src, dst = src[order], dst[order]
    split = int(m * (1.0 - args.stream_fraction))
    n = ds.num_vertices
    base = coo_to_csr(src[:split], dst[:split], num_dst=n, num_src=n)
    base_ds = dataclasses.replace(ds, graph=base)
    print(f"base graph {base.num_edges} edges, stream {m - split} edges")

    # -- 2. online Libra + delta-CSR ingestion
    state = LibraState(n, args.partitions, seed=0)
    state.assign(src[:split], dst[:split])
    state.set_baseline()
    dyn = DynamicGraph(base)
    t0 = time.perf_counter()
    for lo in range(split, m, args.chunk_size):
        hi = min(lo + args.chunk_size, m)
        state.assign(src[lo:hi], dst[lo:hi])
        dyn.add_edges(src[lo:hi], dst[lo:hi])
    ingest_s = time.perf_counter() - t0
    print(
        f"ingested {m - split} edges in {ingest_s:.2f}s "
        f"({(m - split) / max(ingest_s, 1e-9):,.0f} edges/s), "
        f"loads {state.load.tolist()}, "
        f"rf {state.replication_factor:.3f} (drift {100 * state.drift():+.1f}%), "
        f"{dyn.num_compactions} compactions"
    )
    if state.should_repartition(0.1):
        print("drift trigger: offline repartition recommended")

    # -- 3. serve on the base, stream the same edges into the engine
    cfg = TrainConfig(num_layers=2, hidden_features=16, eval_every=0, seed=0)
    trainer = Trainer(base_ds, cfg)
    trainer.fit(args.epochs)
    engine = InferenceEngine(base_ds, trainer.model, cfg).precompute()
    refresher = IncrementalRefresher(engine)
    t0 = time.perf_counter()
    fractions = []
    for lo in range(split, m, args.chunk_size):
        hi = min(lo + args.chunk_size, m)
        stats = refresher.update_edges(
            add=np.stack([src[lo:hi], dst[lo:hi]], axis=1)
        )
        fractions.append(stats.affected_fraction)
    update_s = time.perf_counter() - t0
    print(
        f"served {m - split} edge updates in {update_s:.2f}s "
        f"({len(fractions)} row-subset refreshes, affected fraction "
        f"{min(fractions):.2f}-{max(fractions):.2f})"
    )

    # the served tables now equal a from-scratch precompute on the
    # compacted graph — the subsystem's central exactness guarantee
    truth = InferenceEngine(
        dataclasses.replace(ds, graph=engine.dynamic.csr()), trainer.model, cfg
    ).precompute()
    exact = np.array_equal(engine.logits, truth.logits)
    print(f"incremental tables == compacted-graph precompute: {exact}")


if __name__ == "__main__":
    main()
