"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``       dataset stand-in statistics (Table 2 style).
``partition``  run Libra (or a baseline) and report partition quality.
``train``      full-batch training, single-socket or distributed with any
               DRPA algorithm; ``--checkpoint`` saves restartable state,
               ``--resume`` continues from it.
``sample``     mini-batch (Dist-DGL style) training.
``predict``    one-shot predictions from a checkpoint.
``serve``      HTTP prediction service over a checkpoint: precompute,
               then every read is a row of the logits table; edge and
               feature updates publish a refreshed table
               (``POST /update_edges`` / ``/update_features``).
``ingest``     streaming topology ingestion: replay a held-out edge
               suffix through the online Libra partitioner in chunks,
               then add it to the dynamic graph in one update; reports
               drift and checks the graph against a from-scratch build.
``trace``      a running server's request trace (``--url``): saves
               ``GET /trace`` as Chrome trace-event JSON (loadable in
               Perfetto / ``chrome://tracing``) and prints each
               endpoint's latency decomposition (e2e vs queue / compute
               / feature, attributed and slack) from the server's
               ``GET /metrics?format=prom`` totals.  Start the server
               with ``REPRO_TRACE=1 repro serve`` to record spans.
``check``      project-invariant static analysis: guarded-by discipline,
               blocking-under-lock, read-only hand-outs, classified
               broad excepts (REP101–REP104); text or ``--json`` report,
               exit 1 on any violation (an accepted finding carries an
               inline ``# racy-ok`` / ``# audit[…]`` marker instead).
               Pairs with the ``REPRO_SANITIZE=1`` runtime lock-order
               sanitizer (see docs/ARCHITECTURE.md §8).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DistGNN reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="dataset statistics")
    _dataset_args(p_info)

    p_part = sub.add_parser("partition", help="partition a dataset graph")
    _dataset_args(p_part)
    p_part.add_argument("--partitions", type=int, default=4)
    p_part.add_argument(
        "--partitioner", choices=("libra", "random", "hash"), default="libra"
    )

    p_train = sub.add_parser("train", help="full-batch training")
    _dataset_args(p_train)
    p_train.add_argument("--epochs", type=int, default=50)
    p_train.add_argument("--lr", type=float, default=0.01)
    p_train.add_argument("--partitions", type=int, default=1)
    p_train.add_argument(
        "--algorithm", default="cd-0", help="0c | cd-0 | cd-<r> (when partitions > 1)"
    )
    p_train.add_argument(
        "--compression", choices=("none", "fp16", "bf16"), default="none"
    )
    p_train.add_argument(
        "--backend", choices=("sim", "shm"), default="sim",
        help="distributed execution backend: in-process lockstep simulator "
        "or one OS process per rank over shared memory (partitions > 1)",
    )
    p_train.add_argument(
        "--num-threads", type=int, default=None,
        help="kernel worker threads: > 1 runs every aggregation on the "
        "parallel execution engine (bit-identical results)",
    )
    p_train.add_argument("--checkpoint", default=None, help="save final state here")
    p_train.add_argument(
        "--resume", default=None, metavar="CKPT",
        help="resume single-socket training from a checkpoint; --epochs "
        "is the total budget, so an epoch-k checkpoint runs epochs k..N",
    )
    _feature_store_args(p_train)

    p_sample = sub.add_parser("sample", help="mini-batch training")
    _dataset_args(p_sample)
    p_sample.add_argument("--epochs", type=int, default=10)
    p_sample.add_argument("--lr", type=float, default=0.01)
    p_sample.add_argument("--batch-size", type=int, default=256)
    p_sample.add_argument(
        "--fanouts", type=int, nargs="+", default=None,
        help="one fanout per layer (default: 10 per layer)",
    )
    _feature_store_args(p_sample)

    p_pred = sub.add_parser("predict", help="one-shot checkpoint predictions")
    _dataset_args(p_pred)
    p_pred.add_argument("--checkpoint", required=True)
    p_pred.add_argument(
        "--vertices", required=True,
        help="comma-separated vertex ids, e.g. 0,17,42",
    )
    p_pred.add_argument("--k", type=int, default=3, help="top-k classes to print")
    p_pred.add_argument(
        "--num-threads", type=int, default=None,
        help="worker threads for the precompute pass",
    )

    p_serve = sub.add_parser("serve", help="HTTP prediction service")
    _dataset_args(p_serve)
    p_serve.add_argument("--checkpoint", required=True)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8080)
    p_serve.add_argument(
        "--num-threads", type=int, default=None,
        help="worker threads for precompute and refresh passes",
    )
    p_serve.add_argument(
        "--workers", type=int, default=4,
        help="requests the admission gate lets run at once",
    )
    p_serve.add_argument(
        "--max-queue", type=int, default=256,
        help="admission queue bound; requests beyond it answer 429",
    )
    p_serve.add_argument(
        "--request-timeout", type=float, default=30.0,
        help="per-request deadline in seconds (missed deadlines answer 503)",
    )
    _feature_store_args(p_serve)

    p_trace = sub.add_parser(
        "trace", help="save a running server's request trace (Chrome trace JSON)"
    )
    p_trace.add_argument(
        "--url", required=True, metavar="BASE",
        help="the server, e.g. http://127.0.0.1:8080 (GET /trace, "
        "GET /metrics?format=prom)",
    )
    p_trace.add_argument(
        "--out", default="trace.json",
        help="Chrome trace-event JSON output path",
    )

    p_ing = sub.add_parser("ingest", help="streaming edge ingestion")
    _dataset_args(p_ing)
    p_ing.add_argument("--partitions", type=int, default=4)
    p_ing.add_argument(
        "--stream-fraction", type=float, default=0.2,
        help="fraction of edges held out of the base graph and replayed "
        "as the arriving stream",
    )
    p_ing.add_argument(
        "--chunk-size", type=int, default=4096,
        help="edges per Libra assignment chunk",
    )
    p_ing.add_argument(
        "--drift-tolerance", type=float, default=0.1,
        help="relative replication-factor growth that triggers the "
        "repartition recommendation",
    )
    p_ing.add_argument(
        "--state", default=None, metavar="NPZ",
        help="LibraState checkpoint: resumed when the file exists, "
        "written on exit (makes ingestion restartable)",
    )

    p_check = sub.add_parser(
        "check", help="project-invariant static analysis (REP1xx rules)"
    )
    p_check.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    p_check.add_argument(
        "--json", action="store_true", dest="json_output",
        help="machine-readable report on stdout",
    )
    p_check.add_argument(
        "--rules", default=None, metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    p_check.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def _dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", default="ogbn-products")
    p.add_argument("--scale", type=float, default=0.15)
    p.add_argument("--seed", type=int, default=0)


def _feature_store_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--feature-store", choices=("resident", "mmap"), default="resident",
        help="feature tier: 'resident' keeps the matrix in memory (the "
        "default, unchanged behaviour); 'mmap' reads rows straight from a "
        "read-only on-disk layout, the OS page cache keeping the hot ones "
        "(out-of-core)",
    )
    p.add_argument(
        "--store-dir", default=None, metavar="DIR",
        help="directory for the on-disk feature layout (mmap tier); "
        "reused when a matching layout already exists, default a "
        "per-run temporary directory",
    )


def _make_feature_store(ds, args):
    """``--feature-store`` flags -> FeatureStore (None = resident default)."""
    if getattr(args, "feature_store", "resident") == "resident":
        return None
    import tempfile

    from repro.featurestore import FeatureStore

    store_dir = args.store_dir or tempfile.mkdtemp(prefix="repro-features-")
    store = FeatureStore.create(store_dir, ds.features)
    print(
        f"feature store  : mmap tier at {store_dir} "
        f"({store.bytes_mapped / 1e6:.1f} MB mapped)"
    )
    return store


def _load(args):
    from repro.graph.datasets import load_dataset

    return load_dataset(args.dataset, scale=args.scale, seed=args.seed)


def cmd_info(args) -> int:
    from repro.graph.datasets import PAPER_DATASET_STATS
    from repro.graph.utils import average_degree, density

    ds = _load(args)
    print(ds.summary())
    print(f"density      : {density(ds.graph):.3e}")
    print(f"avg degree   : {average_degree(ds.graph):.1f}")
    paper = PAPER_DATASET_STATS.get(ds.name)
    if paper:
        print(
            f"paper scale  : |V|={paper.num_vertices:,} |E|={paper.num_edges:,} "
            f"d={paper.num_features} classes={paper.num_classes}"
        )
    return 0


def cmd_partition(args) -> int:
    from repro.partition import (
        build_partitions,
        hash_edge_partition,
        libra_partition,
        partition_stats,
        random_edge_partition,
    )

    ds = _load(args)
    if args.partitioner == "libra":
        asn = libra_partition(ds.graph, args.partitions, seed=args.seed)
    elif args.partitioner == "random":
        asn = random_edge_partition(ds.graph, args.partitions, seed=args.seed)
    else:
        asn = hash_edge_partition(ds.graph, args.partitions)
    st = partition_stats(build_partitions(ds.graph, asn, args.partitions))
    print(f"{args.partitioner} over {ds.name} ({args.partitions} partitions):")
    print(f"  replication factor : {st.replication_factor:.3f}")
    print(f"  edge balance       : {st.edge_balance:.3f}")
    print(f"  split vertices     : {100 * st.split_vertex_fraction:.1f}%")
    print(f"  edges min/max      : {st.min_edges} / {st.max_edges}")
    return 0


def cmd_train(args) -> int:
    from repro.core import DistributedTrainer, TrainConfig, Trainer
    from repro.core.checkpoint import load_checkpoint, save_checkpoint, training_meta

    ds = _load(args)
    cfg = TrainConfig(
        learning_rate=args.lr,
        eval_every=max(args.epochs // 5, 1),
        seed=args.seed,
        compression=args.compression,
        backend=args.backend,
        num_threads=args.num_threads,
    ).for_dataset(ds.name)
    store = _make_feature_store(ds, args)
    if args.partitions <= 1:
        trainer = Trainer(ds, cfg, feature_store=store)
        start_epoch = 0
        if args.resume:
            start_epoch, _ = load_checkpoint(
                args.resume, trainer.model, trainer.optimizer
            )
            print(f"resumed from epoch {start_epoch} ({args.resume})")
        result = trainer.fit(
            num_epochs=args.epochs, verbose=True, start_epoch=start_epoch
        )
        model, opt = trainer.model, trainer.optimizer
    else:
        if args.resume:
            print("error: --resume supports single-socket training only "
                  "(--partitions 1)", file=sys.stderr)
            return 2
        trainer = DistributedTrainer(
            ds, args.partitions, algorithm=args.algorithm, config=cfg,
            feature_store=store,
        )
        result = trainer.fit(num_epochs=args.epochs, verbose=True)
        model, opt = trainer.ranks[0].model, trainer.ranks[0].optimizer
        print(f"replication factor : {result.replication_factor:.2f}")
        print(f"total comm         : {result.total_comm_bytes / 1e6:.1f} MB")
    print(f"final test accuracy: {result.final_test_acc:.4f}")
    if args.checkpoint:
        save_checkpoint(
            args.checkpoint, model, opt, epoch=args.epochs, extra=training_meta(cfg)
        )
        print(f"checkpoint written : {args.checkpoint}")
    return 0


def cmd_sample(args) -> int:
    from repro.core import TrainConfig
    from repro.sampling import MiniBatchTrainer

    ds = _load(args)
    cfg = TrainConfig(
        learning_rate=args.lr, eval_every=5, seed=args.seed
    ).for_dataset(ds.name)
    fanouts = args.fanouts or [10] * cfg.num_layers
    store = _make_feature_store(ds, args)
    trainer = MiniBatchTrainer(
        ds, fanouts=fanouts, batch_size=args.batch_size, config=cfg,
        feature_store=store,
    )
    result = trainer.fit(num_epochs=args.epochs, verbose=True)
    print(f"final test accuracy: {result.final_test_acc:.4f}")
    print(f"sampled work       : {trainer.total_work_ops / 1e9:.3f} B ops")
    if store is not None:
        print(f"feature store      : {store.cold_rows_read} rows read from "
              f"the {store.tier} tier")
    return 0


def cmd_predict(args) -> int:
    from repro.serving import InferenceEngine

    ds = _load(args)
    try:
        vertices = [int(v) for v in args.vertices.replace(",", " ").split()]
    except ValueError:
        print(f"error: bad --vertices {args.vertices!r}", file=sys.stderr)
        return 2
    engine = InferenceEngine.from_checkpoint(
        args.checkpoint, ds, num_threads=args.num_threads
    )
    engine.precompute()
    classes, scores = engine.topk(vertices, k=args.k)
    labels = engine.predict_labels(vertices)
    for v, label, crow, srow in zip(vertices, labels, classes, scores):
        ranked = "  ".join(f"{c}:{s:.3f}" for c, s in zip(crow, srow))
        print(f"vertex {v:>8d}  label {label:>4d}  top{args.k} {ranked}")
    return 0


def _build_service(args):
    """Checkpoint -> (dataset, composed PredictionService) for ``serve``."""
    from repro.serving import InferenceEngine, PredictionService

    ds = _load(args)
    engine = InferenceEngine.from_checkpoint(
        args.checkpoint, ds, num_threads=args.num_threads,
        feature_store=_make_feature_store(ds, args),
    )
    engine.precompute()
    # reads are rows of the published logits table; the service's
    # refresher recomputes the rows each edge / feature update reaches
    return ds, PredictionService(engine)


def cmd_serve(args) -> int:  # pragma: no cover - interactive loop
    from repro.serving import PredictionServer, ServingFrontend

    ds, service = _build_service(args)
    engine = service.engine
    frontend = ServingFrontend(
        service,
        num_workers=args.workers,
        max_queue=args.max_queue,
        default_timeout_s=args.request_timeout,
    )
    server = PredictionServer(
        service, host=args.host, port=args.port, verbose=True, frontend=frontend
    )
    host, port = server.address
    print(f"serving {ds.name} ({engine.model_kind}, {engine.num_vertices} vertices)")
    print(f"  {args.workers} workers, queue bound {args.max_queue}, "
          f"{args.request_timeout:g}s deadline")
    fs = engine.feature_store.stats()
    print(f"  feature store: tier {fs['tier']}, "
          f"{fs['bytes_mapped'] / 1e6:.1f} MB mapped")
    print(f"  POST http://{host}:{port}/predict          "
          '{"vertices": [0, 1], "k": 3}')
    print(f"  POST http://{host}:{port}/update_edges     "
          '{"add": [[0, 1]], "remove": [[2, 3]]}')
    print(f"  POST http://{host}:{port}/update_features  "
          '{"vertices": [0], "features": [[...]]}')
    print(f"  GET  http://{host}:{port}/stats")
    print(f"  GET  http://{host}:{port}/metrics")
    print(f"  GET  http://{host}:{port}/healthz")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
        server.shutdown()
    return 0


def _decomposition_rows(families) -> List[str]:
    """One line per endpoint: mean e2e, per-component means, attributed
    sum and slack (ms) — ``obs.trace.decompose`` of the
    ``repro_request_component_{seconds,samples}_total`` totals the
    server exports (rendered with ``repr``, so they round-trip exactly),
    i.e. its own ``Tracer.decomposition()``.  A server with tracing off
    exports none."""
    from repro.obs.trace import decompose

    samples = families.get("repro_request_component_samples_total", {})
    endpoints = {}
    for labels, total_s in families.get("repro_request_component_seconds_total", {}).items():
        label = dict(labels)
        endpoints.setdefault(label["endpoint"], {})[label["component"]] = (
            total_s, samples[labels])
    rows = []
    for name, comps in sorted(endpoints.items()):
        means = decompose(comps.pop("e2e"), comps)
        parts = "  ".join(
            f"{c} {mean_ms:.12g}" for c, mean_ms in means["component_mean_ms"].items()
        )
        rows.append(f"  {name:<16s} e2e {means['e2e_mean_ms']:.12g} ms | {parts}  "
                    f"[attributed {means['component_sum_mean_ms']:.12g}, "
                    f"slack {means['unattributed_mean_ms']:.12g}]")
    return rows


def cmd_trace(args) -> int:
    import json
    from urllib.request import urlopen

    from repro.obs.registry import parse_prometheus
    from repro.obs.trace import validate_chrome_trace

    base = args.url.rstrip("/")
    try:
        with urlopen(f"{base}/trace", timeout=10.0) as resp:
            payload = json.load(resp)
        n = validate_chrome_trace(payload)
        with urlopen(f"{base}/metrics?format=prom", timeout=10.0) as resp:
            rows = _decomposition_rows(parse_prometheus(resp.read().decode("utf-8")))
        with open(args.out, "w") as fh:
            json.dump(payload, fh)
    # unreachable, not a trace, or metrics without (or with zero) counts
    except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{n} trace event(s) from {base}/trace -> {args.out}")
    for row in rows:
        print(row)
    return 0


def cmd_check(args) -> int:
    from repro.analysis import check_paths, render_json, render_text
    from repro.analysis.rules import ALL_RULES, RULES_BY_CODE

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.code}  {rule.name}")
        return 0

    rules = None
    if args.rules:
        codes = [c.strip().upper() for c in args.rules.split(",") if c.strip()]
        unknown = [c for c in codes if c not in RULES_BY_CODE]
        if unknown:
            print(f"unknown rule code(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
        rules = [RULES_BY_CODE[c]() for c in codes]

    violations = check_paths(args.paths, rules=rules)
    render = render_json if args.json_output else render_text
    print(render(violations))
    return 1 if violations else 0


def cmd_ingest(args) -> int:
    import os
    import time

    from repro.dyngraph import DynamicGraph, LibraState, LibraStateError
    from repro.graph.builders import coo_to_csr

    if not 0.0 < args.stream_fraction < 1.0:
        print("error: --stream-fraction must be in (0, 1)", file=sys.stderr)
        return 2
    if args.chunk_size < 1:
        print("error: --chunk-size must be >= 1", file=sys.stderr)
        return 2
    ds = _load(args)
    src, dst, _ = ds.graph.to_coo()
    m = src.size
    n = max(ds.graph.num_vertices, ds.graph.num_src)
    # simulate arrival order: a CSR dump replayed destination-major is
    # Libra's pathological order (consecutive edges share a destination,
    # so the greedy rule piles them onto one partition) — real traffic
    # interleaves destinations, which a seeded shuffle stands in for
    order = np.random.default_rng(args.seed).permutation(m)
    src, dst = src[order], dst[order]
    split = max(1, int(m * (1.0 - args.stream_fraction)))
    base = coo_to_csr(src[:split], dst[:split], num_dst=n, num_src=n)

    resumed = args.state is not None and (
        os.path.exists(args.state) or os.path.exists(args.state + ".npz")
    )
    if resumed:
        try:
            state = LibraState.load(args.state)
        except LibraStateError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if (state.num_vertices, state.num_partitions) != (n, args.partitions):
            print(
                f"error: resumed state is ({state.num_vertices} vertices, "
                f"{state.num_partitions} partitions), dataset wants "
                f"({n}, {args.partitions})", file=sys.stderr,
            )
            return 2
        if state.seed != args.seed:
            # the seed defines the replayed arrival order; resuming the
            # assignment counter into a differently-shuffled sequence
            # would silently diverge from the batch-replay equivalence
            print(
                f"error: resumed state was built with --seed {state.seed}, "
                f"got --seed {args.seed}", file=sys.stderr,
            )
            return 2
        print(f"resumed LibraState: {state.num_assigned}/{m} edges assigned")
    else:
        state = LibraState(n, args.partitions, seed=args.seed)
    # the edge sequence is deterministic, so the state's assignment
    # counter is exactly the resume point in it
    start = min(state.num_assigned, m)
    if start < split:
        t0 = time.perf_counter()
        state.assign(src[start:split], dst[start:split])
        bulk_s = time.perf_counter() - t0
        print(
            f"bulk ingest   : {split - start} base edges in {bulk_s:.2f}s "
            f"({(split - start) / max(bulk_s, 1e-9):,.0f} edges/s)"
        )
    if state.baseline_rf is None:
        state.set_baseline()

    stream_from = max(start, split)
    t0 = time.perf_counter()
    for lo in range(stream_from, m, args.chunk_size):
        hi = min(lo + args.chunk_size, m)
        state.assign(src[lo:hi], dst[lo:hi])
    # the graph takes the whole stream in arrival order (an already-assigned
    # prefix included: only the Libra assignment is resumable) in one update
    merged = DynamicGraph(base).update(add=(src[split:], dst[split:]))
    stream_s = time.perf_counter() - t0
    streamed = m - stream_from

    print(f"streamed      : {streamed} edges in {stream_s:.2f}s "
          f"({streamed / max(stream_s, 1e-9):,.0f} edges/s, "
          f"chunks of {args.chunk_size})")
    print(f"loads         : {state.load.tolist()}")
    print(f"replication   : {state.replication_factor:.3f} "
          f"(baseline {state.baseline_rf:.3f}, drift {100 * state.drift():+.1f}%)")
    print(f"repartition?  : "
          f"{'recommended' if state.should_repartition(args.drift_tolerance) else 'no'}"
          f" (tolerance {100 * args.drift_tolerance:.0f}%)")
    rebuilt = coo_to_csr(src, dst, num_dst=n, num_src=n)
    ok = (
        np.array_equal(merged.indptr, rebuilt.indptr)
        and np.array_equal(merged.indices, rebuilt.indices)
        and np.array_equal(merged.edge_ids, rebuilt.edge_ids)
    )
    print(f"compact check : merged view {'==' if ok else '!='} from-scratch rebuild")
    if args.state:
        state.save(args.state)
        print(f"state written : {args.state}")
    return 0 if ok else 1


COMMANDS = {
    "info": cmd_info,
    "partition": cmd_partition,
    "train": cmd_train,
    "sample": cmd_sample,
    "predict": cmd_predict,
    "serve": cmd_serve,
    "ingest": cmd_ingest,
    "trace": cmd_trace,
    "check": cmd_check,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
