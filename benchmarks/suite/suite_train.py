"""The four training workloads, measured from outside.

Each ``run_*`` function sets the workload up (several times, for a
steady ``setup_s``), warms it, times back-to-back calls of its primary
operation for ``seconds`` and checks the outputs.  With ``trace`` on it
also takes the per-layer measurements: spans wrapped around the public
calls, counter deltas, and stand-alone calls into single layers.
"""

from __future__ import annotations

import math
import shutil
import tempfile
import time
from typing import Dict, List, Tuple

import numpy as np

from suite_harness import (
    RunResult,
    SpanRecorder,
    SpeedReference,
    median,
    repeat_setup,
    scratch_root,
    self_peak_rss_mb,
    span_overhead_pct,
    timed_ops,
)

from repro.core import DistributedTrainer, TrainConfig, Trainer
from repro.featurestore import FeatureStore
from repro.graph import load_dataset
from repro.kernels import aggregate
from repro.kernels.instrumentation import AP_TIMER
from repro.nn import masked_cross_entropy
from repro.partition import (
    build_partitions,
    build_split_trees,
    libra_partition,
    partition_stats,
)
from repro.sampling import MiniBatchTrainer


def _closed_loop_metrics(result: RunResult, times: List[float],
                         setup_times: List[float], ref: SpeedReference,
                         ops_mark: int) -> None:
    """``ops_mark`` is ``ref.mark()`` where the timed calls began: samples
    before it were taken beside the set-ups, samples after beside the calls."""
    slow = ref.slowness(ops_mark)
    result.set_end_to_end(setup_times, times, len(times) / sum(times), len(times),
                          self_peak_rss_mb(),
                          setup_slowness=ref.slowness(0, ops_mark),
                          op_slowness=slow, rate_slowness=slow)


def _train_config(dataset: str, seed: int) -> TrainConfig:
    # paper shape per dataset, kernel "auto", one kernel thread
    return TrainConfig(num_threads=1, seed=seed, eval_every=0).for_dataset(dataset)


def _check_losses(result: RunResult, losses: List[float], window: int = 1) -> None:
    result.check("loss finite", all(math.isfinite(x) for x in losses),
                 f"{len(losses)} losses")
    first = float(np.mean(losses[:window]))
    last = float(np.mean(losses[-window:]))
    result.check("loss decreased over the timed calls", last < first,
                 f"first {first:.6f} last {last:.6f} (mean of {window})")


def _pass_bytes(graph, dim: int) -> int:
    """Computed bytes one copylhs/sum pass moves: every edge reads a
    source row, every destination row is written, plus the CSR arrays."""
    index = graph.indices.dtype.itemsize
    return (
        graph.num_edges * dim * 4
        + graph.num_vertices * dim * 4
        + graph.num_edges * index
        + (graph.num_vertices + 1) * index
    )


def _kernel_pass(graph, dim: int, seed: int, reps: int, rec: SpanRecorder
                 ) -> Tuple[float, float]:
    """Median seconds and computed GB/s of one stand-alone AP."""
    h = np.random.default_rng([seed, 7]).standard_normal(
        (graph.num_src, dim)
    ).astype(np.float32)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        with rec.span("kernels.pass", dim=dim, edges=graph.num_edges):
            aggregate(graph, h, None, "copylhs", "sum", kernel="auto")
        times.append(time.perf_counter() - t0)
    sec = median(times)
    return sec, _pass_bytes(graph, dim) / sec / 1e9


# -- train_sparse / train_dense --------------------------------------------------------


def _decomposed_epoch(trainer: Trainer, rec: SpanRecorder) -> dict:
    """One epoch made of the public pieces ``Trainer.train_epoch`` is
    made of, each timed on its own: forward+loss, backward, optimizer."""
    ds = trainer.dataset
    with rec.span("core.epoch_decomposed"):
        ap0 = AP_TIMER.read()
        t0 = time.perf_counter()
        trainer.model.train()
        trainer.model.zero_grad()
        with rec.span("nn.forward"):
            logits = trainer.model(ds.graph, trainer.features, trainer.norm)
            loss = masked_cross_entropy(logits, ds.labels, ds.train_mask)
        t1 = time.perf_counter()
        with rec.span("nn.backward"):
            loss.backward()
        t2 = time.perf_counter()
        with rec.span("nn.optimizer"):
            trainer.optimizer.step()
        t3 = time.perf_counter()
        ap1 = AP_TIMER.read()
    return {"loss": float(loss.data), "fwd": t1 - t0, "bwd": t2 - t1, "opt": t3 - t2,
            "ap": ap1[0] - ap0[0], "ap_calls": ap1[1] - ap0[1]}


def run_fullbatch(dataset: str, scale: float, setup_repeats: int,
                  seed: int, seconds: float, trace: bool, rec: SpanRecorder) -> RunResult:
    result = RunResult()
    ref = SpeedReference()
    cfg = _train_config(dataset, seed)

    def build():
        t0 = time.perf_counter()
        with rec.span("graph.load_dataset", dataset=dataset, scale=scale):
            ds = load_dataset(dataset, scale=scale, seed=seed)
        load_s = time.perf_counter() - t0
        trainer = Trainer(ds, cfg)
        with rec.span("core.train_epoch", epoch=0):
            first = trainer.train_epoch(0)
        return ds, trainer, first.loss, load_s

    (ds, trainer, first_loss, load_s), setup_times = repeat_setup(
        build, setup_repeats, reference=ref
    )
    losses = [first_loss, trainer.train_epoch(1).loss]
    warmup = len(losses)
    ops_mark = ref.mark()

    # Traced runs cycle three kinds of call on the one trainer, so their
    # medians come from the same stretch of wall time: train_epoch inside
    # a span, train_epoch bare (their gap is the span overhead), and the
    # decomposed epoch (the same arithmetic, so the loss curve goes on).
    kinds: List[str] = []
    parts: List[dict] = []

    def op(i: int) -> float:
        if not trace:
            return trainer.train_epoch(warmup + i).loss
        kind = ("spanned", "bare", "decomposed")[i % 3]
        kinds.append(kind)
        if kind == "decomposed":
            parts.append(_decomposed_epoch(trainer, rec))
            return parts[-1]["loss"]
        ap0 = AP_TIMER.read()
        loss = trainer.train_epoch(warmup + i).loss
        ap1 = AP_TIMER.read()
        parts.append({"ap": ap1[0] - ap0[0], "ap_calls": ap1[1] - ap0[1]})
        return loss

    times, timed_losses, _ = timed_ops(
        op, seconds, min_ops=6, recorder=rec, span_name="core.train_epoch",
        trace_every=3, reference=ref,
    )
    losses += timed_losses
    result.attempted = len(times)
    _check_losses(result, timed_losses)
    _closed_loop_metrics(result, times, setup_times, ref, ops_mark)
    result.detail.update(
        dataset=ds.summary(), loss_curve=losses, warmup_ops=warmup,
        model=f"{cfg.num_layers}x{cfg.hidden_features}",
    )
    if not trace:
        return result

    # a same-seed twin that only ever calls train_epoch must see the same losses
    twin = Trainer(ds, cfg)
    num_twin = min(len(losses), warmup + 6)
    twin_losses = [twin.train_epoch(e).loss for e in range(num_twin)]
    result.check(
        "decomposed epochs and Trainer.train_epoch give one loss curve",
        twin_losses == losses[:num_twin], f"{twin_losses} vs {losses[:num_twin]}",
    )
    by_kind = {k: [t for t, kk in zip(times, kinds) if kk == k]
               for k in ("spanned", "bare", "decomposed")}
    epoch_s = median(by_kind["spanned"] + by_kind["bare"])
    whole = [p for p, k in zip(parts, kinds) if k != "decomposed"]
    pieces = [p for p, k in zip(parts, kinds) if k == "decomposed"]
    fwd, bwd, opt = (median([p[k] for p in pieces]) for k in ("fwd", "bwd", "opt"))
    ap_s = median([p["ap"] for p in whole])
    pass_s, pass_gbps = _kernel_pass(ds.graph, cfg.hidden_features, seed, 5, rec)
    result.per_layer = {
        "graph.load_s": load_s,
        "kernels.ap_s": ap_s,
        "kernels.ap_calls": median([float(p["ap_calls"]) for p in whole]),
        "kernels.ap_share": ap_s / epoch_s,
        "kernels.pass_ms": 1e3 * pass_s,
        "kernels.pass_gbps": pass_gbps,
        "nn.fwd_s": fwd,
        "nn.bwd_s": bwd,
        "nn.opt_s": opt,
        "nn.dense_s": fwd + bwd - median([p["ap"] for p in pieces]),
        "core.op_s": epoch_s,
        "core.epoch_overhead_s": epoch_s - (fwd + bwd + opt),
        "bench.span_overhead_pct": span_overhead_pct(
            by_kind["spanned"] + by_kind["bare"],
            [True] * len(by_kind["spanned"]) + [False] * len(by_kind["bare"]),
        ),
        "bench.machine_slowness": ref.slowness(ops_mark),
    }
    result.detail["layers_close"] = {"fwd+bwd+opt_over_epoch": (fwd + bwd + opt) / epoch_s}
    return result


# -- train_dist ------------------------------------------------------------------------

NUM_PARTITIONS = 4
ALGORITHM = "cd-5"
#: cd-5 spreads each layer's remote aggregates over five epochs, so
#: bytes repeat with period 5; counts are taken over whole periods
CYCLE = 5


def _shm_check(ds, cfg, seed: int, epochs: int, rec: SpanRecorder,
               result: RunResult) -> float:
    """P=2 over the shm backend against the same run on sim: losses and
    bytes must agree; returns the median shm epoch time."""
    with rec.span("partition.libra_partition", partitions=2):
        assignment = libra_partition(ds.graph, 2, seed=seed)
    runs = {}
    for backend in ("sim", "shm"):
        trainer = DistributedTrainer(
            ds, 2, algorithm=ALGORITHM, config=cfg,
            parted=build_partitions(ds.graph, assignment, 2), backend=backend,
        )
        with rec.span("core.dist_fit", backend=backend, epochs=epochs):
            runs[backend] = trainer.fit(epochs)
    sim, shm = runs["sim"], runs["shm"]
    result.check("shm losses equal sim losses at P=2",
                 shm.loss_curve() == sim.loss_curve(),
                 f"{shm.loss_curve()} vs {sim.loss_curve()}")
    result.check("shm bytes equal sim bytes at P=2",
                 shm.total_comm_bytes == sim.total_comm_bytes,
                 f"{shm.total_comm_bytes} vs {sim.total_comm_bytes}")
    # epoch 0 pays the fork and first-touch; skip it
    return median([e.total_time_s for e in shm.epochs[1:]])


def run_dist(dataset: str, scale: float, setup_repeats: int, seed: int,
             seconds: float, trace: bool, smoke: bool, rec: SpanRecorder) -> RunResult:
    result = RunResult()
    ref = SpeedReference()
    cfg = _train_config(dataset, seed)
    layer_times: Dict[str, float] = {}

    def build():
        t0 = time.perf_counter()
        with rec.span("graph.load_dataset", dataset=dataset, scale=scale):
            ds = load_dataset(dataset, scale=scale, seed=seed)
        layer_times["graph.load_s"] = time.perf_counter() - t0
        parted = None
        if trace:
            # the constructor's own partitioning steps, called one by one
            t0 = time.perf_counter()
            with rec.span("partition.libra_partition", partitions=NUM_PARTITIONS):
                assignment = libra_partition(ds.graph, NUM_PARTITIONS, seed=cfg.seed)
            t1 = time.perf_counter()
            with rec.span("partition.build"):
                parted = build_partitions(ds.graph, assignment, NUM_PARTITIONS)
                build_split_trees(parted, seed=cfg.seed, build_tree_objects=False)
            layer_times["partition.libra_s"] = t1 - t0
            layer_times["partition.build_s"] = time.perf_counter() - t1
        trainer = DistributedTrainer(
            ds, NUM_PARTITIONS, algorithm=ALGORITHM, config=cfg,
            partitioner="libra", parted=parted, backend="sim",
        )
        with rec.span("core.dist_train_epoch", epoch=0):
            first = trainer.train_epoch(0)
        return ds, trainer, first.loss

    (ds, trainer, first_loss), setup_times = repeat_setup(
        build, setup_repeats, reference=ref
    )
    losses = [first_loss]
    for epoch in range(1, CYCLE):  # fill the cd-5 pipeline
        losses.append(trainer.train_epoch(epoch).loss)
    warmup = len(losses)
    ops_mark = ref.mark()

    counters0 = trainer.world.counters.snapshot()
    stats_rows = []
    peak_inflight = 0

    def op(i: int) -> float:
        nonlocal peak_inflight
        stats = trainer.train_epoch(warmup + i)
        stats_rows.append(stats)
        peak_inflight = max(peak_inflight, trainer.world.queue.in_flight_bytes())
        return stats.loss

    times, timed_losses, traced = timed_ops(
        op, seconds, min_ops=CYCLE, recorder=rec,
        span_name="core.dist_train_epoch", trace_every=2, reference=ref,
    )
    losses += timed_losses
    result.attempted = len(times)
    _check_losses(result, timed_losses)
    _closed_loop_metrics(result, times, setup_times, ref, ops_mark)

    # exact counts over the first whole cd-5 period of timed epochs
    cycle_bytes = sum(s.comm_bytes for s in stats_rows[:CYCLE])
    delta = trainer.world.counters.delta_since(counters0)
    result.check("world.counters agree with EpochStats.comm_bytes",
                 delta.total_bytes == sum(s.comm_bytes for s in stats_rows),
                 f"{delta.total_bytes} vs {sum(s.comm_bytes for s in stats_rows)}")
    rf = trainer.parted.replication_factor
    result.detail.update(
        dataset=ds.summary(), loss_curve=losses, warmup_ops=warmup,
        comm_bytes_per_cycle=cycle_bytes, replication_factor=rf,
        partitions=NUM_PARTITIONS, algorithm=ALGORITHM,
    )
    if not trace:
        return result

    epoch_s = median(times)
    n = len(stats_rows)
    pstats = partition_stats(trainer.parted)
    # the plain single-worker run of the same task, as the baseline
    single = Trainer(ds, cfg)
    single_times = []
    for epoch in range(4):
        t0 = time.perf_counter()
        with rec.span("core.train_epoch", epoch=epoch, role="single-worker baseline"):
            single.train_epoch(epoch)
        single_times.append(time.perf_counter() - t0)
    single_s = median(single_times[1:])
    shm_s = _shm_check(ds, cfg, seed, 3 if smoke else 4, rec, result)
    result.per_layer = {
        **layer_times,
        "partition.libra_edges_per_s": ds.num_edges / layer_times["partition.libra_s"],
        "partition.replication_factor": rf,
        "partition.edge_imbalance": pstats.edge_balance,
        "core.op_s": epoch_s,
        "core.local_agg_s": median([s.local_agg_time_s for s in stats_rows]),
        "core.remote_agg_s": median([s.remote_agg_time_s for s in stats_rows]),
        "core.dist_vs_single_ratio": epoch_s / single_s,
        "comm.mb_per_epoch": cycle_bytes / CYCLE / 1e6,
        "comm.messages_per_epoch": sum(delta.messages_sent) / n,
        "comm.collective_calls_per_epoch": sum(delta.collective_calls.values()) / n,
        "comm.peak_inflight_mb": peak_inflight / 1e6,
        "comm.shm_epoch_s": shm_s,
        "bench.span_overhead_pct": span_overhead_pct(times, traced),
        "bench.machine_slowness": ref.slowness(ops_mark),
    }
    result.detail["single_worker_epoch_s"] = single_s
    return result


# -- train_minibatch -------------------------------------------------------------------

FANOUTS = [10, 10, 10]
BATCH_SIZE = 256
HOT_FRACTION = 0.1
WARMUP_STEPS = 10


def run_minibatch(dataset: str, scale: float, setup_repeats: int, seed: int,
                  seconds: float, trace: bool, rec: SpanRecorder) -> RunResult:
    result = RunResult()
    ref = SpeedReference()
    cfg = _train_config(dataset, seed)
    seed_rng = np.random.default_rng([seed, 3])
    layer_times: Dict[str, float] = {}
    store_dirs: List[str] = []

    def next_seeds(train_vertices: np.ndarray) -> np.ndarray:
        size = min(BATCH_SIZE, train_vertices.size)
        return seed_rng.choice(train_vertices, size=size, replace=False)

    def build():
        t0 = time.perf_counter()
        with rec.span("graph.load_dataset", dataset=dataset, scale=scale):
            ds = load_dataset(dataset, scale=scale, seed=seed)
        t1 = time.perf_counter()
        store_dirs.append(tempfile.mkdtemp(prefix="features-", dir=scratch_root()))
        with rec.span("featurestore.create"):
            store = FeatureStore.create(
                store_dirs[-1], ds.features, degrees=ds.graph.in_degrees(),
                hot_fraction=HOT_FRACTION, policy="auto",
            )
        layer_times["graph.load_s"] = t1 - t0
        layer_times["featurestore.create_s"] = time.perf_counter() - t1
        trainer = MiniBatchTrainer(
            ds, fanouts=FANOUTS, batch_size=BATCH_SIZE, config=cfg,
            feature_store=store,
        )
        train_vertices = np.flatnonzero(ds.train_mask)
        with rec.span("sampling.train_step", step=0):
            first = trainer.train_step(next_seeds(train_vertices))
        return ds, store, trainer, train_vertices, first

    try:
        (ds, store, trainer, train_vertices, first_loss), setup_times = repeat_setup(
            build, setup_repeats, reference=ref
        )
        losses = [first_loss]
        for _ in range(1, WARMUP_STEPS):
            losses.append(trainer.train_step(next_seeds(train_vertices)))
        warmup = len(losses)
        ops_mark = ref.mark()
        hot0 = dict(store.stats()["hot"])
        cold0 = store.stats()["cold_rows_read"]

        ap_rows: List[Tuple[float, int]] = []

        def op(i: int) -> float:
            seeds = next_seeds(train_vertices)
            if not trace:
                return trainer.train_step(seeds)
            ap0 = AP_TIMER.read()
            loss = trainer.train_step(seeds)
            ap1 = AP_TIMER.read()
            ap_rows.append((ap1[0] - ap0[0], ap1[1] - ap0[1]))
            return loss

        times, timed_losses, traced = timed_ops(
            op, seconds, min_ops=20, recorder=rec, span_name="sampling.train_step",
            trace_every=2, reference=ref,
        )
        losses += timed_losses
        result.attempted = len(times)
        _check_losses(result, timed_losses, window=min(10, len(timed_losses) // 2))
        _closed_loop_metrics(result, times, setup_times, ref, ops_mark)
        stats = store.stats()
        hot = stats["hot"]
        lookups = hot["lookups"] - hot0["lookups"]
        result.detail.update(
            dataset=ds.summary(), loss_curve=losses, warmup_ops=warmup,
            fanouts=FANOUTS, batch_size=BATCH_SIZE, hot_policy=stats["policy"],
        )
        if not trace:
            return result

        step_s = median(times)
        ap_s = median([r[0] for r in ap_rows])
        # the layers of a step, called one by one on fresh batches
        sample_times, gather_times, pass_times, frontier = [], [], [], []
        for _ in range(20):
            seeds = next_seeds(train_vertices)
            t0 = time.perf_counter()
            with rec.span("sampling.sample"):
                batch = trainer.sampler.sample(seeds)
            t1 = time.perf_counter()
            with rec.span("featurestore.gather", rows=int(batch.input_vertices.size)):
                store.gather(batch.input_vertices)
            t2 = time.perf_counter()
            sample_times.append(t1 - t0)
            gather_times.append(t2 - t1)
            frontier.append(float(batch.input_vertices.size))
            for block in batch.blocks[1:]:
                h = np.ones((block.num_src, cfg.hidden_features), dtype=np.float32)
                t0 = time.perf_counter()
                with rec.span("kernels.small_pass", edges=block.graph.num_edges):
                    aggregate(block.graph, h, None, "copylhs", "sum", kernel="auto")
                pass_times.append(time.perf_counter() - t0)
        result.per_layer = {
            **layer_times,
            "core.op_s": step_s,
            "kernels.ap_s": ap_s,
            "kernels.ap_calls": median([float(r[1]) for r in ap_rows]),
            "kernels.ap_share": ap_s / step_s,
            "kernels.small_pass_us": 1e6 * median(pass_times),
            "sampling.sample_ms": 1e3 * median(sample_times),
            "sampling.frontier_rows": median(frontier),
            "featurestore.gather_ms": 1e3 * median(gather_times),
            "featurestore.hit_rate": (hot["hits"] - hot0["hits"]) / max(lookups, 1),
            "featurestore.predicted_hit_rate": store.decision.predicted_hit_rate,
            "featurestore.cold_rows_per_step":
                (stats["cold_rows_read"] - cold0) / len(times),
            "bench.span_overhead_pct": span_overhead_pct(times, traced),
            "bench.machine_slowness": ref.slowness(ops_mark),
        }
        return result
    finally:
        for path in store_dirs:
            shutil.rmtree(path, ignore_errors=True)
