"""Diagnostic studies: one-off measurements that inform a design choice.

Nothing here is a gate or a number of record — the repo benchmark is
``benchmarks/suite``.  Each study prints a markdown table that is pasted
into ``docs/`` with the date and box it was measured on.

    PYTHONPATH=src python benchmarks/studies.py spmm-operand
    PYTHONPATH=src python benchmarks/studies.py kernel-plan
    PYTHONPATH=src python benchmarks/studies.py minibatch-step
    PYTHONPATH=src python benchmarks/studies.py project-first [--part pass|bytes|accuracy]
    PYTHONPATH=src python benchmarks/studies.py subnormals
    PYTHONPATH=src python benchmarks/studies.py serving-layers [--baseline CHECKOUT]
    PYTHONPATH=src python benchmarks/studies.py sim-threads [--baseline CHECKOUT]
    PYTHONPATH=src python benchmarks/studies.py refresh [--baseline CHECKOUT]
    PYTHONPATH=src python benchmarks/studies.py feature-gather [--baseline CHECKOUT]
    PYTHONPATH=src python benchmarks/studies.py graph-build [--baseline CHECKOUT]
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

import numpy as np

from repro.core import DistributedTrainer, TrainConfig, Trainer
from repro.featurestore import FeatureStore
from repro.graph.datasets import load_dataset
from repro.graph.generators import rmat_graph
from repro.kernels import aggregate
from repro.kernels.instrumentation import AP_TIMER
from repro.nn import Tensor, masked_cross_entropy
from repro.perf.hardware import SocketSpec
from repro.perf.roofline import ap_kernel_time
from repro.sampling import MiniBatchTrainer, NeighborSampler
from repro.sampling.minibatch_trainer import forward_blocks

#: the two full-batch suite graphs, each at its model's input and hidden width
SPMM_CASES = (
    ("reddit", 4.0, (16, 64)),  # train_dense: 2x16 over 64 input features
    ("ogbn-products", 0.5, (50, 256)),  # train_sparse: 3x256 over 50
)


def _median_ms(fn, reps: int) -> float:
    fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * float(np.median(times))


def _copy_bandwidth() -> float:
    """Bytes/s of one thread streaming a 128 MB array into another."""
    src = np.ones(1 << 24)
    dst = np.empty_like(src)
    return 2 * src.nbytes / (_median_ms(lambda: np.copyto(dst, src), 5) / 1e3)


def _pass_bytes(graph, dim: int, value_size: int) -> int:
    """What one CSR product moves when no gathered row is reused: every
    edge streams its index and value and gathers a source row, every
    destination row is written (the suite's ``kernels.pass_gbps`` model,
    with the operand's real element sizes)."""
    index = 4  # scipy's int32 copy
    return (
        graph.num_edges * (dim * value_size + index + value_size)
        + graph.num_vertices * dim * value_size
        + (graph.num_vertices + 1) * index
    )


def spmm_operand(reps: int) -> None:
    """ROADMAP 3(b)/(d): the two operands ``CSRGraph.to_scipy`` hands out,
    float32 ``X`` throughout.  ``A @ X`` alone on the float64 operand (what
    every pass used before ISSUE 20) and on the float32 one (what float32
    features ride now), the whole engine pass — output included — beside
    it, the roofline for each element size, and how far the float32 sum
    lands from the float64 one in units of ``eps32 · Σ|x|``."""
    bandwidth = _copy_bandwidth()
    # one core on its bandwidth roof; 8 fp32 adds per cycle is generous
    # enough that no case below is compute-bound
    box = SocketSpec("this-box", cores=1, frequency_Hz=2.5e9, mem_bw_Bps=bandwidth,
                     simd_fp32_per_core=8, flops_efficiency=1.0, bw_efficiency=1.0)
    eps32 = float(np.finfo(np.float32).eps)
    print(f"one-thread copy bandwidth {bandwidth / 1e9:.1f} GB/s\n")
    print("| graph | V | E | max deg | d | f64 operand ms | f32 operand ms | f32/f64 "
          "| engine pass ms | roofline f64 ms | roofline f32 ms | max err / (eps32·Σ\\|x\\|) |")
    print("| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |")
    for name, scale, dims in SPMM_CASES:
        graph = load_dataset(name, scale=scale, seed=0).graph
        a64, a32 = graph.to_scipy(np.float64), graph.to_scipy(np.float32)
        for dim in dims:
            x = np.random.default_rng(dim).standard_normal(
                (graph.num_src, dim)
            ).astype(np.float32)
            t64 = _median_ms(lambda: a64 @ x, reps)
            t32 = _median_ms(lambda: a32 @ x, reps)

            def engine_pass():
                return aggregate(graph, x, None, "copylhs", "sum", num_threads=1)

            t_pass = _median_ms(engine_pass, reps)
            roof = [
                1e3 * ap_kernel_time(graph.num_edges, dim,
                                     _pass_bytes(graph, dim, size), box)
                for size in (8, 4)
            ]
            x64 = x.astype(np.float64)
            err = np.abs(engine_pass() - a64 @ x64)
            unit = eps32 * (a64 @ np.abs(x64))
            worst = float(np.max(err[unit > 0] / unit[unit > 0]))
            print(f"| {name} {scale} | {graph.num_vertices} | {graph.num_edges} "
                  f"| {int(graph.in_degrees().max())} | {dim} | {t64:.1f} | {t32:.1f} "
                  f"| {t32 / t64:.2f} | {t_pass:.1f} | {roof[0]:.1f} | {roof[1]:.1f} "
                  f"| {worst:.2f} |")


def kernel_plan(reps: int) -> None:
    """The engine's plan rule at one and two threads beside the Alg.-1
    ``baseline`` (a Python loop: timed once) on the rmat ladder of
    docs/kernel-plan.md — s14 / s16 / s17, edge factor 8, d = 32 float32,
    the SpMM pair and two that materialise messages.  Every arm is
    checked against the one-thread pass before it is timed; the arms the
    rule displaced were measured on the tree that had them (same doc)."""
    print("| graph | V | E | op | rule, 1 thread ms | rule, 2 threads ms | baseline ms |")
    print("| --- " * 7 + "|")
    for scale in (14, 16, 17):
        graph = rmat_graph(scale=scale, edge_factor=8.0, seed=3)
        rng = np.random.default_rng(0)
        x = (rng.standard_normal((graph.num_src, 32)) + 2.0).astype(np.float32)
        w = (rng.standard_normal((graph.num_edges, 32)) + 2.0).astype(np.float32)
        for ops in (("copylhs", "sum"), ("mul", "sum"), ("mul", "max")):
            want = aggregate(graph, x, w, *ops, num_threads=1)
            assert np.array_equal(aggregate(graph, x, w, *ops, num_threads=2), want)
            t0 = time.perf_counter()
            base = aggregate(graph, x, w, *ops, kernel="baseline")
            t_base = 1e3 * (time.perf_counter() - t0)
            assert np.allclose(base, want, rtol=1e-4, atol=1e-4)
            t1, t2 = (_median_ms(lambda: aggregate(graph, x, w, *ops, num_threads=k), reps)
                      for k in (1, 2))
            print(f"| rmat-s{scale} | {graph.num_vertices} | {graph.num_edges} "
                  f"| {'/'.join(ops)} | {t1:.1f} | {t2:.1f} | {t_base:.0f} |", flush=True)


def minibatch_step(reps: int) -> None:
    """ROADMAP 1: where a ``train_minibatch`` step goes, on the suite's
    configuration (ogbn-papers 1.0, fan-outs 10-10-10, batch 256, mmap
    feature store; a tree that still has a hot-set tier opens it at its
    defaults).  Per hop: frontier rows, candidate
    edges (sum of degrees), kept edges and the selection's ms
    (``sample_neighbors``, the sampler's own function, on the batch's
    frontiers); then the step split.  Runs on any tree (public names
    only): the "before" column of docs/minibatch-step.md is this script
    under the parent's ``src``, where the hop table is skipped."""
    fanouts, batch_size = (10, 10, 10), 256
    ds = load_dataset("ogbn-papers", scale=1.0, seed=0)
    train = np.flatnonzero(ds.train_mask)
    seed_rng = np.random.default_rng([0, 3])
    batches = [seed_rng.choice(train, size=batch_size, replace=False)
               for _ in range(10 + reps)]
    try:
        from repro.sampling.sampler import sample_neighbors
    except ImportError:
        print("per-hop selection: skipped, this tree samples with the per-vertex loop\n")
    else:
        degrees = ds.graph.in_degrees()
        rows = {hop: [] for hop in range(len(fanouts))}
        for i, seeds in enumerate(batches):
            batch = NeighborSampler(ds.graph, fanouts, seed=i).sample(seeds)
            rng = np.random.default_rng(i)
            for hop, (fanout, block) in enumerate(zip(fanouts, batch.blocks[::-1])):
                t0 = time.perf_counter()
                sample_neighbors(ds.graph, block.dst_global, fanout, rng)
                select_ms = 1e3 * (time.perf_counter() - t0)
                rows[hop].append([block.num_dst, degrees[block.dst_global].sum(),
                                  block.num_sampled_edges, select_ms])
        print("| hop | frontier rows | candidate edges | kept edges | select ms |")
        print("| --- " * 5 + "|")
        for hop, samples in rows.items():
            med = np.median(np.array(samples[10:]), axis=0)
            print(f"| {hop} | {med[0]:.0f} | {med[1]:.0f} | {med[2]:.0f} | {med[3]:.2f} |")
        print()

    store_dir = tempfile.mkdtemp(prefix="minibatch-step-")
    try:
        store = FeatureStore.create(store_dir, ds.features)
        cfg = TrainConfig(num_threads=1, seed=0, eval_every=0).for_dataset(ds.name)
        trainer = MiniBatchTrainer(ds, fanouts, batch_size=batch_size, config=cfg,
                                   feature_store=store)
        phases = ("sample", "gather", "forward", "backward", "optimizer")
        split = []
        for seeds in batches:
            clock = [time.perf_counter()]
            batch = trainer.sampler.sample(seeds)
            clock.append(time.perf_counter())
            x = store.gather(batch.input_vertices)
            clock.append(time.perf_counter())
            trainer.model.zero_grad()
            logits = forward_blocks(trainer.model, Tensor(x), batch.blocks)
            loss = masked_cross_entropy(logits, ds.labels[batch.seeds])
            clock.append(time.perf_counter())
            loss.backward()
            clock.append(time.perf_counter())
            trainer.optimizer.step()
            clock.append(time.perf_counter())
            split.append(1e3 * np.diff(clock))
        med = np.median(np.array(split[10:]), axis=0)
        print("| " + " | ".join(f"{name} ms" for name in phases) + " | step ms |")
        print("| --- " * (len(phases) + 1) + "|")
        print("| " + " | ".join(f"{ms:.2f}" for ms in med) + f" | {med.sum():.2f} |")
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)


def _suite_config(ds, seed: int, eval_every: int = 0, **kw) -> TrainConfig:
    """The suite's training configuration for ``ds`` (paper shape, one
    kernel thread)."""
    cfg = TrainConfig(num_threads=1, seed=seed, eval_every=eval_every, **kw)
    return cfg.for_dataset(ds.name)


def _exchanged_widths(model) -> list:
    """Per layer, the width of the rows DRPA exchanges under the tree's
    own rule: the layer's input width — or, from ISSUE 24 on (the layer
    has a ``project``), ``min(in, out)`` for every layer after the first."""
    dims = [(l.linear.in_features, l.linear.out_features) for l in model.layers]
    narrow = hasattr(model.layers[0], "project")
    return [min(i, o) if narrow and l else i for l, (i, o) in enumerate(dims)]


def _project_first_pass(reps: int) -> None:
    """The engine pass at the hidden and the class width, then an epoch
    of ``Trainer``'s arithmetic split into AP / dense / optimizer."""
    ds = load_dataset("ogbn-products", scale=0.5, seed=0)
    cfg = _suite_config(ds, 0)
    print("| engine pass | ms |\n| --- | --- |")
    for dim in (cfg.hidden_features, ds.num_classes):
        h = np.random.default_rng(dim).standard_normal(
            (ds.num_vertices, dim)).astype(np.float32)
        ms = _median_ms(lambda: aggregate(ds.graph, h, kernel="auto"), reps)
        print(f"| d = {dim} | {ms:.2f} |")
    trainer = Trainer(ds, cfg)
    split = []
    for _ in range(3 + reps):
        ap0, t0 = AP_TIMER.read(), time.perf_counter()
        trainer.model.zero_grad()
        logits = trainer.model(ds.graph, trainer.features, trainer.norm)
        loss = masked_cross_entropy(logits, ds.labels, ds.train_mask)
        loss.backward()
        t1 = time.perf_counter()
        trainer.optimizer.step()
        t2 = time.perf_counter()
        ap1 = AP_TIMER.read()
        ap = ap1[0] - ap0[0]
        split.append([1e3 * ap, 1e3 * (t1 - t0 - ap), 1e3 * (t2 - t1), ap1[1] - ap0[1]])
    med = np.median(np.array(split[3:]), axis=0)
    print("\n| AP ms | dense ms | optimizer ms | epoch ms | AP calls |\n" + "| --- " * 5 + "|")
    print(f"| {med[0]:.1f} | {med[1]:.1f} | {med[2]:.1f} | {med[:3].sum():.1f} | {med[3]:.0f} |\n")


def _project_first_bytes(reps: int) -> None:
    """Exact per-epoch DRPA counts at P = 4 beside the count derived from
    the partition plan (deterministic: ``reps`` is unused)."""
    ds = load_dataset("ogbn-products", scale=0.5, seed=0)
    P, warm, period = 4, 10, 10  # 10 epochs: whole cd-2 and cd-5 periods
    print("| algorithm | compression | MB/epoch | derived MB/epoch | messages/epoch "
          "| collectives/epoch | peak in-flight MB |\n" + "| --- " * 7 + "|")
    for algo in ("0c", "cd-0", "cd-2", "cd-5"):
        for compression in ("none", "fp16"):
            cfg = _suite_config(ds, 0, compression=compression)
            tr = DistributedTrainer(ds, P, algorithm=algo, config=cfg, partitioner="libra")
            for epoch in range(warm):
                tr.train_epoch(epoch)
            before, peak, measured = tr.world.counters.snapshot(), 0, 0
            for epoch in range(warm, warm + period):
                measured += tr.train_epoch(epoch).comm_bytes
                peak = max(peak, tr.world.queue.in_flight_bytes())
            delta = tr.world.counters.delta_since(before)
            model = tr.ranks[0].model
            row = tr.plan.num_routes * sum(_exchanged_widths(model))  # elements, one way
            wire = 2 if compression == "fp16" else 4
            if algo == "0c":
                derived = 0
            elif algo == "cd-0":  # aggregates at the codec's width + float32 gradients
                derived = 2 * row * (wire + 4)
            else:  # one bin of ``delay`` per epoch, up and down
                derived = 2 * row * wire / tr.spec.delay
            derived += sum(
                P * int(2 * (P - 1) / P * p.data.nbytes) for p in model.parameters())
            print(f"| {algo} | {compression} | {measured / period / 1e6:.6f} | "
                  f"{derived / 1e6:.6f} | {sum(delta.messages_sent) / period:g} | "
                  f"{sum(delta.collective_calls.values()) / period:g} | {peak / 1e6:.4f} |")
    print(f"\nsplit-vertex routes {tr.plan.num_routes}, exchanged widths "
          f"{_exchanged_widths(model)}, rf {tr.parted.replication_factor!r}\n")


def _project_first_accuracy(reps: int) -> None:
    """cd-2 / cd-5 final test and best validation accuracy, seeds 0-3, 60
    epochs at P = 4 (deterministic: ``reps`` is unused)."""
    print("| algorithm | seed | final test acc | best val acc |\n" + "| --- " * 4 + "|")
    for algo in ("cd-2", "cd-5"):
        for seed in range(4):
            ds = load_dataset("ogbn-products", scale=0.5, seed=seed)
            trainer = DistributedTrainer(
                ds, 4, algorithm=algo, config=_suite_config(ds, seed, eval_every=10),
                partitioner="libra")
            res = trainer.fit(60)
            print(f"| {algo} | {seed} | {100 * res.final_test_acc:.2f} | "
                  f"{100 * res.best_val_acc:.2f} |", flush=True)


PROJECT_FIRST_PARTS = {
    "pass": _project_first_pass,
    "bytes": _project_first_bytes,
    "accuracy": _project_first_accuracy,
}


def project_first(reps: int, parts=tuple(PROJECT_FIRST_PARTS)) -> None:
    """ROADMAP 3 (ISSUE 24): what aggregating on the narrower side of
    ``W`` moves, on ogbn-products 0.5 (3 x 256 over 50 features, 24
    classes: the ``train_sparse`` / ``train_dist`` configuration).  Public
    names only, so the "before" columns of docs/project-first.md are this
    script under the parent's ``src``.  ``pass`` is timing (alternate the
    trees); ``bytes`` and ``accuracy`` are deterministic, one run per tree."""
    for part in parts:
        PROJECT_FIRST_PARTS[part](reps)


def _subnormal_count(a: np.ndarray) -> int:
    return int(np.count_nonzero((a != 0) & (np.abs(a) < np.finfo(a.dtype).tiny)))


class _BackwardSpy:
    """Per backward sweep: subnormal counts of the ``log_softmax`` gradient
    and of every backward GEMM operand, per layer, and those GEMMs replayed
    inside the sweep — in the sweep's floating-point mode — and timed.  It
    wraps ``GraphConv.project`` / ``.combine`` and ``F.log_softmax``, which
    every tree with a ``project`` step has, so it runs under a parent's
    ``src`` too."""

    def __init__(self, models):
        self.position = {id(l): i for m in models for i, l in enumerate(m.layers)}
        self.layers = len(models[0].layers)
        self.reset()

    def reset(self) -> None:
        self.softmax = np.zeros(2)  # subnormal entries, entries
        self.grad = np.zeros((self.layers, 2))  # the upstream operand, per layer
        self.act = np.zeros(2)  # the activation operand, all layers
        self.gemm_s = 0.0

    def _gemms(self, layer, g, a, w, input_on_tape) -> None:
        self.grad[self.position[id(layer)]] += (_subnormal_count(g), g.size)
        self.act += (_subnormal_count(a), a.size)
        t0 = time.perf_counter()
        a.T @ g
        if input_on_tape:
            g @ w.T
        self.gemm_s += time.perf_counter() - t0

    @staticmethod
    def _before_backward(out: Tensor, record) -> None:
        fn = out._backward_fn
        if fn is not None:
            out._backward_fn = lambda g: (record(g), fn(g))[1]

    @contextlib.contextmanager
    def installed(self):
        from repro.nn import functional as F
        from repro.nn.layers import GraphConv

        combine, project, log_softmax = GraphConv.combine, GraphConv.project, F.log_softmax
        spy = self

        def spied_combine(layer, z, x, norm):
            out = combine(layer, z, x, norm)
            lin = layer.linear
            if x.shape[-1] == lin.in_features:  # W applied here
                mixed = (z.data + x.data) * norm.data
                live = any(t.requires_grad or t._parents for t in (z, x, norm))

                def record(g):
                    g = g * (out.data > 0) if layer.activation else g
                    spy._gemms(layer, g, mixed, lin.weight.data, live)

                spy._before_backward(out, record)
            return out

        def spied_project(layer, h):
            x = project(layer, h)
            if x is not h:
                live = h.requires_grad or bool(h._parents)
                spy._before_backward(x, lambda g: spy._gemms(
                    layer, g, h.data, layer.linear.weight.data, live))
            return x

        def spied_log_softmax(a):
            out = log_softmax(a)
            fn = out._backward_fn

            def backward(g):
                (grad,) = fn(g)
                spy.softmax += (_subnormal_count(grad), grad.size)
                return (grad,)

            if fn is not None:
                out._backward_fn = backward
            return out

        GraphConv.combine, GraphConv.project = spied_combine, spied_project
        F.log_softmax = spied_log_softmax
        try:
            yield
        finally:
            GraphConv.combine, GraphConv.project = combine, project
            F.log_softmax = log_softmax


def subnormals(reps: int, epochs: int = 40, bucket: int = 5) -> None:
    """Where the subnormal slow path shows: the ``train_dist`` (P = 4 cd-5,
    sim) and ``train_sparse`` configurations on ogbn-products 0.5 over 40
    epochs.  Per bucket of epochs: the subnormal share of the
    ``log_softmax`` gradient and of each layer's upstream GEMM operand
    (``l0 / l1 / l2``) and of the activation operands, the backward GEMMs
    replayed in the sweep's mode, and the epoch (a second, unspied run of
    the same deterministic trajectory).  Public names only: the parent's
    rows are this script under the parent's ``src`` (``reps`` is unused)."""
    import repro.kernels

    sweep = "FTZ/DAZ" if hasattr(repro.kernels, "flush_subnormals") else "plain"
    ds = load_dataset("ogbn-products", scale=0.5, seed=0)
    cfg = _suite_config(ds, 0)
    print("| config | epochs | sweep | log_softmax grad subnormal % | GEMM grad operand "
          "subnormal % l0 / l1 / l2 | activation operand subnormal % "
          "| backward GEMM ms | epoch ms |\n" + "| --- " * 8 + "|")
    for name in ("train_dist", "train_sparse"):

        def build():
            if name == "train_dist":
                tr = DistributedTrainer(ds, 4, algorithm="cd-5", config=cfg,
                                        partitioner="libra")
                return tr, [r.model for r in tr.ranks]
            tr = Trainer(ds, cfg)
            return tr, [tr.model]

        trainer, _ = build()
        epoch_ms = [1e3 * trainer.train_epoch(e).total_time_s for e in range(epochs)]
        trainer, models = build()
        spy, rows = _BackwardSpy(models), []
        with spy.installed():
            for e in range(epochs):
                spy.reset()
                trainer.train_epoch(e)
                rows.append([*(100 * spy.grad[:, 0] / spy.grad[:, 1]),
                             100 * spy.softmax[0] / spy.softmax[1],
                             100 * spy.act[0] / spy.act[1], 1e3 * spy.gemm_s, epoch_ms[e]])
        rows = np.array(rows)
        for lo in range(0, epochs, bucket):
            med = np.median(rows[lo:lo + bucket], axis=0)
            layers = " / ".join(f"{s:.2f}" for s in med[:spy.layers])
            print(f"| {name} | {lo}–{lo + bucket - 1} | {sweep} | {med[-4]:.2f} | {layers} "
                  f"| {med[-3]:.3f} | {med[-2]:.1f} | {med[-1]:.0f} |", flush=True)


BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SERVING_READ_DOC = os.path.join(BENCH_DIR, "..", "docs", "serving-read.md")
#: the traced ``serve_read`` pass: papers 0.5, the first 75 x 10 requests
SERVE_READ_SCALE, SERVE_READ_SECONDS = 0.5, 10.0
LAYERS = (
    ("engine", "serving.engine_p50_us"),
    ("service", "serving.service_p50_us"),
    ("frontend", "serving.frontend_p50_us"),
    ("HTTP", "serving.http_p50_us"),
    ("service − engine", "serving.service_added_us"),
    ("frontend − service", "serving.frontend_added_us"),
    ("HTTP − frontend", "serving.http_added_us"),
)


#: server-side phases of one read, timed by ``_phase_split`` (all three
#: methods exist on every tree since keep-alive HTTP).
PHASES = ("parse_request", "frontend.call", "_reply")


def _inline_probe(engine, requests) -> dict:
    """Table reads over in-process HTTP: the handler runs each read
    through the tree's ``ServingFrontend.call`` (the admission gate, or
    the worker-pool hop on a tree that still has one), or inline with no
    frontend at all.  One keep-alive client per server; the two
    alternate request by request."""
    from suite_harness import HttpClient, median

    from repro.serving import PredictionServer, PredictionService, ServingFrontend

    class InlineFrontend(ServingFrontend):
        def call(self, endpoint, fn, timeout_s=None):
            return fn()

    service = PredictionService(engine)  # no cache, no batcher, no refresher
    servers = {
        name: PredictionServer(service, port=0, frontend=cls(service)).start_background()
        for name, cls in (("gate", ServingFrontend), ("inline", InlineFrontend))
    }
    clients = {name: HttpClient(server.address[1]) for name, server in servers.items()}
    times = {name: [] for name in servers}
    try:
        for req in requests:
            for name, client in clients.items():
                t0 = time.perf_counter()
                client.request("POST", req.path, req.body)
                times[name].append(time.perf_counter() - t0)
    finally:
        for name in servers:
            clients[name].close()
            servers[name].shutdown()
    return {f"probe.{name}_p50_us": 1e6 * median(t) for name, t in times.items()}


def _phase_split(engine, requests) -> dict:
    """p50 µs of each server-side phase in :data:`PHASES` of one read
    over in-process HTTP (one keep-alive client), each method wrapped by
    a timer for the pass."""
    from suite_harness import HttpClient, median

    from repro.serving import PredictionServer, PredictionService, ServingFrontend
    from repro.serving.server import _PredictionHandler

    methods = ((_PredictionHandler, "parse_request"), (ServingFrontend, "call"),
               (_PredictionHandler, "_reply"))
    times = {label: [] for label in PHASES}
    patched = []
    for label, (cls, attr) in zip(PHASES, methods):
        inner = getattr(cls, attr)

        def timed(*args, _inner=inner, _out=times[label], **kwargs):
            t0 = time.perf_counter()
            try:
                return _inner(*args, **kwargs)
            finally:
                _out.append(time.perf_counter() - t0)

        patched.append((cls, attr, vars(cls).get(attr)))
        setattr(cls, attr, timed)
    service = PredictionService(engine)
    server = PredictionServer(service, port=0).start_background()
    client = HttpClient(server.address[1])
    try:
        for req in requests:
            client.request("POST", req.path, req.body)
    finally:
        client.close()
        server.shutdown()
        for cls, attr, own in reversed(patched):
            if own is None:
                delattr(cls, attr)  # inherited: uncover the base's
            else:
                setattr(cls, attr, own)
    return {f"phase.{label}_p50_us": 1e6 * median(t) for label, t in times.items()}


def _serving_layers_child() -> None:
    """One run of one tree: its own benchmark suite's traced replay of
    the ``serve_read`` request set (engine / service / frontend / HTTP
    p50, a ``repro serve`` child for HTTP) and the inline probe, as one
    JSON line.  The tree is the checkout ``repro`` was imported from."""
    import repro

    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))))
    sys.path.insert(0, os.path.join(root, "benchmarks", "suite"))
    import suite_serve
    from suite_harness import SpanRecorder, poisson_arrivals, read_requests

    rec = SpanRecorder(enabled=False)
    inputs = suite_serve.Inputs(SERVE_READ_SCALE, 0, rec)
    try:
        engine, _ = inputs.oracle(rec)
        open_s = suite_serve.OPEN_SHARE * SERVE_READ_SECONDS
        arrivals = poisson_arrivals(np.random.default_rng([0, 0]), suite_serve.READ_RATE, open_s)
        requests = read_requests(0, arrivals, inputs.ds.num_vertices)
        requests = requests[: max(int(75 * SERVE_READ_SECONDS), 50)]
        row = suite_serve._replay_layers(inputs, engine, requests, rec)
        row.update(_inline_probe(engine, requests))
        row.update(_phase_split(engine, requests))
        row["requests"] = len(requests)
    finally:
        inputs.cleanup()
    print(json.dumps(row))


def _child_json(cmd, src: str, cwd: str) -> dict:
    """Run ``cmd`` on the tree ``src`` with BLAS pinned to one thread (as
    the suite pins it) and no ``REPRO_*`` overrides; its last line, parsed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, text=True,
                          check=True, timeout=900)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _append_section(path: str, title: str, study: str, section: str) -> None:
    """Append a dated section to a ``docs/`` record (created with its title)."""
    print(section)
    fresh = not os.path.exists(path)
    with open(path, "a") as fh:
        fh.write(f"# {title}\n\nSections are appended by `benchmarks/studies.py {study}` "
                 "and never edited.\n\n" if fresh else "\n")
        fh.write(section)


def serving_layers(reps: int, baseline=None) -> None:
    """ROADMAP 1: the ``serve_read`` request set timed at each boundary
    of the serving stack, ``baseline`` (a checkout) beside this tree,
    alternating child processes (BLAS pinned to one thread, as the suite
    pins it) — so each layer's cost is a subtraction.  Plus the probe: a
    table read through the tree's frontend (gate, or pool hop) against
    the same read inline on the HTTP thread, and the server-side phase
    split.  Appends a dated section to docs/serving-read.md and prints it."""
    sys.path.insert(0, os.path.join(BENCH_DIR, "suite"))
    from suite_harness import environment

    trees = {"change": os.path.join(BENCH_DIR, "..", "src")}
    if baseline:
        trees = {"parent": os.path.join(baseline, "src"), **trees}
    runs = {name: [] for name in trees}
    for _ in range(reps):
        for name, src in trees.items():
            runs[name].append(_child_json(
                [sys.executable, "-c", "import studies; studies._serving_layers_child()"],
                src, cwd=BENCH_DIR,
            ))

    def med(name, key):
        return float(np.median([r[key] for r in runs[name]]))

    box = environment(0)
    lines = [
        f"## {datetime.date.today()} — {box['cpu_model']}, {box['nproc']} CPUs, "
        f"{reps} alternating runs per tree",
        "",
        f"`serve_read` request set: ogbn-papers {SERVE_READ_SCALE:g}, the first "
        f"{runs['change'][0]['requests']} requests of seed 0, one caller, closed loop, "
        "each boundary from a cold result cache (the suite's traced replay). "
        "p50 µs, median over runs.",
        "",
        "| boundary | " + " | ".join(f"{name} µs" for name in trees)
        + (" | change / parent |" if baseline else " |"),
        "| --- " * (len(trees) + 1 + bool(baseline)) + "|",
    ]
    for label, key in LAYERS:
        cells = [f"{med(name, key):.0f}" for name in trees]
        if baseline:
            cells.append(f"{med('change', key) / med('parent', key):.2f}")
        lines.append(f"| {label} | " + " | ".join(cells) + " |")
    lines += [
        "",
        "Probe, gate vs inline: a table read (`PredictionService(engine)`) over "
        "in-process HTTP, one keep-alive client, run through the tree's "
        "`ServingFrontend.call` (the admission gate; on a tree with the worker "
        "pool, the hop to a worker and back) or inline on the handler thread "
        "with no frontend; the two alternate request by request.",
        "",
        "| tree | gate µs | inline µs | gate − inline µs |",
        "| --- | --- | --- | --- |",
    ]
    for name in trees:
        gate, inline = med(name, "probe.gate_p50_us"), med(name, "probe.inline_p50_us")
        lines.append(f"| {name} | {gate:.0f} | {inline:.0f} | {gate - inline:.0f} |")
    lines += [
        "",
        "Server-side phases of the same reads (one keep-alive client, each "
        "method wrapped by a timer; `frontend.call` includes the table read).",
        "",
        "| tree | " + " | ".join(f"`{label}` µs" for label in PHASES) + " |",
        "| --- " * (len(PHASES) + 1) + "|",
    ]
    for name in trees:
        cells = [f"{med(name, f'phase.{label}_p50_us'):.0f}" for label in PHASES]
        lines.append(f"| {name} | " + " | ".join(cells) + " |")
    _append_section(SERVING_READ_DOC, "The serving read path, layer by layer",
                    "serving-layers", "\n".join(lines) + "\n")


SIM_THREADS_DOC = os.path.join(BENCH_DIR, "..", "docs", "sim-threads.md")
SUITE_METRICS = (  # name, the better direction
    ("op_p50_ms", "lower"), ("ops_per_s", "higher"), ("setup_s", "lower"), ("peak_rss_mb", "lower"),
)


def _sim_threads_child(reps: int) -> None:
    """One process on this tree: the ``train_dist`` trainer (ogbn-products
    0.5, P = 4 cd-5 Libra, sim) once its cd-5 pipeline has filled, epochs
    alternating between the rank pool forced to one thread (rank-order
    stepping) and its default size, the first arm swapped every rep;
    median epoch ms per arm, as one JSON line."""
    from repro.comm import communicator

    ds = load_dataset("ogbn-products", scale=0.5, seed=0)
    trainer = DistributedTrainer(ds, 4, algorithm="cd-5", config=_suite_config(ds, 0),
                                 partitioner="libra")
    for epoch in range(5):
        trainer.train_epoch(epoch)
    default = communicator._pool_size
    arms = {"1": lambda num_ranks: 1, str(default(4)): default}
    times = {name: [] for name in arms}
    for rep in range(reps):
        order = list(arms.items())[:: -1 if rep % 2 else 1]
        for i, (name, size) in enumerate(order):
            communicator._pool_size = size
            times[name].append(trainer.train_epoch(5 + 2 * rep + i).total_time_s)
    communicator._pool_size = default
    print(json.dumps({name: 1e3 * float(np.median(t)) for name, t in times.items()}))


def sim_threads(reps: int, baseline=None) -> None:
    """The sim driver's rank threads on ``train_dist``: this tree's epoch
    with the pool forced to one thread against its default size, and —
    with ``baseline`` (a checkout) — ``reps`` parent / change pairs (which
    side runs first alternates pair by pair) of each tree's own ``suite/run.py --workload train_dist``:
    medians, the paired ratio's median and the pairs the change won.
    Appends a dated section to docs/sim-threads.md and prints it."""
    sys.path.insert(0, os.path.join(BENCH_DIR, "suite"))
    from suite_harness import environment

    src = os.path.join(BENCH_DIR, "..", "src")
    arms = _child_json([sys.executable, "-c",
                        f"import studies; studies._sim_threads_child({reps})"], src, BENCH_DIR)
    box = environment(0)
    lines = [
        f"## {datetime.date.today()} — {box['cpu_model']}, {box['nproc']} CPUs",
        "",
        f"`train_dist` epoch (ogbn-products 0.5, P = 4 cd-5, sim), {reps} epochs per arm "
        "alternating after the cd-5 pipeline fills (the first arm swaps every rep), "
        "BLAS on one thread; median ms.",
        "",
        "| rank threads | epoch ms | vs 1 thread |",
        "| --- | --- | --- |",
    ]
    one = arms["1"]
    lines += [f"| {name} | {ms:.1f} | {ms / one:.2f} |" for name, ms in arms.items()]
    if baseline:
        trees = {"parent": baseline, "change": os.path.join(BENCH_DIR, "..")}
        runs = {name: [] for name in trees}
        for rep in range(reps):
            for name, root in list(trees.items())[:: -1 if rep % 2 else 1]:
                runs[name].append(_child_json(
                    [sys.executable, "benchmarks/suite/run.py", "--workload", "train_dist",
                     "--seed", "0", "--seconds", "10", "--trace", "0"],
                    os.path.join(root, "src"), cwd=root,
                )["metrics"])
        lines += [
            "",
            f"`suite/run.py --workload train_dist --trace 0`, {reps} parent / change "
            "pairs, the side that runs first alternating pair by pair, each tree's own "
            "frozen suite (`train_*` numbers are machine-speed scaled): median "
            "[quartiles] per tree.",
            "",
            "| metric | parent | change | paired change / parent | change better |",
            "| --- | --- | --- | --- | --- |",
        ]

        def quartiles(values):
            q1, q2, q3 = np.percentile(values, [25, 50, 75])
            return f"{q2:.4g} [{q1:.4g}–{q3:.4g}]"

        for metric, better in SUITE_METRICS:
            parent, change = ([r[metric]["value"] for r in runs[name]] for name in trees)
            ratios = [c / p for p, c in zip(parent, change)]
            wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(parent, change))
            lines.append(f"| `{metric}` | {quartiles(parent)} | {quartiles(change)} "
                         f"| {np.median(ratios):.3f} | {wins}/{reps} |")
    _append_section(SIM_THREADS_DOC, "Sim ranks on threads", "sim-threads",
                    "\n".join(lines) + "\n")


REFRESH_DOC = os.path.join(BENCH_DIR, "..", "docs", "refresh.md")
#: ``serve_mixed``'s graph and the ``serve_read`` replay's
REFRESH_SCALES = (0.25, 0.5)
#: affected fractions the seed sets are grown to (last layer)
REFRESH_TARGETS = (0.05, 0.1, 0.25, 0.4, 0.55, 0.7, 0.8, 0.85, 0.89, 0.91, 0.93, 0.96, 1.0)
REFRESH_TIMED = 3  # updates timed per rung in one child, median kept


def _refresh_child(scale: float) -> None:
    """One process on one tree: the ``serve_mixed`` model (ogbn-papers at
    ``scale``, one epoch) behind an ``IncrementalRefresher`` built as
    ``repro serve`` builds it, fed feature updates whose seed sets are
    prefixes of one seeded vertex order grown until the last layer's
    affected set reaches each of ``REFRESH_TARGETS``.  Per rung: the
    affected count per layer, the path the tree took, the median update
    ms, and whether every table equals a from-scratch forward; plus the
    median ``precompute()`` ms.  One JSON line."""
    from repro.serving import IncrementalRefresher, InferenceEngine, affected_sets
    from repro.serving.engine import full_graph_forward

    ds = load_dataset("ogbn-papers", scale=scale, seed=0)
    cfg = TrainConfig(num_threads=1, seed=0, eval_every=0).for_dataset("ogbn-papers")
    trainer = Trainer(ds, cfg)
    trainer.train_epoch(0)
    engine = InferenceEngine(ds, trainer.model, cfg).precompute()
    refresher = IncrementalRefresher(engine)
    n, layers = engine.num_vertices, engine.num_layers
    # fewest out-edges first (ties in seeded order): one vertex of the
    # hub-heavy tail alone reaches a third of the graph in three hops
    shuffled = np.random.default_rng(0).permutation(n)
    out_degree = np.bincount(engine.graph.indices, minlength=n)
    order = shuffled[np.argsort(out_degree[shuffled], kind="stable")]

    def reach(k: int) -> list:
        return [a.size for a in affected_sets(engine.graph, order[:k], layers)]

    rng = np.random.default_rng(1)

    def rows_for(ids):
        return rng.standard_normal((ids.size, ds.feature_dim)).astype(np.float32)

    refresher.update_features(order[:1], rows_for(order[:1]))  # warm-up
    precompute_ms = _median_ms(engine.precompute, REFRESH_TIMED)
    rungs = []
    for target in REFRESH_TARGETS:
        lo, hi = 1, n  # smallest prefix whose reach is at least the target
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (mid + 1, hi) if reach(mid)[-1] < target * n else (lo, mid)
        if rungs and rungs[-1]["seeds"] == lo:
            continue  # one added vertex overshot this target and the next
        ids = order[:lo]
        times, paths = [], set()
        for _ in range(REFRESH_TIMED):
            rows = rows_for(ids)
            t0 = time.perf_counter()
            stats = refresher.update_features(ids, rows)
            times.append(time.perf_counter() - t0)
            paths.add(getattr(stats, "mode", "incremental"))
        logits, inputs = full_graph_forward(engine.model, engine.graph, engine.features,
                                            capture_inputs=True)
        equal = np.array_equal(engine.logits, logits) and all(
            np.array_equal(a, b) for a, b in zip(engine.layer_inputs, inputs))
        rungs.append({"seeds": int(lo), "per_layer": reach(lo), "path": "/".join(sorted(paths)),
                      "ms": 1e3 * float(np.median(times)), "equal": bool(equal)})
    print(json.dumps({"scale": scale, "N": n, "E": int(engine.graph.num_edges),
                      "layers": layers, "precompute_ms": precompute_ms, "rungs": rungs}))


def refresh(reps: int, baseline=None) -> None:
    """ROADMAP 2: the refresh path over an affected-fraction ladder on
    papers 0.25 and 0.5 — this tree beside ``baseline`` (a checkout,
    whose refresher routes an update past ``full_threshold`` 0.25 to a
    full precompute), alternating child processes, the side that runs
    first swapping rep by rep.  Appends a dated section to
    docs/refresh.md and prints it."""
    sys.path.insert(0, os.path.join(BENCH_DIR, "suite"))
    from suite_harness import environment

    trees = {"change": os.path.join(BENCH_DIR, "..", "src")}
    if baseline:
        trees = {"parent": os.path.join(baseline, "src"), **trees}
    box = environment(0)
    lines = [
        f"## {datetime.date.today()} — {box['cpu_model']}, {box['nproc']} CPUs, "
        f"{reps} alternating runs per tree",
        "",
        "Feature updates on the `serve_mixed` model (ogbn-papers, one epoch), "
        "through `IncrementalRefresher(engine)` as `repro serve` builds it. Seed "
        "sets are prefixes of one seeded vertex order, grown until the last "
        "layer's affected set reaches each fraction. Each run times "
        f"{REFRESH_TIMED} updates per rung (median); the table gives the median "
        "over runs, the paired change / parent ratio's median and the runs the "
        "change won. *equal*: every table equals a from-scratch forward after "
        "the rung, in every run. *change / precompute()*: against a bare "
        "`precompute()` on the same tree; an update also writes its feature "
        "rows and walks its affected sets, so a whole-graph update sits above 1.",
    ]
    for scale in REFRESH_SCALES:
        runs = {name: [] for name in trees}
        for rep in range(reps):
            for name, src in list(trees.items())[:: -1 if rep % 2 else 1]:
                runs[name].append(_child_json(
                    [sys.executable, "-c", f"import studies; studies._refresh_child({scale})"],
                    src, cwd=BENCH_DIR,
                ))
        first = runs["change"][0]
        full = {name: float(np.median([r["precompute_ms"] for r in rs]))
                for name, rs in runs.items()}
        lines += [
            "",
            f"### papers {scale:g}: N = {first['N']:,}, E = {first['E']:,}, "
            f"{first['layers']} layers; `precompute()` "
            + ", ".join(f"{name} {ms:.1f} ms" for name, ms in full.items()),
            "",
            "| seeds | affected fraction per layer | "
            + " | ".join(f"{name} path | {name} ms" for name in trees)
            + (" | change / parent | change better" if baseline else "")
            + " | change / precompute() | equal |",
            "| --- " * (4 + 2 * len(trees) + 2 * bool(baseline)) + "|",
        ]
        for i, rung in enumerate(first["rungs"]):
            ms = {name: [r["rungs"][i]["ms"] for r in rs] for name, rs in runs.items()}
            cells = [str(rung["seeds"]),
                     " / ".join(f"{c / first['N']:.2f}" for c in rung["per_layer"])]
            for name, rs in runs.items():
                cells += [rs[0]["rungs"][i]["path"], f"{np.median(ms[name]):.1f}"]
            if baseline:
                ratios = [c / p for p, c in zip(ms["parent"], ms["change"])]
                wins = sum(c < p for p, c in zip(ms["parent"], ms["change"]))
                cells += [f"{np.median(ratios):.2f}", f"{wins}/{reps}"]
            cells.append(f"{np.median(ms['change']) / full['change']:.2f}")
            equal = all(r["rungs"][i]["equal"] for rs in runs.values() for r in rs)
            cells.append("yes" if equal else "**no**")
            lines.append("| " + " | ".join(cells) + " |")
    _append_section(REFRESH_DOC, "One refresh path: row-subset recompute vs full precompute",
                    "refresh", "\n".join(lines) + "\n")


FEATURE_GATHER_DOC = os.path.join(BENCH_DIR, "..", "docs", "feature-gather.md")
#: ogbn-papers scales: a quarter of, equal to and four times ``train_minibatch``'s
FEATURE_GATHER_SCALES = (0.25, 1.0, 4.0)
#: arm -> the tree it runs on; a hot-set arm is the baseline tree's
#: ``FeatureStore`` with that admission policy at ``train_minibatch``'s
#: hot fraction, "mmap" is this tree's store
FEATURE_GATHER_ARMS = {"static": "parent", "lru": "parent", "mmap": "change"}
FEATURE_GATHER_FRONTIERS, FEATURE_GATHER_ROUNDS, FEATURE_GATHER_STEPS = 30, 3, 20


def _feature_gather_child(scale: float, arm: str) -> None:
    """One process on one tree: ``train_minibatch``'s trainer (ogbn-papers
    at ``scale``, seed 0, fan-outs 10-10-10, batch 256, one kernel
    thread) over an mmap store — the hot-set ``arm`` ("static" / "lru",
    hot fraction 0.1) on a tree that has one, the bare map ("mmap")
    otherwise.  Samples ``FEATURE_GATHER_FRONTIERS`` input frontiers,
    checks every gather against ``features[ids]`` once, then times
    ``FEATURE_GATHER_ROUNDS`` rounds of gathers of them all and
    ``FEATURE_GATHER_STEPS`` ``train_step`` calls.  One JSON line."""
    ds = load_dataset("ogbn-papers", scale=scale, seed=0)
    store_dir = tempfile.mkdtemp(prefix="feature-gather-")
    try:
        hot_set = {} if arm == "mmap" else dict(
            degrees=ds.graph.in_degrees(), hot_fraction=0.1, policy=arm)
        store = FeatureStore.create(store_dir, ds.features, **hot_set)
        cfg = TrainConfig(num_threads=1, seed=0, eval_every=0).for_dataset(ds.name)
        trainer = MiniBatchTrainer(ds, [10, 10, 10], batch_size=256, config=cfg,
                                   feature_store=store)
        train = np.flatnonzero(ds.train_mask)
        seed_rng = np.random.default_rng([0, 3])
        frontiers = [trainer.sampler.sample(seed_rng.choice(train, size=256, replace=False))
                     .input_vertices for _ in range(FEATURE_GATHER_FRONTIERS)]
        features = np.asarray(ds.features)
        equal = all(np.array_equal(store.gather(ids), features[ids]) for ids in frontiers)
        hot0 = dict(store.stats()["hot"])
        gather_ms = []
        for _ in range(FEATURE_GATHER_ROUNDS):
            for ids in frontiers:
                t0 = time.perf_counter()
                store.gather(ids)
                gather_ms.append(1e3 * (time.perf_counter() - t0))
        hot = store.stats()["hot"]
        hit_rate = None  # a store without a hot tier has none to report
        if arm != "mmap":
            hit_rate = (hot["hits"] - hot0["hits"]) / max(hot["lookups"] - hot0["lookups"], 1)
        step_ms = []
        for i in range(5 + FEATURE_GATHER_STEPS):
            seeds = seed_rng.choice(train, size=256, replace=False)
            t0 = time.perf_counter()
            trainer.train_step(seeds)
            if i >= 5:
                step_ms.append(1e3 * (time.perf_counter() - t0))
        print(json.dumps({
            "scale": scale, "arm": arm, "N": ds.num_vertices, "equal": bool(equal),
            "gather_ms": gather_ms, "hit_rate": hit_rate,
            "predicted_hit_rate":
                store.decision.predicted_hit_rate if arm == "static" else None,
            "rows": float(np.median([ids.size for ids in frontiers])),
            "step_ms": float(np.median(step_ms)),
        }))
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)


def feature_gather(reps: int, baseline=None) -> None:
    """The mmap tier's gather with and without a hot-set row cache in
    front of it, on ``train_minibatch``'s configuration at ogbn-papers
    0.25, 1 and 4: ``baseline`` (a checkout that still has the hot set)
    runs the static and LRU arms, this tree the bare map.  ``reps``
    child processes per arm and scale, the arms alternating and the
    first arm rotating rep by rep.  Appends a dated section to
    docs/feature-gather.md and prints it."""
    sys.path.insert(0, os.path.join(BENCH_DIR, "suite"))
    from suite_harness import environment

    trees = {"change": os.path.join(BENCH_DIR, "..", "src")}
    if baseline:
        trees["parent"] = os.path.join(baseline, "src")
    arms = [arm for arm, tree in FEATURE_GATHER_ARMS.items() if tree in trees]
    box = environment(0)
    lines = [
        f"## {datetime.date.today()} — {box['cpu_model']}, {box['nproc']} CPUs, "
        f"{reps} runs per arm",
        "",
        "`train_minibatch`'s configuration (ogbn-papers, seed 0, fan-outs 10-10-10, "
        "batch 256, hot fraction 0.1 where there is a hot set). Each run samples "
        f"{FEATURE_GATHER_FRONTIERS} input frontiers, checks every gather against "
        f"`features[ids]`, then times {FEATURE_GATHER_ROUNDS} rounds of gathers of "
        f"them all and {FEATURE_GATHER_STEPS} `MiniBatchTrainer.train_step` calls. "
        "Runs alternate between arms, the first arm rotating run by run. *static* "
        "and *lru* are the parent's `HotSetCache` policies, *mmap* this tree's "
        "`backing[ids]`. Gather: quartiles over every timed gather of every run; "
        "hit rate over the timed gathers (static: the cachesim prediction in "
        "brackets); step: median over runs of each run's p50.",
        "",
        "| papers | N | arm | gather ms p50 [q25–q75] | vs mmap | hit rate | "
        "rows per frontier | train_step p50 ms | equal |",
        "| --- " * 9 + "|",
    ]
    for scale in FEATURE_GATHER_SCALES:
        runs = {arm: [] for arm in arms}
        for rep in range(reps):
            shift = rep % len(arms)
            for arm in arms[shift:] + arms[:shift]:
                runs[arm].append(_child_json(
                    [sys.executable, "-c",
                     f"import studies; studies._feature_gather_child({scale}, {arm!r})"],
                    trees[FEATURE_GATHER_ARMS[arm]], cwd=BENCH_DIR,
                ))
        mmap_p50 = float(np.median([ms for r in runs["mmap"] for ms in r["gather_ms"]]))
        for arm in arms:
            rs = runs[arm]
            q1, q2, q3 = np.percentile([ms for r in rs for ms in r["gather_ms"]], [25, 50, 75])
            hit = "—"
            if rs[0]["hit_rate"] is not None:
                hit = f"{np.median([r['hit_rate'] for r in rs]):.3f}"
                if rs[0]["predicted_hit_rate"] is not None:
                    hit += f" ({rs[0]['predicted_hit_rate']:.3f})"
            equal = "yes" if all(r["equal"] for r in rs) else "**no**"
            lines.append(
                f"| {scale:g} | {rs[0]['N']:,} | {arm} | {q2:.2f} [{q1:.2f}–{q3:.2f}] "
                f"| {q2 / mmap_p50:.2f} | {hit} | {np.median([r['rows'] for r in rs]):,.0f} "
                f"| {np.median([r['step_ms'] for r in rs]):.1f} | {equal} |"
            )
    _append_section(FEATURE_GATHER_DOC, "The mmap gather with and without a hot-set tier",
                    "feature-gather", "\n".join(lines) + "\n")


GRAPH_BUILD_DOC = os.path.join(BENCH_DIR, "..", "docs", "graph-build.md")
#: ``train_dense``'s graph, and a build past 65,536 vertices (two radix digits)
GRAPH_BUILD_CASES = (("reddit", 4.0), ("ogbn-papers", 2.5))
#: the recipe stages, as ``repro.graph.datasets`` names them
GRAPH_BUILD_STAGES = ("sbm_graph", "rmat_graph", "_union", "to_bidirected")
#: serving's per-update graph work: ``serve_mixed``'s graph, 4-vertex changes
GRAPH_BUILD_SERVE_SCALE, GRAPH_BUILD_CHANGES = 0.25, 30


def _graph_build_child(name: str, scale: float) -> None:
    """One process on one tree: serving's per-update graph work on papers
    0.25 (``affected_sets`` of random 4-vertex changes, and the reverse an
    edge update rebuilds), then ``load_dataset(name, scale)`` with each
    recipe stage timed where the recipe calls it, ``CSRGraph.reverse``,
    the suite trainer's epoch 0 (which builds the reverse again for its
    backward) and a digest of the graph and its reverse.  One JSON line."""
    import hashlib

    from repro.graph import datasets
    from repro.serving.refresh import affected_sets

    serve = load_dataset("ogbn-papers", scale=GRAPH_BUILD_SERVE_SCALE, seed=0)
    layers = _suite_config(serve, 0).num_layers
    rng = np.random.default_rng(0)
    affected_ms, reverse_ms, reached = [], [], 0
    affected_sets(serve.graph, np.arange(4), layers)  # builds the cached reverse
    for _ in range(GRAPH_BUILD_CHANGES):
        changed = rng.choice(serve.num_vertices, 4, replace=False)
        t0 = time.perf_counter()
        reached += int(affected_sets(serve.graph, changed, layers)[-1].size)
        t1 = time.perf_counter()
        serve.graph.reverse()
        affected_ms.append(1e3 * (t1 - t0))
        reverse_ms.append(1e3 * (time.perf_counter() - t1))

    seconds = {}

    def timed(stage, fn):
        def run(*args, **kw):
            t0 = time.perf_counter()
            out = fn(*args, **kw)
            seconds[stage] = seconds.get(stage, 0.0) + time.perf_counter() - t0
            return out
        return run

    for stage in GRAPH_BUILD_STAGES:
        setattr(datasets, stage, timed(stage, getattr(datasets, stage)))
    ds = timed("load", load_dataset)(name, scale=scale, seed=0)
    rev = timed("reverse", ds.graph.reverse)()
    trainer = Trainer(ds, _suite_config(ds, 0))
    timed("epoch0", trainer.train_epoch)(0)
    h = hashlib.sha256()
    for g in (ds.graph, rev):
        for a in (g.indptr, g.indices, g.edge_ids):
            h.update(str(a.dtype).encode() + a.tobytes())
    print(json.dumps({
        "N": ds.num_vertices, "E": int(ds.graph.num_edges), "seconds": seconds,
        "digest": h.hexdigest(), "affected_ms": float(np.median(affected_ms)),
        "update_reverse_ms": float(np.median(reverse_ms)), "reached": reached,
    }))


def graph_build(reps: int, baseline=None) -> None:
    """Graph construction stage by stage on ``train_dense``'s reddit 4.0
    and on papers 2.5, this tree beside ``baseline`` (a checkout),
    alternating child processes with the side that runs first swapping
    rep by rep: quartiles per stage and tree, the paired change / parent
    ratio's median, the runs the change won, and whether every run of
    both trees built the same bytes.  Appends a dated section to
    docs/graph-build.md and prints it."""
    sys.path.insert(0, os.path.join(BENCH_DIR, "suite"))
    from suite_harness import environment

    trees = {"change": os.path.join(BENCH_DIR, "..", "src")}
    if baseline:
        trees = {"parent": os.path.join(baseline, "src"), **trees}
    box = environment(0)
    lines = [
        f"## {datetime.date.today()} — {box['cpu_model']}, {box['nproc']} CPUs, "
        f"{reps} alternating runs per tree",
        "",
        "`load_dataset(name, scale, seed=0)` with each recipe stage timed where "
        "the recipe calls it (`load` is the whole call), then a bare "
        "`CSRGraph.reverse()` and the suite trainer's epoch 0, which builds the "
        "reverse again for its backward. Seconds, median [quartiles] over runs. "
        "*equal*: the graph and its reverse (`indptr`, `indices`, `edge_ids`) "
        "hash the same in every run of every tree.",
    ]

    def quartiles(values):
        q1, q2, q3 = np.percentile(values, [25, 50, 75])
        return f"{q2:.3g} [{q1:.3g}–{q3:.3g}]"

    serving = {}
    for name, scale in GRAPH_BUILD_CASES:
        runs = {tree: [] for tree in trees}
        for rep in range(reps):
            for tree, src in list(trees.items())[:: -1 if rep % 2 else 1]:
                runs[tree].append(_child_json(
                    [sys.executable, "-c",
                     f"import studies; studies._graph_build_child({name!r}, {scale})"],
                    src, cwd=BENCH_DIR,
                ))
        for tree, rs in runs.items():
            serving.setdefault(tree, []).extend(rs)
        first = runs["change"][0]
        equal = len({r["digest"] for rs in runs.values() for r in rs}) == 1
        lines += [
            "",
            f"### {name} {scale:g}: N = {first['N']:,}, E = {first['E']:,}; "
            f"equal: {'yes' if equal else '**no**'}",
            "",
            "| stage | " + " | ".join(f"{tree} s" for tree in trees)
            + (" | change / parent | change better |" if baseline else " |"),
            "| --- " * (1 + len(trees) + 2 * bool(baseline)) + "|",
        ]
        for stage in GRAPH_BUILD_STAGES + ("load", "reverse", "epoch0"):
            if stage not in first["seconds"]:
                continue
            s = {tree: [r["seconds"][stage] for r in rs] for tree, rs in runs.items()}
            cells = [quartiles(s[tree]) for tree in trees]
            if baseline:
                pairs = list(zip(s["parent"], s["change"]))
                cells += [f"{np.median([c / p for p, c in pairs]):.2f}",
                          f"{sum(c < p for p, c in pairs)}/{reps}"]
            lines.append(f"| `{stage}` | " + " | ".join(cells) + " |")
    reached = {r["reached"] for rs in serving.values() for r in rs}
    lines += [
        "",
        f"### serving, papers {GRAPH_BUILD_SERVE_SCALE:g}: per update",
        "",
        f"{GRAPH_BUILD_CHANGES} random 4-vertex changes per run: `affected_sets` "
        "over the model's layers, and the `CSRGraph.reverse()` an edge update "
        "rebuilds. ms, median per run, then median [quartiles] over runs; "
        f"affected rows reached equal in every run: {'yes' if len(reached) == 1 else '**no**'}.",
        "",
        "| step | " + " | ".join(f"{tree} ms" for tree in trees) + " |",
        "| --- " * (1 + len(trees)) + "|",
    ]
    for key in ("affected_ms", "update_reverse_ms"):
        cells = [quartiles([r[key] for r in serving[tree]]) for tree in trees]
        lines.append(f"| `{key[:-3]}` | " + " | ".join(cells) + " |")
    _append_section(GRAPH_BUILD_DOC, "Graph construction, stage by stage", "graph-build",
                    "\n".join(lines) + "\n")


STUDIES = {
    "spmm-operand": spmm_operand,
    "kernel-plan": kernel_plan,
    "minibatch-step": minibatch_step,
    "project-first": project_first,
    "subnormals": subnormals,
    "serving-layers": serving_layers,
    "sim-threads": sim_threads,
    "refresh": refresh,
    "feature-gather": feature_gather,
    "graph-build": graph_build,
}
BASELINE_STUDIES = ("serving-layers", "sim-threads", "refresh", "feature-gather", "graph-build")

if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("study", choices=sorted(STUDIES))
    parser.add_argument("--reps", type=int, default=9)
    parser.add_argument("--part", choices=sorted(PROJECT_FIRST_PARTS),
                        help="project-first: only this table (default: all three)")
    parser.add_argument("--baseline", metavar="CHECKOUT",
                        help="serving-layers / sim-threads / refresh / feature-gather / "
                        "graph-build: "
                        "a checkout to measure beside this tree")
    args = parser.parse_args()
    if args.part and args.study != "project-first":
        parser.error("--part belongs to project-first")
    if args.baseline and args.study not in BASELINE_STUDIES:
        parser.error("--baseline belongs to " + ", ".join(BASELINE_STUDIES))
    if args.part:
        project_first(args.reps, parts=(args.part,))
    elif args.baseline:
        STUDIES[args.study](args.reps, baseline=args.baseline)
    else:
        STUDIES[args.study](args.reps)
