"""Fig. 5 — per-epoch time and speedup of cd-0 / cd-5 / 0c vs sockets.

The paper's curves are 2–128-socket wall-clock times on an HDR fabric;
this reproduction measures what a small box can run (docs/models.md has
why the old paper-scale epoch model was deleted):

1. **Executed validation**: the real distributed trainer runs all three
   algorithms at P = 4; its counted per-epoch communication bytes must
   order cd-0 > cd-5 > 0c.
2. **Measured wall-clock scaling** (CLI mode): ``python
   benchmarks/bench_fig5_scaling.py --backend shm`` trains on real
   processes (one per rank over the shared-memory backend) and reports
   *measured* per-epoch time and speedup at 1/2/4 ranks; ``--backend
   sim`` runs the same protocol on the lockstep simulator for the serial
   reference.

Paper contract: 0c fastest / cd-0 slowest everywhere.
"""

import pytest
from bench_utils import emit, table

from repro.core import DistributedTrainer, TrainConfig

ALGOS = ("cd-0", "cd-5", "0c")


def test_fig5_executed_validation(reddit_bench, benchmark):
    """Run the real trainer at P=4: counted comm bytes must order
    cd-0 > cd-5 > 0c and all must train."""
    cfg = TrainConfig(
        num_layers=2, hidden_features=16, learning_rate=0.01, eval_every=0, seed=0
    )
    rows = []
    bytes_per_epoch = {}
    for algo in ALGOS:
        dt = DistributedTrainer(reddit_bench, 4, algorithm=algo, config=cfg)
        stats = [dt.train_epoch(e) for e in range(7)]
        steady = stats[6]
        bytes_per_epoch[algo] = steady.comm_bytes
        rows.append(
            [
                algo,
                round(steady.loss, 3),
                round(steady.comm_bytes / 1e6, 2),
                round(steady.local_agg_time_s * 1e3, 1),
                round(steady.remote_agg_time_s * 1e3, 1),
            ]
        )
    lines = table(
        ["algorithm", "loss@7", "comm_MB/epoch", "LAT_ms", "RAT_ms"], rows
    )
    emit("fig5_executed_validation", lines)
    assert bytes_per_epoch["0c"] < bytes_per_epoch["cd-5"] < bytes_per_epoch["cd-0"]

    dt = DistributedTrainer(reddit_bench, 4, algorithm="0c", config=cfg)
    benchmark(dt.train_epoch, 0)


# -- measured wall-clock mode (CLI) -------------------------------------------


def measured_scaling(
    backend: str,
    ranks=(1, 2, 4),
    epochs: int = 6,
    dataset: str = "reddit",
    scale: float = 0.2,
    algorithms=ALGOS,
):
    """Train for real at each rank count and report measured epoch times.

    Per-epoch wall-clock averages skip the warm-up epoch (the paper's
    protocol); speedups are against the same algorithm at the *first*
    entry of ``ranks`` (the 1-rank serial baseline with the default
    list).  On the shm backend the measurement is genuinely parallel —
    one OS process per rank, cd-r overlapping communication with
    computation.
    """
    import os

    from repro.graph.datasets import load_dataset

    ds = load_dataset(dataset, scale=scale, seed=0)
    cfg = TrainConfig(
        num_layers=2, hidden_features=16, learning_rate=0.01,
        eval_every=0, seed=0, backend=backend,
    )
    cores = os.cpu_count() or 1
    lines = [
        f"measured wall-clock scaling — backend={backend}, "
        f"{cores} cores, {ds.summary()}",
        "",
    ]
    payload = {
        "backend": backend,
        "dataset": dataset,
        "cpu_cores": cores,
        "base_ranks": ranks[0],
        "rows": [],
    }
    base: dict = {}
    rows = []
    for p in ranks:
        entry = [p]
        for algo in algorithms:
            trainer = DistributedTrainer(ds, p, algorithm=algo, config=cfg)
            result = trainer.fit(num_epochs=epochs)
            t = result.avg_epoch_time_s
            base.setdefault(algo, t)
            speedup = base[algo] / t if t else 0.0
            entry += [round(t * 1e3, 1), round(speedup, 2)]
            payload["rows"].append(
                {
                    "ranks": p,
                    "algorithm": algo,
                    "epoch_s": t,
                    "speedup_vs_base": speedup,
                    "comm_bytes_per_epoch": (
                        result.epochs[-1].comm_bytes if result.epochs else 0
                    ),
                }
            )
        rows.append(entry)
    header = ["ranks"]
    for algo in algorithms:
        header += [f"{algo}_ms", "x"]
    lines += table(header, rows)
    lines.append("")
    lines.append(
        f"speedup is vs the same algorithm at {ranks[0]} rank(s); shm "
        "measures real multi-process parallelism (bounded by the "
        "machine's core count above), sim runs the ranks on threads in "
        "one process (at most one per core, so past the core count its "
        "per-epoch time grows with P)"
    )
    emit(f"fig5_measured_{backend}", lines)
    return payload


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--backend", choices=("sim", "shm"), default="shm")
    parser.add_argument("--ranks", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument("--epochs", type=int, default=6)
    parser.add_argument("--dataset", default="reddit")
    parser.add_argument("--scale", type=float, default=0.2)
    args = parser.parse_args(argv)
    measured_scaling(
        args.backend,
        ranks=tuple(args.ranks),
        epochs=args.epochs,
        dataset=args.dataset,
        scale=args.scale,
    )
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
