"""Table 6 — per-partition peak memory and split-vertex share, OGBN-Papers.

Paper values (GB): at 32/64/128 partitions cd-0 199/124/78,
cd-5 311/196/120, 0c 180/112/70; split vertices 90/92/93%.

Measured here: the split-vertex share of Libra's partitions of the
papers stand-in.  The per-partition GB came from a memory model that
missed the measured per-rank peak RSS by up to 1.6× and did not order
the algorithms as the RSS did, so it was deleted (docs/models.md,
Table 6 row); the paper's GB are printed as data.
"""

import pytest
from bench_utils import emit, table

from repro.partition import build_partitions, libra_partition, partition_stats

PAPER = {
    32: {"cd-0": 199, "cd-5": 311, "0c": 180, "split%": 90},
    64: {"cd-0": 124, "cd-5": 196, "0c": 112, "split%": 92},
    128: {"cd-0": 78, "cd-5": 120, "0c": 70, "split%": 93},
}


def _split_share(graph, p):
    parted = build_partitions(graph, libra_partition(graph, p, seed=0), p)
    return partition_stats(parted).avg_split_fraction_per_partition


def test_table6_memory(papers_bench, benchmark):
    split_shares = {p: _split_share(papers_bench.graph, p) for p in PAPER}
    rows = [
        [p, PAPER[p]["cd-0"], PAPER[p]["cd-5"], PAPER[p]["0c"],
         round(100 * split_shares[p], 1), PAPER[p]["split%"]]
        for p in PAPER
    ]
    lines = table(
        ["P", "paper_cd-0_GB", "paper_cd-5_GB", "paper_0c_GB", "split%", "paper"], rows
    )
    emit("table6_memory", lines)

    assert all(s > 0.5 for s in split_shares.values())

    benchmark(_split_share, papers_bench.graph, 32)
