"""Table 8 — DistGNN full-batch aggregation work per hop and per socket.

Paper rows (OGBN-Products): 1 socket 12.61 + 32.29 + 32.29 = 77.19 B ops,
|V| x average degree x width; 16 sockets (596,499 clone-inclusive
vertices each) total 18.80 B ops.

Counted here: each Libra partition's local edges x layer width on the
products stand-in, the adds its AP does.  At one socket that is the
paper's product exactly; split, the paper charges every clone the full
average degree, which counted edges do not (docs/models.md, Table 8 row).
"""

import pytest
from bench_utils import emit, table

from repro.partition import build_partitions, libra_partition

#: OGBN-Products in Tables 7-9, and the widths of its 3-layer GraphSAGE
PAPER_NUM_VERTICES = 2_449_029
PAPER_AVG_DEGREE = 51.5
PAPER_FEATURE_DIMS = (100, 256, 256)  # hop-2 .. hop-0 input widths
PAPER = {1: (2_449_029, 77.19), 16: (596_499, 18.80)}  # sockets: (verts/partition, B ops)


def test_table8_fullbatch_work(products_bench, benchmark):
    g = products_bench.graph
    width = sum(PAPER_FEATURE_DIMS)
    lines = []
    for sockets, (paper_verts, paper_bops) in PAPER.items():
        assert paper_verts * PAPER_AVG_DEGREE * width / 1e9 == pytest.approx(
            paper_bops, rel=0.02)
        asn = libra_partition(g, sockets, seed=0)
        parts = build_partitions(g, asn, sockets).parts
        edges = [p.num_edges for p in parts]
        # exact: every edge is aggregated on exactly one partition
        assert sum(edges) == g.num_edges
        if sockets == 1:  # one partition: |V| x average degree is its edge count
            assert parts[0].num_vertices == g.num_vertices
        busiest = max(parts, key=lambda p: p.num_edges)
        rows = [
            [f"Hop-{len(PAPER_FEATURE_DIMS) - 1 - i}", busiest.num_vertices,
             busiest.num_edges, dim, round(busiest.num_edges * dim / 1e9, 4)]
            for i, dim in enumerate(PAPER_FEATURE_DIMS)
        ]
        lines.append(f"--- {sockets} socket(s), busiest partition ---")
        lines += table(["hop", "verts", "local_edges", "feats", "B_ops"], rows)
        lines.append(f"counted total {busiest.num_edges * width / 1e9:.4f} B ops; "
                     f"paper {paper_bops} at {paper_verts:,} verts/partition")
        lines.append("")
    emit("table8_fullbatch_work", lines)

    benchmark(build_partitions, g, asn, 16)
