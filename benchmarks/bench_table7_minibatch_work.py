"""Table 7 — Dist-DGL sampled aggregation work per hop / batch / socket.

Paper rows (OGBN-Products, batch 2000, fan-outs 15/10/5):
    hop-0: 2,000 verts x 15 x 256   = 0.007 B ops
    hop-1: 30,214 x 10 x 256        = 0.077 B ops
    hop-2: 233,692 x 5 x 100        = 0.116 B ops
    1 batch 0.202; 99 batches/socket -> 19.98; 16 sockets -> 1.41.

Counted here on a real sampled batch of the products stand-in at scale 2
(32k vertices, so 2,000 seeds do not already cover the graph):
``SampledBatch.work_ops``, each hop's sampled edges x width.  The paper's
verts x fan-out x feats is what a hop reaches when every frontier vertex
has at least fan-out in-edges; a hop samples ``min(in-degree, fan-out)``
per vertex (docs/models.md, Table 7 row).
"""

import math

import numpy as np
import pytest
from bench_utils import emit, table

from repro.graph.datasets import load_dataset
from repro.sampling import NeighborSampler

#: Table 7's configuration for OGBN-Products, hop-0 (the seeds) first
PAPER_BATCH_SIZE = 2000
PAPER_FANOUTS = (15, 10, 5)
PAPER_FEATURE_DIMS = (256, 256, 100)
PAPER_TRAIN_VERTICES = 196_615
PAPER_HOPS = [  # label, frontier vertices, B ops
    ("Hop-0", 2_000, 0.007),
    ("Hop-1", 30_214, 0.077),
    ("Hop-2", 233_692, 0.116),
]
PAPER_EPOCH = {1: (99, 19.98), 16: (7, 1.41)}  # sockets: (batches, B ops)


def test_table7_minibatch_work(benchmark):
    products = load_dataset("ogbn-products", scale=2.0, seed=0)
    g = products.graph
    seeds = np.random.default_rng(0).choice(
        products.num_vertices, size=PAPER_BATCH_SIZE, replace=False
    )
    sampler = NeighborSampler(g, PAPER_FANOUTS[::-1], seed=0)
    batch = sampler.sample(seeds)
    deg = g.in_degrees()
    rows = []
    counted = []
    hops = zip(PAPER_HOPS, batch.blocks[::-1], PAPER_FANOUTS, PAPER_FEATURE_DIMS)
    for (label, paper_verts, paper_bops), block, fanout, dim in hops:
        ops = block.num_sampled_edges * dim
        # exact: a hop keeps min(in-degree, fan-out) edges per frontier row
        assert ops == int(np.minimum(deg[block.dst_global], fanout).sum()) * dim
        # the paper's rows are its own vertices x fan-out x width, truncated
        assert paper_verts * fanout * dim / 1e9 == pytest.approx(paper_bops, abs=1e-3)
        counted.append(ops)
        rows.append([label, paper_verts, block.num_dst, fanout, dim, paper_bops,
                     round(ops / 1e9, 5)])
    assert batch.work_ops(PAPER_FEATURE_DIMS[::-1]) == sum(counted)

    lines = table(
        ["hop", "paper_verts", "verts", "fanout", "feats", "paper_Bops", "Bops"], rows
    )
    lines.append("")
    lines.append(f"stand-in: {products.summary()}; one batch of "
                 f"{PAPER_BATCH_SIZE} seeds, {sum(counted) / 1e9:.4f} B ops counted")
    for sockets, (batches, bops) in PAPER_EPOCH.items():
        assert math.ceil(PAPER_TRAIN_VERTICES / sockets / PAPER_BATCH_SIZE) == batches
        lines.append(f"paper, {sockets} socket(s): {batches} batches, {bops} B ops")
    emit("table7_minibatch_work", lines)

    benchmark(sampler.sample, seeds)
