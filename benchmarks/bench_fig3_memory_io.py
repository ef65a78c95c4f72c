"""Fig. 3 — memory IO (read / written / total) and kernel time vs nB.

Paper: data read falls as blocking improves f_V reuse, data written grows
with the extra f_O passes; the best kernel time sits at the total-IO
minimum, further right for denser graphs.  The IO here is the exact LRU
replay of the blocked kernel's accesses (``simulate_lru_reuse``, the
cache pressure-scaled as in Table 3): reads are f_V and f_O rows fetched
on a miss plus the CSR index stream, writes are the f_O rows each pass
touches.
"""

import statistics
import time

import pytest
from bench_utils import emit, table

from repro.cachesim import cache_vectors_for, simulate_lru_reuse
from repro.kernels import aggregate
from repro.kernels.blocked import BlockedGraph

NBS = (1, 2, 4, 8, 16, 32, 64)
PAPER_FV_BYTES = {"reddit": 232_965 * 602 * 4, "ogbn-products": 2_449_029 * 100 * 4}
INDEX_BYTES = 8  # int64 indices, matching CSRGraph storage
#: timed passes per nB after the warm one; the kernel column is their median
PASSES = 5


def _io(graph, feature_dim, nb, cache):
    """(read, written) bytes of one blocked pass, from the LRU replay."""
    r = simulate_lru_reuse(graph, nb, cache)
    vec = feature_dim * 4
    read = ((r.misses + r.fo_reads) * vec + graph.num_edges * INDEX_BYTES
            + (graph.num_vertices + 1) * nb * INDEX_BYTES)
    return read, r.fo_accesses * vec


def _sweep(ds, name):
    cache = cache_vectors_for(
        ds.graph.num_src, ds.feature_dim, paper_fv_bytes=PAPER_FV_BYTES[name]
    )
    rows = []
    for nb in NBS:
        read, written = _io(ds.graph, ds.feature_dim, nb, cache)
        # blocks (an O(E) sort) and their SpMM operands (made by the first
        # pass) are built once per graph, as in the paper: time later passes
        blocked = BlockedGraph.build(ds.graph, nb)
        aggregate(blocked, ds.features)
        walls = []
        for _ in range(PASSES):
            t0 = time.perf_counter()
            aggregate(blocked, ds.features)
            walls.append(time.perf_counter() - t0)
        wall = statistics.median(walls)
        rows.append(
            [
                nb,
                round(read / 1e6, 1),
                round(written / 1e6, 1),
                round((read + written) / 1e6, 1),
                round(wall * 1e3, 1),
            ]
        )
    return rows


def test_fig3_memory_io(reddit_bench, products_bench, benchmark):
    lines = []
    optima = {}
    gains = {}
    for name, ds in [("reddit", reddit_bench), ("ogbn-products", products_bench)]:
        rows = _sweep(ds, name)
        lines.append(f"--- {name} ---")
        lines += table(
            ["nB", "read_MB", "written_MB", "total_MB", "kernel_ms"], rows
        )
        lines.append("")
        totals = [r[3] for r in rows]
        optima[name] = NBS[totals.index(min(totals))]
        gains[name] = totals[0] / min(totals)
    lines.append(f"total-IO optimum: {optima}")
    lines.append(
        f"IO reduction from blocking (IO@nB=1 / IO@best): "
        f"{ {k: round(v, 2) for k, v in gains.items()} }"
    )
    lines.append("contract: blocking cuts IO strongly on the dense graph,")
    lines.append("barely on the sparse one (paper Figs. 3-4)")
    emit("fig3_memory_io", lines)

    assert gains["reddit"] > 1.5, "dense graph must benefit from blocking"
    assert gains["reddit"] > 1.5 * gains["ogbn-products"]

    benchmark(_io, reddit_bench.graph, reddit_bench.feature_dim, 16, 1024)
