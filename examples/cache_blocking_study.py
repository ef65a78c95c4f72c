"""Single-socket cache-blocking study (paper Table 3 / Fig. 3 in miniature).

Sweeps the number of source blocks ``nB`` for the aggregation primitive
on a dense and a sparse stand-in, reporting simulated cache reuse,
modelled memory IO, measured kernel walltime, and the auto-tuner's pick.

Run:  python examples/cache_blocking_study.py
"""

import time

from repro import load_dataset
from repro.cachesim import cache_vectors_for, simulate_lru_reuse
from repro.cachesim.traffic import ap_traffic, choose_num_blocks
from repro.kernels import aggregate
from repro.kernels.blocked import BlockedGraph

PAPER_FV_BYTES = {"reddit": 232_965 * 602 * 4, "ogbn-products": 2_449_029 * 100 * 4}


def main() -> None:
    for name in ("reddit", "ogbn-products"):
        ds = load_dataset(name, scale=0.25, seed=0)
        cache = cache_vectors_for(
            ds.graph.num_src, ds.feature_dim, paper_fv_bytes=PAPER_FV_BYTES[name]
        )
        print(f"\n=== {ds.summary()} | pressure-scaled cache: {cache} vectors ===")
        print(f"{'nB':>4} {'reuse':>7} {'IO MB':>8} {'kernel ms':>10}")
        for nb in (1, 2, 4, 8, 16, 32, 64):
            reuse = simulate_lru_reuse(ds.graph, nb, cache).reuse
            io = ap_traffic(
                ds.graph, ds.feature_dim, num_blocks=nb, cache_vectors=cache
            ).total
            # blocks (an O(E) sort) and their SpMM operands (made by the first
            # pass) are built once per graph, as in the paper: time a later pass
            blocked = BlockedGraph.build(ds.graph, nb)
            aggregate(blocked, ds.features)
            t0 = time.perf_counter()
            aggregate(blocked, ds.features)
            wall = (time.perf_counter() - t0) * 1e3
            print(f"{nb:>4} {reuse:>7.1f} {io / 1e6:>8.1f} {wall:>10.1f}")
        auto = choose_num_blocks(ds.graph, ds.feature_dim, cache_vectors=cache)
        print(f"auto-tuner pick: nB={auto} (minimizes modelled total IO)")
    print(
        "\npaper contract: the dense graph has an interior reuse peak and a "
        "\nblocking sweet spot; the sparse graph stays flat — blocking cannot "
        "\nmanufacture reuse that the structure does not contain."
    )


if __name__ == "__main__":
    main()
