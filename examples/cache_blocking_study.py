"""Single-socket cache-blocking study (paper Table 3 / Fig. 3 in miniature).

Sweeps the number of source blocks ``nB`` for the aggregation primitive
on a dense and a sparse stand-in, reporting the exact LRU replay's cache
reuse and f_V / f_O rows fetched from memory beside the measured kernel
walltime (the median of 5 passes after a warm one).

Run:  python examples/cache_blocking_study.py
"""

import statistics
import time

from repro import load_dataset
from repro.cachesim import cache_vectors_for, simulate_lru_reuse
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
        print(f"{'nB':>4} {'reuse':>7} {'rows fetched':>13} {'kernel ms':>10}")
        best = (0.0, 1)
        for nb in (1, 2, 4, 8, 16, 32, 64):
            replay = simulate_lru_reuse(ds.graph, nb, cache)
            best = max(best, (replay.reuse, nb))
            # blocks (an O(E) sort) and their SpMM operands (made by the first
            # pass) are built once per graph, as in the paper: time later passes
            blocked = BlockedGraph.build(ds.graph, nb)
            aggregate(blocked, ds.features)
            walls = []
            for _ in range(5):
                t0 = time.perf_counter()
                aggregate(blocked, ds.features)
                walls.append(time.perf_counter() - t0)
            wall = statistics.median(walls) * 1e3
            fetched = replay.misses + replay.fo_reads
            print(f"{nb:>4} {replay.reuse:>7.1f} {fetched:>13} {wall:>10.1f}")
        print(f"highest replayed reuse: nB={best[1]}")
    print(
        "\npaper contract: the dense graph has an interior reuse peak and a "
        "\nblocking sweet spot; the sparse graph stays flat — blocking cannot "
        "\nmanufacture reuse that the structure does not contain."
    )


if __name__ == "__main__":
    main()
