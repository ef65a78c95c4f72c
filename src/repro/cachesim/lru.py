"""Exact trace-driven LRU cache at feature-vector granularity.

Models the socket's last-level cache as a fully-associative LRU holding
whole feature vectors (one vector = one "line"; the paper reasons at this
granularity too: "a feature vector accessed once and brought into cache
may get thrashed out before it is needed again").

The simulated trace is exactly the access pattern of the blocked AP
kernel (Alg. 2): for each source block, destinations are scanned in order
and each neighbour's ``f_V`` row is touched.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
from repro.kernels.blocked import BlockedGraph


class LRUFeatureCache:
    """Fully-associative LRU over integer keys (feature-vector ids).

    Counter conservation (pinned by
    ``tests/cachesim/test_lru_properties.py``):
    ``lookups == hits + misses`` and ``occupancy == misses - evictions``
    hold at every instant, under any interleaving of :meth:`access` and
    :meth:`access_many`.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._slots: "OrderedDict[int, None]" = OrderedDict()
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def access(self, key: int) -> bool:
        """Touch ``key``; returns True on hit."""
        slots = self._slots
        self.lookups += 1
        if key in slots:
            slots.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        if len(slots) >= self.capacity:
            slots.popitem(last=False)
            self.evictions += 1
        slots[key] = None
        return False

    def access_many(self, keys: np.ndarray) -> int:
        """Touch a sequence of keys; returns the number of misses added."""
        before = self.misses
        for key in keys.tolist():
            self.access(key)
        return self.misses - before

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def occupancy(self) -> int:
        """Keys currently resident (``== misses - evictions``)."""
        return len(self._slots)

    def reset(self) -> None:
        self._slots.clear()
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0


@dataclass(frozen=True)
class LRUReuseResult:
    """Reuse statistics of one blocked-kernel simulation.

    ``reuse`` follows the paper's Table 3 accounting: edge accesses per
    feature row *fetched from memory*, where fetches include both ``f_V``
    gather misses and the ``f_O`` rows re-read on every block pass.  The
    f_O term is what makes reuse fall again beyond the sweet-spot nB
    ("each additional pass of f_O adds to BW requirement", Section 4.2).
    ``fv_reuse`` is the gather-only variant.  ``fo_accesses`` counts the
    f_O rows each pass touches: the rows Fig. 3 charges as written.
    """

    num_blocks: int
    cache_vectors: int
    accesses: int
    misses: int
    fo_reads: int = 0
    fo_accesses: int = 0

    @property
    def reuse(self) -> float:
        """Paper Table 3 metric: accesses / (f_V misses + f_O pass reads)."""
        denom = self.misses + self.fo_reads
        return self.accesses / denom if denom else float("inf")

    @property
    def fv_reuse(self) -> float:
        """Gather-only reuse: accesses per f_V memory fetch."""
        return self.accesses / self.misses if self.misses else float("inf")

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


def _block_trace(block: CSRGraph, fo_offset: int) -> np.ndarray:
    """Interleaved access trace of one block pass.

    For each destination row with edges in the block: its neighbours'
    ``f_V`` rows, then the ``f_O`` row itself (write-allocate).  The f_O
    keys are offset past the f_V id space.  This pollution is what makes
    cache reuse *fall* beyond the sweet-spot nB in the paper's Table 3 —
    every extra pass streams the output matrix through the cache.
    """
    indptr, indices = block.indptr, block.indices
    row_sizes = np.diff(indptr)
    rows = np.flatnonzero(row_sizes)
    trace = np.empty(indices.size + rows.size, dtype=np.int64)
    # position of each row's f_O access: after its last neighbour, shifted
    # by the number of earlier f_O accesses already inserted.
    fo_pos = indptr[rows + 1] + np.arange(rows.size)
    mask = np.zeros(trace.size, dtype=bool)
    mask[fo_pos] = True
    trace[~mask] = indices
    trace[mask] = fo_offset + rows
    return trace


def simulate_lru_reuse(
    graph: CSRGraph,
    num_blocks: int,
    cache_vectors: int,
    include_outputs: bool = True,
) -> LRUReuseResult:
    """Replay the blocked AP's access trace through an LRU cache.

    Parameters
    ----------
    graph:
        Destination-major adjacency.
    num_blocks:
        ``nB`` of Alg. 2; 1 = unblocked.
    cache_vectors:
        Cache capacity in feature vectors (see :func:`cache_vectors_for`
        for hardware-calibrated values).
    include_outputs:
        Interleave the ``f_O`` write-allocate accesses (realistic; the
        pure-``f_V`` mode isolates the gathers).

    Only ``f_V`` accesses count toward the reuse statistic, matching the
    paper's metric; ``f_O`` accesses occupy cache but are not counted.
    """
    blocked = BlockedGraph.build(graph, num_blocks)
    cache = LRUFeatureCache(cache_vectors)
    fv_limit = graph.num_src
    fv_accesses = 0
    fv_misses = 0
    fo_reads = 0
    fo_accesses = 0
    for block in blocked.blocks:
        trace = (
            _block_trace(block, fv_limit) if include_outputs else block.indices
        )
        for key in trace.tolist():
            miss = not cache.access(key)
            if key < fv_limit:
                fv_accesses += 1
                fv_misses += miss
            else:
                fo_accesses += 1
                fo_reads += miss
    return LRUReuseResult(
        num_blocks=num_blocks,
        cache_vectors=cache_vectors,
        accesses=fv_accesses,
        misses=fv_misses,
        fo_reads=fo_reads,
        fo_accesses=fo_accesses,
    )


#: Paper hardware: Xeon 8280, 38.5 MB shared L3 per socket.
XEON_8280_LLC_BYTES = 38.5 * 2**20


def cache_vectors_for(
    num_vertices: int,
    feature_dim: int,
    feature_bytes: int = 4,
    llc_bytes: float = XEON_8280_LLC_BYTES,
    paper_fv_bytes: float = None,
) -> int:
    """Cache capacity in feature vectors, preserving the paper's pressure.

    On the paper's hardware what matters is the ratio ``|f_V| / LLC``
    (Reddit: 561 MB / 38.5 MB ≈ 14.6×).  Our stand-in graphs are smaller,
    so simulating the literal 38.5 MB would make everything cache-resident
    and erase the blocking phenomenon.  When ``paper_fv_bytes`` is given we
    scale the simulated cache to keep the same pressure ratio; otherwise
    the literal capacity is used.
    """
    vec_bytes = feature_dim * feature_bytes
    if paper_fv_bytes is not None:
        ratio = paper_fv_bytes / llc_bytes
        fv_bytes = num_vertices * vec_bytes
        effective = fv_bytes / ratio
    else:
        effective = llc_bytes
    return max(int(effective / vec_bytes), 1)
