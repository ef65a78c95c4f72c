"""Closed-form cache model for the blocked aggregation primitive.

For each source block ``b`` the kernel touches ``E_b`` edges drawing from
``A_b`` distinct ``f_V`` rows.  With a cache of ``C`` vectors:

- every distinct row pays one cold miss: ``A_b`` misses;
- if the active set exceeds the cache (``A_b > C``), the remaining
  ``E_b - A_b`` re-accesses hit with probability ``≈ C / A_b`` (the
  stationary hit rate of a cache that can hold a ``C/A_b`` fraction of a
  uniformly revisited working set), so
  ``misses_b = A_b + (E_b - A_b) * (1 - C / A_b)``.

Summing over blocks gives total misses; reuse = ``E / Σ misses_b``.  This
reproduces the Table 3 trends — reuse rises with ``nB`` until blocks fit
in cache, then falls as cold misses repeat across blocks for dense graphs,
while staying flat ≈2 for very sparse graphs — and is cheap enough for the
auto-tuner to sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.graph.builders import sorted_unique
from repro.graph.csr import CSRGraph
from repro.kernels.blocked import block_bounds


@dataclass(frozen=True)
class BlockAccessProfile:
    """Access statistics of one source block of Alg. 2."""

    block_id: int
    num_edges: int
    distinct_sources: int
    touched_destinations: int


def block_access_profiles(
    graph: CSRGraph, num_blocks: int
) -> List[BlockAccessProfile]:
    """Per-block (E_b, A_b, rows-touched) in one vectorized pass."""
    bounds = block_bounds(graph.num_src, num_blocks)
    block_size = max(int(bounds[1] - bounds[0]), 1) if num_blocks > 1 else graph.num_src
    src, dst, _ = graph.to_coo()
    if num_blocks == 1:
        block_of = np.zeros(src.size, dtype=np.int64)
    else:
        block_of = np.minimum(src // block_size, num_blocks - 1)
    profiles = []
    for b in range(num_blocks):
        mask = block_of == b
        e_b = int(mask.sum())
        if e_b:
            a_b = int(sorted_unique(src[mask]).size)
            t_b = int(sorted_unique(dst[mask]).size)
        else:
            a_b = t_b = 0
        profiles.append(BlockAccessProfile(b, e_b, a_b, t_b))
    return profiles


def analytic_misses(
    profiles: Sequence[BlockAccessProfile],
    cache_vectors: int,
    include_outputs: bool = True,
) -> float:
    """Predicted ``f_V`` misses for the blocked kernel.

    Models the cache as LRU shared between the block's ``f_V`` working set
    (``A_b`` rows, revisited uniformly) and the streaming ``f_O`` rows
    (``T_b`` per pass, never revisited within the pass).  Under LRU, each
    stream occupies a cache share proportional to its *insertion* rate, so
    the f_V share solves the fixed point::

        h   = min(1, (C * i_f / (i_f + T_b)) / A_b)     # re-access hit prob
        i_f = A_b + (E_b - A_b) * (1 - h)               # f_V insertions

    Misses = cold (``A_b``) + re-access misses.  With ``include_outputs``
    off this degrades to the classical single-stream capacity model.
    """
    c = float(max(cache_vectors, 1))
    misses = 0.0
    for p in profiles:
        if p.num_edges == 0:
            continue
        a = float(p.distinct_sources)
        e = float(p.num_edges)
        t = float(p.touched_destinations) if include_outputs else 0.0
        re_accesses = max(e - a, 0.0)
        h = 1.0
        for _ in range(32):
            i_f = a + re_accesses * (1.0 - h)
            share = i_f / (i_f + t) if (i_f + t) > 0 else 1.0
            h_new = min(1.0, (c * share) / a) if a > 0 else 1.0
            if abs(h_new - h) < 1e-9:
                h = h_new
                break
            h = h_new
        misses += a + re_accesses * (1.0 - h)
    return misses


def analytic_reuse(
    graph: CSRGraph,
    num_blocks: int,
    cache_vectors: int,
    include_outputs: bool = True,
) -> float:
    """Predicted paper-Table-3 reuse.

    Matches :class:`repro.cachesim.lru.LRUReuseResult.reuse`: edge accesses
    divided by rows fetched from memory — f_V gather misses plus the f_O
    rows streamed once per block pass.
    """
    profiles = block_access_profiles(graph, num_blocks)
    misses = analytic_misses(profiles, cache_vectors, include_outputs)
    fo_reads = (
        sum(p.touched_destinations for p in profiles) if include_outputs else 0
    )
    denom = misses + fo_reads
    return graph.num_edges / denom if denom else float("inf")


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
