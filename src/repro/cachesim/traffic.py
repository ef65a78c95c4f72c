"""Memory-traffic accounting per kernel variant (Figs. 3–4).

Breaks the AP's memory IO into the streams the paper's analysis names:

- ``f_V`` gathers: misses from the cache model × vector bytes (read);
- ``f_O`` passes: with ``nB`` blocks every touched output row is read and
  written once per block (the "nB passes over f_O");
- edge structure: CSR indices + edge ids streamed once (read);
- ``f_E`` stream: edge features streamed once when the operator reads them.

``traffic_for_kernel`` maps each optimization-ladder variant of Fig. 4 to
its traffic profile; the time conversion lives in
:mod:`repro.perf.roofline`.  ``choose_num_blocks`` is the argmin of
``ap_traffic`` over ``nB`` — the paper "finds the best block size" where
total memory IO is smallest (Section 4.2, Fig. 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.cachesim.analytic import (
    analytic_misses,
    block_access_profiles,
    cache_vectors_for,
)
from repro.graph.csr import CSRGraph
from repro.kernels.operators import get_binary_op

INDEX_BYTES = 8  # int64 indices, matching CSRGraph storage

#: Default nB sweep, matching the paper's Table 3 columns.
DEFAULT_CANDIDATES = (1, 2, 4, 8, 16, 32, 64)


@dataclass(frozen=True)
class KernelTraffic:
    """Bytes moved to/from memory by one AP invocation."""

    bytes_read: float
    bytes_written: float
    fv_misses: float
    num_blocks: int

    @property
    def total(self) -> float:
        """Total memory IO (read + written) — Fig. 3's headline series."""
        return self.bytes_read + self.bytes_written


def ap_traffic(
    graph: CSRGraph,
    feature_dim: int,
    num_blocks: int = 1,
    cache_vectors: Optional[int] = None,
    feature_bytes: int = 4,
    binary_op: str = "copylhs",
    edge_feature_dim: int = 0,
) -> KernelTraffic:
    """Traffic of the (optionally blocked) AP kernel.

    ``cache_vectors=None`` means a cold cache with no reuse at all
    (every gather misses) — the pessimistic bound used for the
    un-optimized baseline.
    """
    vec_bytes = feature_dim * feature_bytes
    profiles = block_access_profiles(graph, num_blocks)
    if cache_vectors is None:
        fv_misses = float(graph.num_edges)
    else:
        fv_misses = analytic_misses(profiles, cache_vectors)

    bop = get_binary_op(binary_op)
    read = 0.0
    if bop.uses_lhs:
        read += fv_misses * vec_bytes
    # CSR structure streams once per pass over the edges.
    read += graph.num_edges * INDEX_BYTES  # indices
    read += graph.num_vertices * num_blocks * INDEX_BYTES  # indptr per pass
    if bop.uses_rhs:
        eb = (edge_feature_dim or feature_dim) * feature_bytes
        read += graph.num_edges * (eb + INDEX_BYTES)  # f_E + edge_ids

    # f_O: every touched row is read+written once per block pass.
    touched_per_pass = sum(p.touched_destinations for p in profiles)
    write = touched_per_pass * vec_bytes
    read += touched_per_pass * vec_bytes
    return KernelTraffic(
        bytes_read=read,
        bytes_written=float(write),
        fv_misses=fv_misses,
        num_blocks=num_blocks,
    )


def choose_num_blocks(
    graph: CSRGraph,
    feature_dim: int,
    cache_vectors: Optional[int] = None,
    candidates: Sequence[int] = DEFAULT_CANDIDATES,
    feature_bytes: int = 4,
) -> int:
    """Pick the ``nB`` minimizing predicted total memory IO (Fig. 3 criterion)."""
    if cache_vectors is None:
        cache_vectors = cache_vectors_for(graph.num_src, feature_dim, feature_bytes)
    best_nb, best_io = 1, float("inf")
    for nb in candidates:
        if nb < 1 or nb > max(graph.num_src, 1):
            continue
        traffic = ap_traffic(
            graph,
            feature_dim,
            num_blocks=nb,
            cache_vectors=cache_vectors,
            feature_bytes=feature_bytes,
        )
        if traffic.total < best_io:
            best_io, best_nb = traffic.total, nb
    return best_nb


def traffic_for_kernel(
    graph: CSRGraph,
    feature_dim: int,
    variant: str,
    cache_vectors: int,
    num_blocks: int = 1,
    feature_bytes: int = 4,
    binary_op: str = "copylhs",
) -> KernelTraffic:
    """Traffic profile of one Fig. 4 optimization-ladder variant.

    Variants (cumulative, as in the paper's breakdown):

    - ``"baseline"``: no blocking; gathers assumed to thrash (the DGL 0.5.3
      behaviour the paper measures ~0 reuse for at nB=1 on big graphs).
    - ``"dynamic"``: + dynamic scheduling — traffic unchanged (DS attacks
      load imbalance, not IO; see Fig. 4 where the Reddit IO bar is flat).
    - ``"blocked"``: + cache blocking with ``num_blocks``.
    - ``"reordered"``: + loop reordering — IO equal to blocked; the gain is
      in instruction count (modelled in the roofline, not here).
    """
    if variant in ("baseline", "dynamic"):
        return ap_traffic(
            graph,
            feature_dim,
            num_blocks=1,
            cache_vectors=cache_vectors,
            feature_bytes=feature_bytes,
            binary_op=binary_op,
        )
    if variant in ("blocked", "reordered"):
        return ap_traffic(
            graph,
            feature_dim,
            num_blocks=num_blocks,
            cache_vectors=cache_vectors,
            feature_bytes=feature_bytes,
            binary_op=binary_op,
        )
    raise ValueError(
        f"unknown variant {variant!r}; expected baseline/dynamic/blocked/reordered"
    )
