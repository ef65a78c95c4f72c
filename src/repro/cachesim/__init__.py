"""Cache and memory-traffic models for the aggregation primitive.

The paper's single-socket analysis (Table 3, Figs. 3–4) is phrased in
terms of *cache reuse* of vertex-feature vectors and *bytes read/written*
to memory as a function of the number of source blocks ``nB``.  On real
hardware these come from performance counters; here they come from:

- :mod:`repro.cachesim.lru` — an exact trace-driven, fully-associative LRU
  cache at feature-vector granularity (ground truth, used by tests and
  small benches);
- :mod:`repro.cachesim.analytic` — a closed-form per-block model (cold
  misses + capacity-thrash term) that matches the LRU trends at zero cost,
  used by the block-count sweep and large sweeps;
- :mod:`repro.cachesim.traffic` — per-kernel-variant byte accounting
  (f_V misses, f_O passes, edge/index streams) feeding the roofline time
  model, and ``choose_num_blocks``, the ``nB`` that minimizes it.
"""

from repro.cachesim.lru import LRUFeatureCache, simulate_lru_reuse
from repro.cachesim.analytic import (
    BlockAccessProfile,
    analytic_misses,
    block_access_profiles,
    cache_vectors_for,
)
from repro.cachesim.traffic import KernelTraffic, traffic_for_kernel

__all__ = [
    "LRUFeatureCache",
    "simulate_lru_reuse",
    "BlockAccessProfile",
    "block_access_profiles",
    "analytic_misses",
    "cache_vectors_for",
    "KernelTraffic",
    "traffic_for_kernel",
]
