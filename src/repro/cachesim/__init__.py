"""Cache model for the aggregation primitive.

The paper's single-socket analysis (Table 3, Fig. 3) is phrased in terms
of *cache reuse* of vertex-feature vectors and *bytes read/written* to
memory as a function of the number of source blocks ``nB``.  On real
hardware these come from performance counters; here they come from
:mod:`repro.cachesim.lru`, an exact trace-driven, fully-associative LRU
cache at feature-vector granularity that replays the blocked kernel's
accesses, and :func:`cache_vectors_for`, the simulated capacity that keeps
the paper's ``|f_V| / LLC`` pressure on a stand-in graph.
"""

from repro.cachesim.lru import LRUFeatureCache, cache_vectors_for, simulate_lru_reuse

__all__ = [
    "LRUFeatureCache",
    "simulate_lru_reuse",
    "cache_vectors_for",
]
