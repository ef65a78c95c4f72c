"""Exact LRU cache simulator."""

import numpy as np
import pytest

from repro.cachesim.lru import LRUFeatureCache, cache_vectors_for, simulate_lru_reuse
from repro.kernels.blocked import BlockedGraph
from repro.graph.generators import sbm_graph


class TestLRUFeatureCache:
    def test_cold_misses(self):
        c = LRUFeatureCache(4)
        for k in range(4):
            assert not c.access(k)
        assert c.misses == 4 and c.hits == 0

    def test_hit_on_resident(self):
        c = LRUFeatureCache(4)
        c.access(1)
        assert c.access(1)
        assert c.hits == 1

    def test_lru_eviction_order(self):
        c = LRUFeatureCache(2)
        c.access(0)
        c.access(1)
        c.access(0)  # refresh 0 -> 1 becomes LRU
        c.access(2)  # evicts 1
        assert c.access(0)  # still resident
        assert not c.access(1)  # evicted

    def test_capacity_one(self):
        c = LRUFeatureCache(1)
        c.access(0)
        c.access(1)
        assert not c.access(0)

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            LRUFeatureCache(0)

    def test_access_many(self):
        c = LRUFeatureCache(10)
        misses = c.access_many(np.array([1, 2, 1, 3, 2]))
        assert misses == 3
        assert c.accesses == 5

    def test_reset(self):
        c = LRUFeatureCache(2)
        c.access(0)
        c.reset()
        assert c.accesses == 0
        assert not c.access(0) and c.misses == 1


class TestSimulateReuse:
    def test_infinite_cache_gives_ideal_fv_reuse(self, small_rmat):
        res = simulate_lru_reuse(
            small_rmat, 1, cache_vectors=10**6, include_outputs=False
        )
        # every f_V row fetched once -> fv_reuse == edges / distinct sources
        distinct = np.unique(small_rmat.indices).size
        assert res.misses == distinct
        assert res.fv_reuse == pytest.approx(small_rmat.num_edges / distinct)

    def test_tiny_cache_no_reuse(self, small_rmat):
        res = simulate_lru_reuse(small_rmat, 1, cache_vectors=1)
        assert res.reuse < 1.5

    def test_blocking_improves_reuse_under_pressure(self):
        # dense graph whose working set exceeds the cache
        g = sbm_graph([512], p_in=0.25, p_out=0.0, seed=0)
        cache = 64
        flat = simulate_lru_reuse(g, 1, cache)
        blocked = simulate_lru_reuse(g, 8, cache)
        assert blocked.reuse > flat.reuse

    def test_reuse_falls_at_excessive_blocking(self):
        """The f_O pass cost eventually dominates (paper Table 3 falloff)."""
        g = sbm_graph([512], p_in=0.25, p_out=0.0, seed=0)
        cache = 64
        results = {nb: simulate_lru_reuse(g, nb, cache).reuse for nb in (1, 8, 128)}
        assert results[8] > results[1]
        assert results[128] < results[8]

    def test_fo_reads_grow_with_blocks(self, small_rmat):
        few = simulate_lru_reuse(small_rmat, 1, 32)
        many = simulate_lru_reuse(small_rmat, 16, 32)
        assert many.fo_reads > few.fo_reads

    def test_accesses_equal_edges(self, small_rmat):
        for nb in (1, 4):
            res = simulate_lru_reuse(small_rmat, nb, 32)
            assert res.accesses == small_rmat.num_edges

    def test_outputs_pollute_cache(self, small_rmat):
        with_out = simulate_lru_reuse(small_rmat, 2, 32, include_outputs=True)
        without = simulate_lru_reuse(small_rmat, 2, 32, include_outputs=False)
        assert with_out.misses >= without.misses

    def test_miss_rate(self, small_rmat):
        res = simulate_lru_reuse(small_rmat, 2, 32)
        assert 0.0 < res.miss_rate <= 1.0

    @pytest.mark.parametrize("nb", [1, 2, 4, 8, 16])
    def test_fo_accesses_are_touched_rows_per_pass(self, small_rmat, nb):
        """Fig. 3's written rows: each block pass touches every output row
        with an edge in that block once, and a miss is a subset of them."""
        res = simulate_lru_reuse(small_rmat, nb, 32)
        touched = sum(int(np.count_nonzero(np.diff(b.indptr)))
                      for b in BlockedGraph.build(small_rmat, nb).blocks)
        assert res.fo_accesses == touched
        assert res.fo_reads <= res.fo_accesses

    def test_no_outputs_no_fo_accesses(self, small_rmat):
        res = simulate_lru_reuse(small_rmat, 4, 32, include_outputs=False)
        assert res.fo_accesses == res.fo_reads == 0


class TestCacheSizing:
    def test_literal_capacity(self):
        cv = cache_vectors_for(1000, feature_dim=100, llc_bytes=40_000)
        assert cv == 40_000 // 400

    def test_pressure_scaling(self):
        # paper-pressure scaling: ratio of f_V to cache preserved
        cv = cache_vectors_for(
            1000, feature_dim=100, llc_bytes=1_000_000, paper_fv_bytes=10_000_000
        )
        # fv=400KB at 10x pressure -> effective cache 40KB -> 100 vectors
        assert cv == 100

    def test_minimum_one(self):
        assert cache_vectors_for(10, 10_000, llc_bytes=1) == 1

    def test_paper_pressure_independent_of_llc_literal(self):
        """With a paper f_V size the capacity keeps |f_V| / LLC: the same
        fraction of the stand-in's rows as the paper's LLC held of its."""
        paper_fv = 232_965 * 602 * 4  # Reddit
        cv = cache_vectors_for(2_867, 602, paper_fv_bytes=paper_fv)
        assert cv == int(2_867 * 38.5 * 2**20 / paper_fv)
