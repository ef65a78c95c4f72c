"""Block-count sweep (``repro.cachesim.traffic.choose_num_blocks``, the Fig. 3 criterion)."""

import numpy as np
import pytest

from repro.graph.generators import rmat_graph, sbm_graph
from repro.cachesim.traffic import choose_num_blocks


def test_returns_candidate():
    g = rmat_graph(scale=9, edge_factor=16.0, seed=0)
    nb = choose_num_blocks(g, feature_dim=32, cache_vectors=64)
    assert nb in (1, 2, 4, 8, 16, 32, 64)


def test_huge_cache_prefers_one_block():
    g = rmat_graph(scale=8, edge_factor=8.0, seed=0)
    nb = choose_num_blocks(g, feature_dim=8, cache_vectors=10**9)
    assert nb == 1


def test_tiny_cache_prefers_blocking_on_dense_graph():
    # dense graph with reuse potential: small cache should trigger blocking
    g = sbm_graph([256], p_in=0.3, p_out=0.0, seed=0)
    nb = choose_num_blocks(g, feature_dim=16, cache_vectors=16)
    assert nb > 1


def test_respects_candidates():
    g = rmat_graph(scale=7, edge_factor=4.0, seed=0)
    nb = choose_num_blocks(
        g, feature_dim=8, cache_vectors=32, candidates=(1, 4)
    )
    assert nb in (1, 4)


def test_candidates_beyond_sources_skipped():
    g = sbm_graph([8], p_in=0.5, p_out=0.0, seed=0)
    nb = choose_num_blocks(
        g, feature_dim=2, cache_vectors=2, candidates=(1, 64)
    )
    assert nb == 1
