"""Graph generators: determinism, sizes, structural regimes."""

import numpy as np
import pytest

from repro.graph.generators import (
    community_features,
    powerlaw_cluster_graph,
    random_features,
    rmat_graph,
    sbm_graph,
    sbm_labels,
)


class TestRmat:
    def test_vertex_count(self):
        g = rmat_graph(scale=7, edge_factor=4.0, seed=0)
        assert g.num_vertices == 128

    def test_deterministic(self):
        a = rmat_graph(scale=7, edge_factor=4.0, seed=5)
        b = rmat_graph(scale=7, edge_factor=4.0, seed=5)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.indptr, b.indptr)

    def test_seed_changes_graph(self):
        a = rmat_graph(scale=7, edge_factor=4.0, seed=1)
        b = rmat_graph(scale=7, edge_factor=4.0, seed=2)
        assert not (
            a.num_edges == b.num_edges and np.array_equal(a.indices, b.indices)
        )

    def test_no_self_loops_by_default(self):
        g = rmat_graph(scale=6, edge_factor=8.0, seed=0)
        src, dst, _ = g.to_coo()
        assert not np.any(src == dst)

    def test_dedupe(self):
        g = rmat_graph(scale=5, edge_factor=16.0, seed=0, dedupe=True)
        src, dst, _ = g.to_coo()
        pairs = set(zip(src.tolist(), dst.tolist()))
        assert len(pairs) == g.num_edges

    def test_skew_produces_heavy_tail(self):
        g = rmat_graph(scale=10, edge_factor=12.0, a=0.65, seed=0)
        deg = g.in_degrees()
        # hubs: max degree far above the mean
        assert deg.max() > 8 * deg.mean()

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            rmat_graph(scale=0, edge_factor=1.0)

    def test_invalid_quadrants(self):
        with pytest.raises(ValueError):
            rmat_graph(scale=4, edge_factor=1.0, a=0.7, b=0.3, c=0.3)


class TestSbm:
    def test_intra_density_dominates(self):
        sizes = [60, 60]
        g = sbm_graph(sizes, p_in=0.2, p_out=0.005, seed=0)
        src, dst, _ = g.to_coo()
        same = (src < 60) == (dst < 60)
        assert same.mean() > 0.8

    def test_expected_edge_count(self):
        sizes = [100, 100]
        p = 0.05
        g = sbm_graph(sizes, p_in=p, p_out=p, seed=0)
        expected = p * (200 * 200)
        assert 0.7 * expected < g.num_edges < 1.3 * expected

    def test_zero_probability(self):
        g = sbm_graph([10, 10], p_in=0.0, p_out=0.0, seed=0)
        assert g.num_edges == 0

    def test_undirected_mode_symmetric(self):
        g = sbm_graph([30, 30], p_in=0.2, p_out=0.02, seed=0, directed=False)
        dense = g.to_dense()
        assert np.array_equal(dense, dense.T)

    def test_labels_align(self):
        labels = sbm_labels([3, 4, 5])
        assert labels.tolist() == [0] * 3 + [1] * 4 + [2] * 5

    def test_invalid_probability(self):
        with pytest.raises(ValueError):
            sbm_graph([10], p_in=1.5, p_out=0.0)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            sbm_graph([0, 10], p_in=0.1, p_out=0.1)


class TestPowerlawCluster:
    def test_size_and_determinism(self):
        a = powerlaw_cluster_graph(400, num_blocks=8, avg_degree=10.0, seed=1)
        b = powerlaw_cluster_graph(400, num_blocks=8, avg_degree=10.0, seed=1)
        assert a.num_vertices == 400
        assert np.array_equal(a.indices, b.indices)

    def test_intra_fraction_bounds(self):
        with pytest.raises(ValueError):
            powerlaw_cluster_graph(100, 4, 5.0, intra_fraction=1.5)

    def test_clustered_edges(self):
        g = powerlaw_cluster_graph(
            512, num_blocks=8, avg_degree=12.0, intra_fraction=0.95, seed=0
        )
        src, dst, _ = g.to_coo()
        block = 512 // 8
        same = (src // block) == (dst // block)
        assert same.mean() > 0.6


class TestFeatures:
    def test_random_features_shape_dtype(self):
        f = random_features(10, 4, seed=0)
        assert f.shape == (10, 4)
        assert f.dtype == np.float32

    def test_community_features_signal(self):
        labels = np.repeat(np.arange(4), 50)
        f = community_features(labels, 16, signal=3.0, noise=0.5, seed=0)
        # same-class rows much closer than cross-class rows
        c0 = f[labels == 0].mean(axis=0)
        c1 = f[labels == 1].mean(axis=0)
        spread0 = np.linalg.norm(f[labels == 0] - c0, axis=1).mean()
        assert np.linalg.norm(c0 - c1) > spread0

    def test_community_features_deterministic(self):
        labels = np.repeat(np.arange(3), 10)
        a = community_features(labels, 8, seed=2)
        b = community_features(labels, 8, seed=2)
        assert np.array_equal(a, b)
