"""The GCN model on the shared aggregation substrate."""

import numpy as np
import pytest

from repro.nn import Tensor, masked_cross_entropy, Adam, accuracy
from repro.core.models import norm_from_degrees
from repro.nn.gcn import GCN, GCNConv


class TestGCN:
    def test_forward_shape(self, small_rmat, small_features):
        model = GCN(8, 16, 5, num_layers=2)
        out = model(small_rmat, Tensor(small_features), norm_from_degrees("gcn", small_rmat.in_degrees()))
        assert out.shape == (small_rmat.num_vertices, 5)

    def test_gcn_norm_values(self, line_graph):
        norm = norm_from_degrees("gcn", line_graph.in_degrees())
        # in-degrees [0,1,1,1] -> 1/sqrt(d+1)
        np.testing.assert_allclose(
            norm.data.ravel(), [1.0, 2**-0.5, 2**-0.5, 2**-0.5], rtol=1e-6
        )

    def test_gradients_flow(self, small_rmat, small_features):
        model = GCN(8, 8, 3, num_layers=2)
        out = model(small_rmat, Tensor(small_features), norm_from_degrees("gcn", small_rmat.in_degrees()))
        labels = np.zeros(small_rmat.num_vertices, dtype=np.int64)
        masked_cross_entropy(out, labels).backward()
        for name, p in model.named_parameters():
            assert p.grad is not None, name

    def test_learns(self, reddit_mini):
        model = GCN(reddit_mini.feature_dim, 16, reddit_mini.num_classes, seed=0)
        norm = norm_from_degrees("gcn", reddit_mini.graph.in_degrees())
        x = Tensor(reddit_mini.features)
        opt = Adam(model.parameters(), lr=0.01)
        first = None
        for _ in range(25):
            model.zero_grad()
            logits = model(reddit_mini.graph, x, norm)
            loss = masked_cross_entropy(
                logits, reddit_mini.labels, reddit_mini.train_mask
            )
            if first is None:
                first = float(loss.data)
            loss.backward()
            opt.step()
        assert float(loss.data) < 0.7 * first

    def test_invalid_layers(self):
        with pytest.raises(ValueError):
            GCN(4, 8, 2, num_layers=0)

    def test_layer_matches_dense_formula(self, small_rmat, small_features):
        """One layer is ``((A (h n) + h n) n) @ W + b`` with ``n`` the
        ``(deg + 1)^-1/2`` column: the implicit self loop and both
        scalings, checked against a dense float64 evaluation."""
        layer = GCNConv(8, 5, activation=False, rng=np.random.default_rng(1))
        layer.linear.bias.data = np.linspace(-1, 1, 5).astype(np.float32)
        norm = norm_from_degrees("gcn", small_rmat.in_degrees())
        out = layer(small_rmat, Tensor(small_features), norm).data
        n = norm.data.astype(np.float64)
        hn = small_features.astype(np.float64) * n
        want = ((small_rmat.to_dense() @ hn + hn) * n) @ layer.linear.weight.data
        np.testing.assert_allclose(
            out, want + layer.linear.bias.data, rtol=1e-4, atol=1e-4
        )

    def test_isolated_vertex_is_an_affine_map_of_itself(self, tiny_graph):
        """Vertex 4 has no in-edges: its norm is 1, it aggregates
        nothing, and its row is ``h @ W + b`` of its own features."""
        feats = np.random.default_rng(2).standard_normal((5, 4)).astype(np.float32)
        layer = GCNConv(4, 3, activation=False)
        layer.linear.bias.data = np.array([0.5, -1.0, 2.0], dtype=np.float32)
        out = layer(tiny_graph, Tensor(feats), norm_from_degrees("gcn", tiny_graph.in_degrees())).data
        lin = layer.linear
        np.testing.assert_allclose(
            out[4], feats[4] @ lin.weight.data + lin.bias.data, rtol=1e-6
        )

    def test_parameters_are_one_linear_per_layer(self):
        model = GCN(4, 8, 2, num_layers=3)
        shapes = [p.data.shape for _, p in model.named_parameters()]
        assert sorted(shapes) == sorted([(4, 8), (8,), (8, 8), (8,), (8, 2), (2,)])

    def test_seed_fixes_the_weights(self):
        def weights(seed):
            return [p.data for _, p in GCN(4, 8, 2, seed=seed).named_parameters()]

        assert all(np.array_equal(a, b) for a, b in zip(weights(3), weights(3)))
        assert not all(np.array_equal(a, b) for a, b in zip(weights(3), weights(4)))

    def test_project_first_agrees_with_aggregate_first(
        self, small_rmat, small_features
    ):
        """Row scalings commute with ``W``: the model's project-first
        order on its narrowing second layer matches aggregate → combine
        to float32 rounding."""
        model = GCN(8, 6, 3, num_layers=2, seed=5)
        norm = norm_from_degrees("gcn", small_rmat.in_degrees())
        x = Tensor(small_features)
        got = model(small_rmat, x, norm).data
        h = x
        for layer in model.layers:
            h = layer(small_rmat, h, norm)
        np.testing.assert_allclose(got, h.data, rtol=1e-4, atol=1e-5)
