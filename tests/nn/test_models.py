"""GraphSAGE and R-GCN models."""

import numpy as np
import pytest

from repro.graph.datasets import load_dataset
from repro.nn import GraphSAGE, RGCN, Tensor, masked_cross_entropy
from repro.nn.rgcn import relation_norms
from repro.core.models import norm_from_degrees
from repro.nn.sage import SageConvGCN


class TestSageConv:
    def test_aggregate_is_spmm(self, small_rmat, small_features):
        layer = SageConvGCN(8, 4)
        z = layer.aggregate(small_rmat, Tensor(small_features))
        expected = small_rmat.to_scipy() @ small_features
        np.testing.assert_allclose(z.data, expected, rtol=1e-4, atol=1e-5)

    def test_combine_gcn_postprocessing(self, line_graph):
        """combine = act(((z + h) * norm) @ W + b), paper Section 6.1."""
        layer = SageConvGCN(2, 2, activation=False)
        layer.linear.weight.data = np.eye(2, dtype=np.float32)
        layer.linear.bias.data = np.zeros(2, dtype=np.float32)
        h = Tensor(np.ones((4, 2), dtype=np.float32))
        z = Tensor(np.full((4, 2), 3.0, dtype=np.float32))
        norm = norm_from_degrees("sage", line_graph.in_degrees())
        out = layer.combine(z, h, norm)
        expected = (3.0 + 1.0) * norm.data
        np.testing.assert_allclose(out.data, np.broadcast_to(expected, (4, 2)))

    def test_activation_flag(self, line_graph):
        h = Tensor(-np.ones((4, 3), dtype=np.float32))
        norm = norm_from_degrees("sage", line_graph.in_degrees())
        with_act = SageConvGCN(3, 3, activation=True)(line_graph, h, norm)
        assert np.all(with_act.data >= 0)


class TestGraphSAGE:
    def test_output_shape(self, small_rmat, small_features):
        model = GraphSAGE(8, 16, 5, num_layers=3)
        out = model(small_rmat, Tensor(small_features), norm_from_degrees("sage", small_rmat.in_degrees()))
        assert out.shape == (small_rmat.num_vertices, 5)

    def test_single_layer(self, small_rmat, small_features):
        model = GraphSAGE(8, 16, 4, num_layers=1)
        out = model(small_rmat, Tensor(small_features), norm_from_degrees("sage", small_rmat.in_degrees()))
        assert out.shape == (small_rmat.num_vertices, 4)

    def test_invalid_layers(self):
        with pytest.raises(ValueError):
            GraphSAGE(4, 8, 2, num_layers=0)

    def test_deterministic_replicas(self, small_rmat, small_features):
        a = GraphSAGE(8, 4, 3, seed=5)
        b = GraphSAGE(8, 4, 3, seed=5)
        norm = norm_from_degrees("sage", small_rmat.in_degrees())
        oa = a(small_rmat, Tensor(small_features), norm)
        ob = b(small_rmat, Tensor(small_features), norm)
        assert np.array_equal(oa.data, ob.data)

    def test_gradients_reach_all_layers(self, small_rmat, small_features):
        model = GraphSAGE(8, 4, 3, num_layers=2)
        out = model(
            small_rmat, Tensor(small_features), norm_from_degrees("sage", small_rmat.in_degrees())
        )
        labels = np.zeros(small_rmat.num_vertices, dtype=np.int64)
        masked_cross_entropy(out, labels).backward()
        for name, p in model.named_parameters():
            assert p.grad is not None, name
            assert np.any(p.grad != 0), name


class TestRGCN:
    def test_hetero_forward(self):
        ds = load_dataset("am", scale=0.05, seed=0)
        model = RGCN(
            ds.feature_dim, 8, ds.num_classes, sorted(ds.relations), num_layers=2
        )
        norms = relation_norms(ds.relations)
        out = model(ds.relations, Tensor(ds.features), norms)
        assert out.shape == (ds.num_vertices, ds.num_classes)

    def test_self_loop_only_when_no_edges(self):
        from repro.graph.builders import from_edge_list

        empty = {"r": from_edge_list([], num_vertices=3)}
        model = RGCN(2, 4, 2, ["r"], num_layers=1)
        norms = relation_norms(empty)
        out = model(empty, Tensor(np.ones((3, 2), dtype=np.float32)), norms)
        assert out.shape == (3, 2)

    def test_relations_learn(self):
        ds = load_dataset("am", scale=0.05, seed=0)
        model = RGCN(ds.feature_dim, 8, ds.num_classes, sorted(ds.relations))
        norms = relation_norms(ds.relations)
        out = model(ds.relations, Tensor(ds.features), norms)
        loss = masked_cross_entropy(out, ds.labels, ds.train_mask)
        loss.backward()
        rel_w = getattr(model.layers[0], f"w_{sorted(ds.relations)[0]}")
        assert rel_w.weight.grad is not None
