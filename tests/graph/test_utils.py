"""Graph utilities."""

import numpy as np
import pytest

from repro.graph.builders import from_edge_list
from repro.graph.utils import (
    average_degree,
    density,
    split_train_val_test,
    to_bidirected,
)


class TestDegrees:
    def test_in_out_degrees(self, tiny_graph):
        assert int(tiny_graph.in_degrees().sum()) == tiny_graph.num_edges
        assert int(tiny_graph.reverse().in_degrees().sum()) == tiny_graph.num_edges

    def test_out_degree_values(self, line_graph):
        # a source's out-degree is its in-degree in the reverse graph
        assert line_graph.reverse().in_degrees().tolist() == [1, 1, 1, 0]

    def test_average_degree(self, line_graph):
        assert average_degree(line_graph) == pytest.approx(3 / 4)

    def test_density(self, line_graph):
        assert density(line_graph) == pytest.approx(3 / 16)


class TestBidirection:
    def test_symmetric_result(self, small_rmat):
        bi = to_bidirected(small_rmat)
        dense = bi.to_dense()
        assert np.array_equal((dense > 0), (dense.T > 0))

    def test_edge_count_at_most_double(self, small_rmat):
        bi = to_bidirected(small_rmat)
        assert small_rmat.num_edges <= bi.num_edges <= 2 * small_rmat.num_edges


class TestSplits:
    def test_fractions(self):
        train, val, test = split_train_val_test(1000, 0.6, 0.2, seed=0)
        assert abs(train.sum() - 600) <= 1
        assert abs(val.sum() - 200) <= 1
        assert train.sum() + val.sum() + test.sum() == 1000

    def test_disjoint(self):
        train, val, test = split_train_val_test(100, seed=1)
        assert not np.any(train & val)
        assert not np.any(train & test)

    def test_invalid_fractions(self):
        with pytest.raises(ValueError):
            split_train_val_test(10, 0.8, 0.5)

    def test_deterministic(self):
        a = split_train_val_test(50, seed=4)[0]
        b = split_train_val_test(50, seed=4)[0]
        assert np.array_equal(a, b)
