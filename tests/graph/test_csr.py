"""CSRGraph structural invariants and conversions."""

import numpy as np
import pytest

from repro.graph.builders import coo_to_csr, from_edge_list
from repro.graph.csr import CSRGraph


class TestConstruction:
    def test_basic_shape(self, tiny_graph):
        assert tiny_graph.num_vertices == 5
        assert tiny_graph.num_edges == 7
        assert tiny_graph.is_square

    def test_indptr_must_start_at_zero(self):
        with pytest.raises(ValueError, match="start at 0"):
            CSRGraph(indptr=np.array([1, 2]), indices=np.array([0, 1]))

    def test_indptr_monotone(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            CSRGraph(indptr=np.array([0, 2, 1]), indices=np.array([0, 0]))

    def test_indptr_tail_matches_edges(self):
        with pytest.raises(ValueError, match="num_edges"):
            CSRGraph(indptr=np.array([0, 1]), indices=np.array([0, 0]))

    def test_edge_ids_alignment(self):
        with pytest.raises(ValueError, match="edge_ids"):
            CSRGraph(
                indptr=np.array([0, 1]),
                indices=np.array([0]),
                edge_ids=np.array([0, 1]),
            )

    def test_indices_bounded_by_num_src(self):
        with pytest.raises(ValueError, match="num_src"):
            CSRGraph(indptr=np.array([0, 1]), indices=np.array([5]), num_src=3)

    def test_default_edge_ids(self, tiny_graph):
        assert tiny_graph.edge_ids.size == tiny_graph.num_edges

    def test_arrays_readonly(self, tiny_graph):
        with pytest.raises(ValueError):
            tiny_graph.indices[0] = 99

    def test_empty_graph(self):
        g = from_edge_list([], num_vertices=4)
        assert g.num_vertices == 4
        assert g.num_edges == 0


class TestAccessors:
    def test_neighbors(self, tiny_graph):
        # vertex 1 pulls from sources 0, 2, 3
        assert sorted(tiny_graph.neighbors(1).tolist()) == [0, 2, 3]

    def test_in_degree(self, tiny_graph):
        assert tiny_graph.in_degree(1) == 3
        assert tiny_graph.in_degree(4) == 0

    def test_in_degrees_sums_to_edges(self, small_rmat):
        assert int(small_rmat.in_degrees().sum()) == small_rmat.num_edges

    def test_iter_rows_covers_all_edges(self, tiny_graph):
        total = sum(len(nbrs) for _, nbrs, _ in tiny_graph.iter_rows())
        assert total == tiny_graph.num_edges

    def test_edge_ids_of_matches_neighbors(self, tiny_graph):
        for v in range(tiny_graph.num_vertices):
            assert tiny_graph.edge_ids_of(v).size == tiny_graph.neighbors(v).size


class TestConversions:
    def test_coo_round_trip(self, small_rmat):
        src, dst, eid = small_rmat.to_coo()
        g2 = coo_to_csr(
            src, dst, num_dst=small_rmat.num_vertices, num_src=small_rmat.num_src
        )
        assert np.array_equal(g2.indptr, small_rmat.indptr)
        assert np.array_equal(
            np.sort(g2.indices), np.sort(small_rmat.indices)
        )

    def test_to_dense_counts(self, tiny_graph):
        dense = tiny_graph.to_dense()
        assert dense.sum() == tiny_graph.num_edges
        assert dense[1, 0] == 1  # edge 0 -> 1

    def test_to_scipy_matches_dense(self, small_rmat):
        dense = small_rmat.to_dense()
        sp = small_rmat.to_scipy().toarray()
        assert np.array_equal(dense, sp)

    def test_to_scipy_is_one_shared_read_only_operand(self, small_rmat):
        adj = small_rmat.to_scipy()
        assert small_rmat.to_scipy() is adj
        for name in ("data", "indices", "indptr"):
            arr = getattr(adj, name)
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        assert adj.data.dtype == np.float64 and np.all(adj.data == 1.0)
        # graphs of equal edge count (a graph and its reverse) share the ones
        rev = small_rmat.reverse().to_scipy()
        assert np.shares_memory(rev.data, adj.data)

    @pytest.mark.parametrize("first", [np.float32, np.float64])
    def test_to_scipy_has_one_operand_per_value_dtype(self, small_rmat, first):
        """float32 features get float32 ones, everything else float64
        ones; both operands are cached, read-only and hold one copy of
        the int32 indices, whichever is asked for first."""
        second = np.float64 if first is np.float32 else np.float32
        a, b = small_rmat.to_scipy(first), small_rmat.to_scipy(second)
        assert small_rmat.to_scipy(first) is a and small_rmat.to_scipy(second) is b
        assert (a.dtype, b.dtype) == (first, second)
        assert a.indices is b.indices and a.indptr is b.indptr
        assert a.indices.dtype == np.int32
        for adj in (a, b):
            assert adj.shape == (small_rmat.num_vertices, small_rmat.num_src)
            assert np.all(adj.data == 1.0)
            for name in ("data", "indices", "indptr"):
                assert not getattr(adj, name).flags.writeable, name
        assert np.array_equal(a.toarray(), b.toarray())
        # no third operand: every other dtype is summed in float64
        wide = small_rmat.to_scipy(np.float64)
        for other in (np.float16, np.int64, np.bool_):
            assert small_rmat.to_scipy(other) is wide
        assert len(small_rmat._scipy) == 2
        # the ones are shared per (edge count, dtype)
        rev = small_rmat.reverse()
        for dtype in (np.float32, np.float64):
            assert np.shares_memory(
                rev.to_scipy(dtype).data, small_rmat.to_scipy(dtype).data
            )

    def test_to_scipy_racing_first_calls_agree_on_one_operand(self, small_rmat):
        """The first threaded pass asks for the operand from every worker
        at once: all must end up multiplying the same matrix."""
        import sys
        import threading
        from concurrent.futures import ThreadPoolExecutor

        workers = 8
        gate = threading.Barrier(workers, timeout=10)

        def first_call(_):
            gate.wait()
            return small_rmat.to_scipy(np.float32)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(workers) as pool:
                got = list(pool.map(first_call, range(workers), timeout=10))
        finally:
            sys.setswitchinterval(interval)
        assert all(adj is got[0] for adj in got)
        assert small_rmat.to_scipy(np.float32) is got[0]
        assert small_rmat.to_scipy(np.float64).indices is got[0].indices

    def test_reverse_transposes(self, small_rmat):
        rev = small_rmat.reverse()
        assert np.array_equal(rev.to_dense(), small_rmat.to_dense().T)

    def test_reverse_involution(self, tiny_graph):
        assert np.array_equal(
            tiny_graph.reverse().reverse().to_dense(), tiny_graph.to_dense()
        )

    def test_reverse_preserves_edge_ids(self, tiny_graph):
        rev = tiny_graph.reverse()
        assert sorted(rev.edge_ids.tolist()) == sorted(
            tiny_graph.edge_ids.tolist()
        )


def test_validate_graph_passes(small_rmat):
    """A built graph's own arrays pass the constructor's checks."""
    again = CSRGraph(small_rmat.indptr, small_rmat.indices,
                     small_rmat.edge_ids, small_rmat.num_src)
    assert again.num_edges == small_rmat.num_edges
    assert np.array_equal(again.to_dense(), small_rmat.to_dense())
