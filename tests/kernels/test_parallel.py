"""Thread-pool execution: bit-identity with the single-thread pass
across the full operator table, thread counts, and row covers — the core
contract that lets ``num_threads`` go up anywhere without changing a
single bit.  (The ``static`` / ``balanced`` names are cover generators
of ``covers.py``, not engine options.)
"""

from functools import partial

import numpy as np
import pytest
from covers import COVERS, op_features as _features, run_cover

from repro.graph.builders import coo_to_csr
from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat_graph
from repro.kernels import aggregate
from repro.kernels.engine import plan_row_chunks, requested_num_threads
from repro.kernels.operators import finalize_output, get_reduce_op, init_output

whole = partial(aggregate, num_threads=1)

BINARY = ["add", "sub", "mul", "div", "copylhs", "copyrhs"]
REDUCE = ["sum", "max", "min", "mean"]
SCHEDULES = sorted(COVERS)


@pytest.fixture
def skewed_graph() -> CSRGraph:
    """Power-law graph small enough for the full operator sweep."""
    return rmat_graph(scale=6, edge_factor=8.0, seed=5)


class TestBitIdentity:
    @pytest.mark.parametrize("binary_op", BINARY)
    @pytest.mark.parametrize("reduce_op", REDUCE)
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_all_op_pairs(self, skewed_graph, binary_op, reduce_op, schedule):
        f_v, f_e = _features(skewed_graph)
        ref = whole(skewed_graph, f_v, f_e, binary_op, reduce_op)
        out = run_cover(
            skewed_graph, COVERS[schedule](skewed_graph, 4),
            f_v, f_e, binary_op, reduce_op, num_threads=4,
        )
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("num_threads", [1, 2, 4])
    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize(
        "binary_op,reduce_op", [("copylhs", "sum"), ("mul", "max")]
    )
    def test_thread_counts(
        self, small_rmat, num_threads, schedule, binary_op, reduce_op
    ):
        f_v, f_e = _features(small_rmat)
        ref = whole(small_rmat, f_v, f_e, binary_op, reduce_op)
        out = run_cover(
            small_rmat, COVERS[schedule](small_rmat, num_threads),
            f_v, f_e, binary_op, reduce_op, num_threads=num_threads,
        )
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize("reduce_op", REDUCE)
    def test_empty_rows(self, line_graph, reduce_op):
        """Vertices with no in-edges finalize to 0 under every cover."""
        f_v, _ = _features(line_graph, dim=3)
        ref = whole(line_graph, f_v, None, "copylhs", reduce_op)
        for schedule in SCHEDULES:
            out = run_cover(
                line_graph, COVERS[schedule](line_graph, 4),
                f_v, None, "copylhs", reduce_op, num_threads=4,
            )
            assert np.array_equal(out, ref)
            assert np.array_equal(out[0], np.zeros(3))  # vertex 0: no in-edges

    @pytest.mark.parametrize("reduce_op", REDUCE)
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_zero_vertex_graph(self, reduce_op, schedule):
        g = CSRGraph(indptr=np.array([0]), indices=np.array([], dtype=np.int64))
        assert COVERS[schedule](g, 4) == []
        for out in (
            run_cover(g, [], np.zeros((0, 3)), None, "copylhs", reduce_op, num_threads=4),
            aggregate(g, np.zeros((0, 3)), None, "copylhs", reduce_op, num_threads=4),
        ):
            assert out.shape == (0, 3)

    def test_single_vertex_graph(self):
        g = coo_to_csr(
            np.zeros(3, dtype=np.int64), np.zeros(3, dtype=np.int64),
            num_dst=1, num_src=1,
        )
        f_v = np.array([[3.0, -1.0]])
        f_e = np.arange(6, dtype=np.float64).reshape(3, 2)
        ref = whole(g, f_v, f_e, "add", "max")
        out = aggregate(g, f_v, f_e, "add", "max", num_threads=8)
        assert np.array_equal(out, ref)

    def test_more_threads_than_rows(self, tiny_graph):
        f_v, f_e = _features(tiny_graph)
        ref = whole(tiny_graph, f_v, f_e, "mul", "sum")
        assert np.array_equal(aggregate(tiny_graph, f_v, f_e, "mul", "sum", num_threads=16), ref)
        for schedule in SCHEDULES:
            out = run_cover(
                tiny_graph, COVERS[schedule](tiny_graph, 16),
                f_v, f_e, "mul", "sum", num_threads=16,
            )
            assert np.array_equal(out, ref)

    def test_determinism_across_runs(self, small_rmat):
        """Repeated parallel runs are bit-for-bit reproducible (disjoint
        rows: no cross-thread accumulation order to vary)."""
        f_v, f_e = _features(small_rmat)
        cover = plan_row_chunks(small_rmat, 4, chunk_rows=7)
        runs = [
            run_cover(small_rmat, cover, f_v, f_e, "add", "sum", num_threads=4)
            for _ in range(5)
        ]
        for other in runs[1:]:
            assert np.array_equal(runs[0], other)

    def test_noncontiguous_edge_ids(self):
        """The edge-feature gather path (permuted edge ids) agrees too."""
        rng = np.random.default_rng(3)
        src = rng.integers(0, 32, size=200)
        dst = rng.integers(0, 32, size=200)
        eids = rng.permutation(200)
        g = coo_to_csr(src, dst, num_dst=32, num_src=32, edge_ids=eids)
        f_v, f_e = _features(g)
        for binary_op, reduce_op in [("copyrhs", "sum"), ("mul", "min")]:
            ref = whole(g, f_v, f_e, binary_op, reduce_op)
            out = aggregate(
                g, f_v, f_e, binary_op, reduce_op, num_threads=3
            )
            assert np.array_equal(out, ref)


class TestOutContract:
    @pytest.mark.parametrize("reduce_op", REDUCE)
    def test_accumulate_without_finalize(self, small_rmat, reduce_op):
        """Chained partial passes into `out` + one finalize == one-shot."""
        f_v, f_e = _features(small_rmat)
        rop = get_reduce_op(reduce_op)
        expected = aggregate(
            small_rmat, f_v, f_e, "mul", reduce_op, num_threads=4
        )
        out = init_output(small_rmat.num_vertices, f_v.shape[1], rop, f_v.dtype)
        mid = small_rmat.num_src // 2
        for lo, hi in ((0, mid), (mid, small_rmat.num_src)):
            block = small_rmat.source_block(lo, hi)
            aggregate(
                block, f_v, f_e, "mul", reduce_op, out=out, num_threads=4
            )
        counts = small_rmat.in_degrees()
        finalize_output(out, rop, counts=counts)
        np.testing.assert_allclose(out, expected, rtol=1e-9, atol=1e-9)


class TestPlanning:
    def test_chunks_cover_rows_disjointly(self, small_rmat):
        n = small_rmat.num_vertices
        for schedule in SCHEDULES:
            chunks = COVERS[schedule](small_rmat, 4)
            assert chunks[0][0] == 0 and chunks[-1][1] == n
            for (_, hi), (lo, _) in zip(chunks[:-1], chunks[1:]):
                assert hi == lo  # contiguous, disjoint
            assert all(hi > lo for lo, hi in chunks)

    def test_dynamic_queue_depth(self, small_rmat):
        chunks = plan_row_chunks(small_rmat, 4)
        assert 4 * 8 - 4 <= len(chunks) <= 4 * 8  # ~8 chunks per thread
        sizes = {hi - lo for lo, hi in chunks[:-1]}
        assert len(sizes) == 1  # fixed-size apart from the tail
        assert plan_row_chunks(small_rmat, 1) == [(0, small_rmat.num_vertices)]

    def test_dynamic_respects_chunk_rows(self, small_rmat):
        for threads in (1, 2):
            chunks = plan_row_chunks(small_rmat, threads, chunk_rows=10)
            assert all(hi - lo <= 10 for lo, hi in chunks)
        # a cap above the queue's own chunk size changes nothing
        assert plan_row_chunks(small_rmat, 2, chunk_rows=10**6) == plan_row_chunks(small_rmat, 2)

    def test_plan_cached_on_graph(self, small_rmat):
        """The pass plan is built once per (threads, bucket rows) and
        reused across calls."""
        f_v, _ = _features(small_rmat)
        aggregate(small_rmat, f_v, None, num_threads=4)
        key = (4, None)  # copylhs/sum: no message intermediate to bucket
        first = small_rmat._pass_plans[key]
        aggregate(small_rmat, f_v, None, num_threads=4)
        assert small_rmat._pass_plans[key] is first
        assert first.ranges == plan_row_chunks(small_rmat, 4)

    def test_spmm_operands_are_built_once_as_views(self, small_rmat, monkeypatch):
        """The SpMM path never constructs an operand per call: the full
        range is the graph's cached matrix, a plan's row ranges are views
        of it under a rebased indptr, all kept on the graph."""
        import scipy.sparse as sp

        f_v = _features(small_rmat)[0].astype(np.float32)
        want = whole(small_rmat, f_v, None)
        adj = small_rmat.to_scipy(np.float32)
        got = aggregate(small_rmat, f_v, None, num_threads=4)
        assert np.array_equal(got, want)
        operands = {
            k: v for k, v in small_rmat._pass_plans.items() if k[0] == "operand"
        }
        assert len(operands) > 4  # a queue of chunks per thread
        for (_, dtype, lo, hi), sub in operands.items():
            assert dtype == sub.dtype == np.float32  # the features' dtype
            assert sub.shape == (hi - lo, small_rmat.num_src)
            assert np.shares_memory(sub.indices, adj.indices)
            assert np.shares_memory(sub.data, adj.data)
            assert np.array_equal(sub.toarray(), adj[lo:hi].toarray())

        built = []
        init = sp.csr_matrix.__init__

        def counting_init(self, *args, **kwargs):
            built.append("csr_matrix")
            init(self, *args, **kwargs)

        monkeypatch.setattr(sp.csr_matrix, "__init__", counting_init)
        monkeypatch.setattr(np, "ones", lambda *a, **kw: built.append("ones"))
        for threads in (1, 4):
            again = aggregate(small_rmat, f_v, None, num_threads=threads)
            assert np.array_equal(again, want)
        assert built == []

    def test_unknown_schedule(self, tiny_graph):
        """The rule has one chunking policy: ``schedule`` is not a
        parameter of the planner or of ``aggregate`` any more."""
        with pytest.raises(TypeError, match="schedule"):
            plan_row_chunks(tiny_graph, 2, schedule="dynamic")
        with pytest.raises(TypeError, match="schedule"):
            aggregate(tiny_graph, np.ones((5, 2)), None, num_threads=2, schedule="dynamic")

    def test_invalid_threads(self, tiny_graph):
        with pytest.raises(ValueError, match="num_threads"):
            plan_row_chunks(tiny_graph, 0)
        with pytest.raises(ValueError, match="num_threads"):
            aggregate(tiny_graph, np.ones((5, 2)), None, num_threads=0)


class TestThreadResolution:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "2")
        assert requested_num_threads(4) == 4

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "3")
        assert requested_num_threads(None) == 3

    def test_bad_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_NUM_THREADS", "lots")
        with pytest.raises(ValueError, match="REPRO_NUM_THREADS"):
            requested_num_threads(None)

    def test_default_is_positive(self, monkeypatch):
        """An unconfigured process is single-threaded, whatever the machine."""
        monkeypatch.delenv("REPRO_NUM_THREADS", raising=False)
        assert requested_num_threads(None) == 1
