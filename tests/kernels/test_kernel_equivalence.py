"""The engine, under every plan shape, must agree with the dense
reference across the full operator table — the core correctness contract
of the AP.  (``vectorized`` / ``reordered`` / ``blocked`` in the test
names are the plan shapes: one whole-graph pass, destination buckets,
source blocks.)
"""

from functools import partial

import numpy as np
import pytest
from covers import op_features as _features, run_cover

from repro.kernels import aggregate, engine
from repro.kernels.baseline import aggregate_baseline, aggregate_dense_reference
from repro.kernels.blocked import BlockedGraph
from repro.kernels.engine import plan_row_chunks

vectorized = partial(aggregate, kernel="auto")  # small graphs: one whole-graph pass


BINARY = ["add", "sub", "mul", "div", "copylhs", "copyrhs"]
REDUCE = ["sum", "max", "min", "mean"]


@pytest.mark.parametrize("binary_op", BINARY)
@pytest.mark.parametrize("reduce_op", REDUCE)
def test_baseline_matches_reference(small_rmat, binary_op, reduce_op):
    f_v, f_e = _features(small_rmat)
    ref = aggregate_dense_reference(small_rmat, f_v, f_e, binary_op, reduce_op)
    out = aggregate_baseline(small_rmat, f_v, f_e, binary_op, reduce_op)
    np.testing.assert_allclose(out, ref, rtol=1e-10, atol=1e-10)


@pytest.mark.parametrize("binary_op", BINARY)
@pytest.mark.parametrize("reduce_op", REDUCE)
def test_reordered_matches_reference(small_rmat, binary_op, reduce_op, monkeypatch):
    """The rule's bucketed plan (Alg. 3), through the public entry point."""
    monkeypatch.setattr(engine, "DEFAULT_CHUNK_ROWS", 16)  # bucket a 256-row graph
    f_v, f_e = _features(small_rmat)
    ref = aggregate_dense_reference(small_rmat, f_v, f_e, binary_op, reduce_op)
    out = aggregate(small_rmat, f_v, f_e, binary_op, reduce_op, num_threads=1)
    spmm = binary_op == "copylhs" and reduce_op in ("sum", "mean")
    assert spmm or len(small_rmat._pass_plans[(1, 16)].ranges) == 16
    np.testing.assert_allclose(out, ref, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("binary_op", ["copylhs", "mul"])
@pytest.mark.parametrize("reduce_op", REDUCE)
@pytest.mark.parametrize("num_blocks", [1, 2, 3, 7, 16])
def test_blocked_matches_reference(small_rmat, binary_op, reduce_op, num_blocks):
    f_v, f_e = _features(small_rmat)
    ref = aggregate_dense_reference(small_rmat, f_v, f_e, binary_op, reduce_op)
    bg = BlockedGraph.build(small_rmat, num_blocks)
    out = aggregate(bg, f_v, f_e, binary_op, reduce_op)
    np.testing.assert_allclose(out, ref, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("binary_op", BINARY)
@pytest.mark.parametrize("reduce_op", REDUCE)
def test_vectorized_matches_reference(small_rmat, binary_op, reduce_op):
    f_v, f_e = _features(small_rmat)
    ref = aggregate_dense_reference(small_rmat, f_v, f_e, binary_op, reduce_op)
    out = vectorized(small_rmat, f_v, f_e, binary_op, reduce_op)
    np.testing.assert_allclose(out, ref, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("binary_op", BINARY)
@pytest.mark.parametrize("reduce_op", REDUCE)
def test_vectorized_chunked_matches_reference(small_rmat, binary_op, reduce_op):
    """An explicit 13-row cover handed to the executor agrees too (the
    SpMM path included, which the rule itself never buckets)."""
    f_v, f_e = _features(small_rmat)
    ref = aggregate_dense_reference(small_rmat, f_v, f_e, binary_op, reduce_op)
    cover = plan_row_chunks(small_rmat, 1, chunk_rows=13)
    out = run_cover(small_rmat, cover, f_v, f_e, binary_op, reduce_op)
    np.testing.assert_allclose(out, ref, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("reduce_op", REDUCE)
def test_empty_rows_get_zero(reduce_op, line_graph):
    """Vertices with no in-edges must produce 0, not the reducer identity."""
    f_v, _ = _features(line_graph, dim=3)
    for cover in ([(0, 4)], [(0, 1), (1, 4)]):
        out = run_cover(line_graph, cover, f_v, None, "copylhs", reduce_op)
        assert np.array_equal(out[0], np.zeros(3))  # vertex 0 has no in-edges


@pytest.mark.parametrize("reduce_op", REDUCE)
@pytest.mark.parametrize("num_edges", [0, 3])
def test_single_vertex_graph(reduce_op, num_edges):
    """A 1-vertex graph (with self-loops or no edges at all) is valid input."""
    from repro.graph.builders import coo_to_csr

    src = np.zeros(num_edges, dtype=np.int64)
    g = coo_to_csr(src, src, num_dst=1, num_src=1)
    f_v = np.array([[3.0, -1.0]])
    f_e = np.arange(2 * num_edges, dtype=np.float64).reshape(num_edges, 2)
    ref = aggregate_dense_reference(g, f_v, f_e, "add", reduce_op)
    out = vectorized(g, f_v, f_e, "add", reduce_op)
    np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)
    if num_edges == 0:
        assert np.array_equal(out, np.zeros((1, 2)))  # identity cleared


@pytest.mark.parametrize("reduce_op", ["max", "min"])
def test_vectorized_identity_handling(line_graph, reduce_op):
    """±inf identities never leak: empty rows finalize to exactly 0."""
    f_v, _ = _features(line_graph, dim=2)
    out = vectorized(line_graph, f_v, None, "copylhs", reduce_op)
    assert np.all(np.isfinite(out))
    assert np.array_equal(out[0], np.zeros(2))


@pytest.mark.parametrize("fn", [aggregate_baseline, vectorized])
@pytest.mark.parametrize("reduce_op", ["max", "min"])
def test_nan_inf_messages_survive_finalization(line_graph, fn, reduce_op):
    """Regression: finalization used nan_to_num, which replaced NaN with
    0 and clobbered legitimate ±inf from real messages.  On the chain
    0 -> 1 -> 2 -> 3 only the empty row 0 may be zeroed."""
    f_v = np.ones((4, 2))
    f_v[0, 0] = np.nan     # message into vertex 1
    f_v[1, 1] = np.inf     # message into vertex 2
    f_v[2, 0] = -np.inf    # message into vertex 3
    out = fn(line_graph, f_v, None, "copylhs", reduce_op)
    assert np.array_equal(out[0], np.zeros(2))  # no in-edges -> DGL-style 0
    assert np.isnan(out[1, 0]) and out[1, 1] == 1.0
    assert np.isposinf(out[2, 1]) and out[2, 0] == 1.0
    assert np.isneginf(out[3, 0]) and out[3, 1] == 1.0


@pytest.mark.parametrize("reduce_op", REDUCE)
def test_vectorized_block_accumulation_contract(small_rmat, reduce_op):
    """Partial passes over two source blocks, chained and finalized once,
    == the one-shot result."""
    f_v, f_e = _features(small_rmat)
    expected = vectorized(small_rmat, f_v, f_e, "mul", reduce_op)
    got = vectorized(BlockedGraph.build(small_rmat, 2), f_v, f_e, "mul", reduce_op)
    np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-9)


def test_spmm_equals_scipy(small_rmat):
    f_v, _ = _features(small_rmat, dim=8)
    out = aggregate(small_rmat, f_v, None, "copylhs", "sum")
    expected = small_rmat.to_scipy() @ f_v
    np.testing.assert_allclose(out, expected, rtol=1e-10)


def test_chunked_general_path(small_rmat):
    """Tiny chunk size exercises the bounded-intermediate path."""
    f_v, f_e = _features(small_rmat)
    ref = aggregate_dense_reference(small_rmat, f_v, f_e, "mul", "max")
    cover = plan_row_chunks(small_rmat, 1, chunk_rows=7)
    out = run_cover(small_rmat, cover, f_v, f_e, "mul", "max")
    np.testing.assert_allclose(out, ref, rtol=1e-9)


def test_multigraph_edges_counted(tiny_graph):
    """Parallel edges contribute once each under sum."""
    from repro.graph.builders import coo_to_csr

    g = coo_to_csr(
        np.array([0, 0, 0]), np.array([1, 1, 1]), num_dst=2, num_src=2
    )
    f_v = np.array([[2.0], [0.0]])
    out = aggregate(g, f_v, None, "copylhs", "sum")
    assert out[1, 0] == 6.0
