"""Property-based kernel tests: the executor gives the whole-graph
pass's bytes under any row cover, thread count and source blocking, and
the reference's values, for random graphs and operators."""

import numpy as np
from covers import COVERS, cover_from_bounds, run_cover
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builders import coo_to_csr
from repro.kernels import BINARY_OPS, REDUCE_OPS, aggregate
from repro.kernels.baseline import aggregate_dense_reference
from repro.kernels.blocked import BlockedGraph
from repro.kernels.operators import get_reduce_op, init_output


@st.composite
def graph_and_features(draw):
    n = draw(st.integers(min_value=1, max_value=20))
    m = draw(st.integers(min_value=0, max_value=60))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    if draw(st.booleans()):  # a hub row: one destination pulls from every source
        src, dst = src + list(range(n)), dst + [draw(st.integers(0, n - 1))] * n
    dim = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(0, 1000))
    g = coo_to_csr(
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        num_dst=n,
        num_src=n,
    )
    rng = np.random.default_rng(seed)
    f_v = rng.standard_normal((n, dim)) + 2.0
    f_e = rng.standard_normal((max(g.num_edges, 1), dim))[: g.num_edges] + 2.0
    return g, f_v, f_e


@st.composite
def row_cover(draw, graph):
    """Any contiguous disjoint cover of the rows: arbitrary cut points
    (single-row ranges, a hub row alone, ranges without an edge), or one
    of the displaced static / balanced / dynamic chunkers."""
    n = graph.num_vertices
    if draw(st.booleans()):
        return COVERS[draw(st.sampled_from(sorted(COVERS)))](graph, draw(st.integers(1, 6)))
    cuts = draw(st.lists(st.integers(0, n), max_size=n))
    return cover_from_bounds([0] + sorted(cuts) + [n])


@given(
    graph_and_features(),
    st.sampled_from(["add", "mul", "copylhs", "copyrhs"]),
    st.sampled_from(["sum", "max", "min"]),
)
@settings(max_examples=60, deadline=None)
def test_reordered_equals_reference(data, bop, rop):
    g, f_v, f_e = data
    ref = aggregate_dense_reference(g, f_v, f_e, bop, rop)
    n = g.num_vertices
    cover = [(lo, min(lo + 3, n)) for lo in range(0, n, 3)]
    out = run_cover(g, cover, f_v, f_e, bop, rop)
    np.testing.assert_allclose(out, ref, rtol=1e-9, atol=1e-9)


@given(
    graph_and_features(),
    st.integers(min_value=1, max_value=8),
    st.sampled_from(["sum", "max"]),
)
@settings(max_examples=60, deadline=None)
def test_blocked_invariant_to_num_blocks(data, nb, rop):
    g, f_v, f_e = data
    one = aggregate(BlockedGraph.build(g, 1), f_v, f_e, "copylhs", rop)
    many = aggregate(BlockedGraph.build(g, nb), f_v, f_e, "copylhs", rop)
    np.testing.assert_allclose(many, one, rtol=1e-9, atol=1e-9)


@given(graph_and_features())
@settings(max_examples=40, deadline=None)
def test_sum_linearity(data):
    """AP(a*x) == a*AP(x) for the sum reducer (linearity of SpMM)."""
    g, f_v, _ = data
    out1 = aggregate(g, 3.0 * f_v, None, "copylhs", "sum")
    out2 = 3.0 * aggregate(g, f_v, None, "copylhs", "sum")
    np.testing.assert_allclose(out1, out2, rtol=1e-9, atol=1e-9)


@given(graph_and_features())
@settings(max_examples=40, deadline=None)
def test_max_idempotent_under_duplication(data):
    """Aggregating twice into the same output is a no-op for max."""
    g, f_v, _ = data
    rop = get_reduce_op("max")
    out = init_output(g.num_vertices, f_v.shape[1], rop, f_v.dtype)
    aggregate(g, f_v, None, "copylhs", rop, out=out)
    once = out.copy()
    aggregate(g, f_v, None, "copylhs", rop, out=out)
    np.testing.assert_array_equal(out, once)


@given(
    st.data(),
    graph_and_features(),
    st.sampled_from([np.float32, np.float64]),
    st.sampled_from([1, 2, 4]),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_row_ranges_never_change_a_bit(data, drawn, dtype, threads, nb):
    """The one property behind every plan the rule can pick: for every
    ⊗/⊕ pair and feature dtype, ANY contiguous disjoint cover of the
    destination rows × threads × (the graph | a BlockedGraph of it) is
    byte-identical to the single whole-graph pass over the same source
    blocks, with ``out=`` given (accumulate, no finalize) and not.  Only
    source blocks reassociate ⊕: exact for max/min, float tolerance for
    sum/mean."""
    g, f_v, f_e = drawn
    f_v, f_e = f_v.astype(dtype), f_e.astype(dtype)
    n, dim = g.num_vertices, f_v.shape[1]
    cover = data.draw(row_cover(g))
    blocked = BlockedGraph.build(g, nb)
    tol = 1e-4 if dtype == np.float32 else 1e-9
    for bop in BINARY_OPS:
        for rop in REDUCE_OPS:
            for target in (g, blocked):
                want = run_cover(target, [(0, n)], f_v, f_e, bop, rop)
                got = run_cover(target, cover, f_v, f_e, bop, rop, num_threads=threads)
                assert got.dtype == want.dtype == dtype
                assert got.tobytes() == want.tobytes(), (bop, rop, cover)
                outs = [init_output(n, dim, REDUCE_OPS[rop], dtype) for _ in range(2)]
                run_cover(target, [(0, n)], f_v, f_e, bop, rop, out=outs[0])
                assert run_cover(target, cover, f_v, f_e, bop, rop, out=outs[1],
                                 num_threads=threads) is outs[1]
                assert outs[1].tobytes() == outs[0].tobytes(), (bop, rop, cover)
            plain = run_cover(g, [(0, n)], f_v, f_e, bop, rop)
            if rop in ("max", "min"):
                assert np.array_equal(got, plain)
            else:
                np.testing.assert_allclose(got, plain, rtol=tol, atol=tol)


@given(
    graph_and_features(),
    st.integers(min_value=2, max_value=8),
    st.sampled_from(sorted(COVERS)),
    st.sampled_from(["copylhs", "mul"]),
    st.sampled_from(sorted(REDUCE_OPS)),
)
@settings(max_examples=60, deadline=None)
def test_blocks_with_threaded_ranges_equal_reference(data, nb, schedule, bop, rop):
    """Source blocks × threaded row ranges against the dense reference."""
    g, f_v, f_e = data
    ref = aggregate_dense_reference(g, f_v, f_e, bop, rop)
    out = run_cover(
        BlockedGraph.build(g, nb), COVERS[schedule](g, 3), f_v, f_e, bop, rop,
        num_threads=3,
    )
    np.testing.assert_allclose(out, ref, rtol=1e-9, atol=1e-9)
