"""Property-based kernel tests: every pass plan equals the reference for
random graphs, operators, block counts, thread counts and policies."""

from functools import partial

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.builders import coo_to_csr
from repro.kernels import BINARY_OPS, KERNELS, REDUCE_OPS, aggregate
from repro.kernels.baseline import aggregate_dense_reference
from repro.kernels.engine import SCHEDULES, plan_pass, run_pass

reordered = partial(aggregate, kernel="reordered")
blocked = partial(aggregate, kernel="blocked")


@st.composite
def graph_and_features(draw):
    n = draw(st.integers(min_value=1, max_value=20))
    m = draw(st.integers(min_value=0, max_value=60))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
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
    f_e = rng.standard_normal((max(m, 1), dim))[: g.num_edges] + 2.0
    return g, f_v, f_e


@given(
    graph_and_features(),
    st.sampled_from(["add", "mul", "copylhs", "copyrhs"]),
    st.sampled_from(["sum", "max", "min"]),
)
@settings(max_examples=60, deadline=None)
def test_reordered_equals_reference(data, bop, rop):
    g, f_v, f_e = data
    ref = aggregate_dense_reference(g, f_v, f_e, bop, rop)
    out = run_pass(g, f_v, f_e, bop, rop, row_chunk=3)
    np.testing.assert_allclose(out, ref, rtol=1e-9, atol=1e-9)


@given(
    graph_and_features(),
    st.integers(min_value=1, max_value=8),
    st.sampled_from(["sum", "max"]),
)
@settings(max_examples=60, deadline=None)
def test_blocked_invariant_to_num_blocks(data, nb, rop):
    g, f_v, f_e = data
    one = blocked(g, f_v, f_e, "copylhs", rop, num_blocks=1)
    many = blocked(g, f_v, f_e, "copylhs", rop, num_blocks=nb)
    np.testing.assert_allclose(many, one, rtol=1e-9, atol=1e-9)


@given(graph_and_features())
@settings(max_examples=40, deadline=None)
def test_sum_linearity(data):
    """AP(a*x) == a*AP(x) for the sum reducer (linearity of SpMM)."""
    g, f_v, _ = data
    out1 = reordered(g, 3.0 * f_v, None, "copylhs", "sum")
    out2 = 3.0 * reordered(g, f_v, None, "copylhs", "sum")
    np.testing.assert_allclose(out1, out2, rtol=1e-9, atol=1e-9)


@given(graph_and_features())
@settings(max_examples=40, deadline=None)
def test_max_idempotent_under_duplication(data):
    """Aggregating twice into the same output is a no-op for max."""
    g, f_v, _ = data
    from repro.kernels.operators import get_reduce_op, init_output

    rop = get_reduce_op("max")
    out = init_output(g.num_vertices, f_v.shape[1], rop, f_v.dtype)
    reordered(g, f_v, None, "copylhs", rop, out=out)
    once = out.copy()
    reordered(g, f_v, None, "copylhs", rop, out=out)
    np.testing.assert_array_equal(out, once)


#: the engine presets of the ``KERNELS`` table (rows that are plan
#: parameters, not ground-truth functions), plus a bucket size small
#: enough to actually split the ≤20-row hypothesis graphs
PRESETS = {k: row for k, row in KERNELS.items() if isinstance(row, dict)}
PRESETS["tiny-buckets"] = {**KERNELS["blocked"], "row_chunk": 3}


@given(graph_and_features(), st.integers(min_value=1, max_value=4))
@settings(max_examples=25, deadline=None)
def test_row_ranges_never_change_a_bit(data, nb):
    """For every preset × threads × schedule: the plan's ranges are
    disjoint, in row order and cover [0, n), and — ranges and threads
    being row-local — the output is bit-identical to the unchunked
    single-thread pass over the same source blocks, for every ⊗/⊕."""
    g, f_v, f_e = data
    n = g.num_vertices
    for name, row in PRESETS.items():
        blocks = nb if "num_blocks" in row else 1
        for threads in (1, 3):
            for schedule in SCHEDULES:
                plan = plan_pass(g, row.get("row_chunk"), blocks, threads, schedule)
                assert len(plan.blocks) == blocks
                assert all(hi > lo for lo, hi in plan.ranges)
                edges = [lo for lo, _ in plan.ranges] + [n]
                assert edges[0] == 0
                assert edges[1:] == [hi for _, hi in plan.ranges]
                for bop in BINARY_OPS:
                    for rop in REDUCE_OPS:
                        want = run_pass(g, f_v, f_e, bop, rop, num_blocks=blocks)
                        got = run_pass(
                            g, f_v, f_e, bop, rop,
                            row_chunk=row.get("row_chunk"), num_blocks=blocks,
                            num_threads=threads, schedule=schedule,
                        )
                        assert np.array_equal(got, want), (name, bop, rop)


@given(
    graph_and_features(),
    st.integers(min_value=2, max_value=8),
    st.sampled_from(sorted(SCHEDULES)),
    st.sampled_from(["copylhs", "mul"]),
    st.sampled_from(sorted(REDUCE_OPS)),
)
@settings(max_examples=60, deadline=None)
def test_blocks_with_threaded_ranges_equal_reference(data, nb, schedule, bop, rop):
    """Source blocks × threaded row ranges — a combination the old
    one-function-per-kernel stack could not express."""
    g, f_v, f_e = data
    ref = aggregate_dense_reference(g, f_v, f_e, bop, rop)
    out = run_pass(
        g, f_v, f_e, bop, rop,
        row_chunk=3, num_blocks=nb, num_threads=3, schedule=schedule,
    )
    np.testing.assert_allclose(out, ref, rtol=1e-9, atol=1e-9)
