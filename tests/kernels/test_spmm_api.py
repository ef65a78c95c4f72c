"""Public aggregate() dispatch, the plan rule, and instrumentation."""

import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.kernels import KERNELS, aggregate, engine
from repro.kernels.blocked import BlockedGraph
from repro.kernels.instrumentation import AP_TIMER

REMOVED_KERNELS = ("vectorized", "reordered", "blocked", "parallel")


class TestDispatch:
    def test_all_kernels_registered(self):
        """The engine is ``"auto"``; the table holds the ground truths."""
        assert set(KERNELS) == {"baseline", "reference"}

    @pytest.mark.parametrize("kernel", ["auto", "baseline"])
    def test_kernels_agree(self, small_rmat, small_features, kernel):
        out = aggregate(small_rmat, small_features, kernel=kernel)
        ref = aggregate(small_rmat, small_features, kernel="reference")
        np.testing.assert_allclose(out, ref, rtol=1e-4)

    def test_auto_small_graph_uses_vectorized(self, small_rmat, small_features):
        """At one thread a graph of at most one bucket is one whole-graph
        vectorized pass, message intermediate or not: no plan is cached."""
        for reduce_op in ("sum", "max"):
            aggregate(small_rmat, small_features, None, "copylhs", reduce_op,
                      num_threads=1)
        assert not hasattr(small_rmat, "_pass_plans")

    def test_auto_with_threads_is_bit_identical(self, small_rmat, small_features):
        """num_threads > 1 puts the pass on the thread pool, whose output
        is bit-identical to the single-threaded one."""
        out = aggregate(small_rmat, small_features, num_threads=4)
        ref = aggregate(small_rmat, small_features, num_threads=1)
        assert np.array_equal(out, ref)

    def test_auto_env_threads_is_bit_identical(
        self, small_rmat, small_features, monkeypatch
    ):
        """REPRO_NUM_THREADS puts auto on the thread pool; same bits."""
        monkeypatch.setenv("REPRO_NUM_THREADS", "4")
        out = aggregate(small_rmat, small_features, kernel="auto")
        assert (4, None) in small_rmat._pass_plans
        ref = aggregate(small_rmat, small_features, num_threads=1)
        assert np.array_equal(out, ref)

    def test_spmm_path_ignores_row_chunk(
        self, small_rmat, small_features, monkeypatch
    ):
        """The copylhs/add path has no message intermediate to bound: at
        one thread it is a single whole-graph SpMM call that builds no
        plan, however small the bucket."""
        calls = []
        real = engine.spmm_rows

        def spy(graph, f_v, row_lo, row_hi):
            calls.append((graph, row_lo, row_hi))
            return real(graph, f_v, row_lo, row_hi)

        monkeypatch.setattr(engine, "spmm_rows", spy)
        monkeypatch.setattr(engine, "DEFAULT_CHUNK_ROWS", 16)
        n = small_rmat.num_vertices
        for reduce_op in ("sum", "mean"):
            aggregate(small_rmat, small_features, None, "copylhs", reduce_op,
                      num_threads=1)
        assert calls == [(small_rmat, 0, n)] * 2
        assert not hasattr(small_rmat, "_pass_plans")
        # the same rule does bucket an operator with a message intermediate
        aggregate(small_rmat, small_features, None, "copylhs", "max", num_threads=1)
        plan = small_rmat._pass_plans[(1, 16)]
        assert plan.ranges == [(lo, min(lo + 16, n)) for lo in range(0, n, 16)]

    def test_plan_rule(self, small_rmat):
        """What the rule reads — message intermediate?, rows, threads, a
        pre-built BlockedGraph — and the ranges it yields for each."""
        bucket = engine.DEFAULT_CHUNK_ROWS
        big = CSRGraph(np.zeros(40 * bucket + 1, np.int64), np.zeros(0, np.int64))
        n = big.num_vertices

        def sizes(materialises, threads):
            plan = engine.plan_pass(big, materialises, threads)
            return [hi - lo for lo, hi in plan.ranges]

        assert sizes(False, 1) == [n]  # SpMM: nothing to bound, rows whole ...
        assert not hasattr(big, "_pass_plans")  # ... and no cache entry at any size
        assert sizes(True, 1) == [bucket] * 40  # messages: Alg. 3 buckets
        assert sizes(False, 2) == [n // 16] * 16  # a queue of 8 chunks per thread
        assert sizes(True, 2) == [bucket] * 40  # ... capped at the bucket
        assert len(sizes(True, 64)) == 8 * 64  # ... finer when the threads ask
        blocked = BlockedGraph.build(small_rmat, 3)
        plan = engine.plan_pass(blocked, False, 1)
        assert plan.graph is small_rmat and list(plan.blocks) == blocked.blocks
        assert plan is engine.plan_pass(blocked, False, 1)  # cached on the BlockedGraph

    def test_validate_kernel(self):
        from repro.kernels import validate_kernel

        assert validate_kernel("auto") == "auto"
        assert validate_kernel("baseline") == "baseline"
        for name in REMOVED_KERNELS + ("cuda",):
            with pytest.raises(KeyError, match="unknown kernel"):
                validate_kernel(name)

    def test_unknown_kernel(self, small_rmat, small_features):
        for name in REMOVED_KERNELS + ("cuda",):
            with pytest.raises(KeyError, match="unknown kernel"):
                aggregate(small_rmat, small_features, kernel=name)

    def test_unknown_schedule_fails_on_any_kernel(self, small_rmat, small_features):
        """The plan is nothing a caller sets: the two plan knobs are not
        parameters of ``aggregate``, whatever the kernel."""
        for kernel in ("auto", "baseline"):
            with pytest.raises(TypeError, match="schedule"):
                aggregate(small_rmat, small_features, kernel=kernel,
                          schedule="dynamic")
            with pytest.raises(TypeError, match="num_blocks"):
                aggregate(small_rmat, small_features, kernel=kernel, num_blocks=2)

    def test_invalid_num_threads_fails_on_any_kernel(
        self, small_rmat, small_features
    ):
        with pytest.raises(ValueError, match="num_threads"):
            aggregate(small_rmat, small_features, kernel="baseline",
                      num_threads=0)

    def test_blockedgraph_input(self, small_rmat, small_features):
        bg = BlockedGraph.build(small_rmat, 4)
        out = aggregate(bg, small_features)
        ref = aggregate(small_rmat, small_features)
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-5)

    def test_requires_some_features(self, small_rmat):
        with pytest.raises(ValueError):
            aggregate(small_rmat, None, None)

    @pytest.mark.parametrize("kernel", sorted(KERNELS) + ["auto"])
    @pytest.mark.parametrize(
        "binary_op,missing", [("mul", "f_v"), ("mul", "f_e"), ("copyrhs", "f_e")]
    )
    def test_missing_operand_names_the_operator(
        self, small_rmat, small_features, kernel, binary_op, missing
    ):
        """Regression: a ⊗ that reads an operand passed as None died in
        the gather with ``TypeError: 'NoneType' object is not
        subscriptable``."""
        f_e = np.ones((small_rmat.num_edges, small_features.shape[1]), np.float32)
        operands = {"f_v": small_features, "f_e": f_e, missing: None}
        with pytest.raises(ValueError, match=f"{binary_op}.*{missing}"):
            aggregate(small_rmat, operands["f_v"], operands["f_e"],
                      binary_op=binary_op, kernel=kernel)

    def test_kernels_import_no_model(self):
        """Layering: the engine plans from what it observes, so nothing
        under ``repro.kernels`` names the cache model (``cachesim``
        imports kernels, never the reverse)."""
        for path in pathlib.Path(engine.__file__).parent.glob("*.py"):
            assert not re.search(r"cachesim|repro\.perf", path.read_text()), path.name
        # nothing a training or serving process imports loads the cache
        # model: only the Table 3 / Fig. 3 benches and its tests do
        code = ("import sys, repro, repro.kernels, repro.featurestore, repro.serving, "
                "repro.core; print([m for m in sys.modules "
                "if 'repro.perf' in m or 'repro.cachesim' in m])")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, check=True, timeout=120)
        assert done.stdout.strip() == "[]"


class TestInstrumentation:
    def test_timer_accumulates(self, small_rmat, small_features):
        AP_TIMER.reset()
        aggregate(small_rmat, small_features)
        assert AP_TIMER.calls == 1
        assert AP_TIMER.elapsed_s > 0
        aggregate(small_rmat, small_features)
        assert AP_TIMER.calls == 2

    def test_reset(self, small_rmat, small_features):
        aggregate(small_rmat, small_features)
        AP_TIMER.reset()
        assert AP_TIMER.calls == 0
        assert AP_TIMER.elapsed_s == 0.0
