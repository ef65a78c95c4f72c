"""Public aggregate() dispatch and instrumentation."""

import numpy as np
import pytest

from repro.kernels import KERNELS, aggregate, engine
from repro.kernels.blocked import BlockedGraph
from repro.kernels.instrumentation import AP_TIMER
from repro.kernels.spmm import _AUTO_BLOCK_THRESHOLD, _auto_params


class TestDispatch:
    def test_all_kernels_registered(self):
        assert set(KERNELS) == {
            "baseline",
            "vectorized",
            "parallel",
            "reordered",
            "blocked",
            "reference",
        }

    @pytest.mark.parametrize(
        "kernel", ["baseline", "vectorized", "parallel", "reordered", "blocked"]
    )
    def test_kernels_agree(self, small_rmat, small_features, kernel):
        out = aggregate(small_rmat, small_features, kernel=kernel, num_blocks=2)
        ref = aggregate(small_rmat, small_features, kernel="reference")
        np.testing.assert_allclose(out, ref, rtol=1e-4)

    def test_auto_small_graph_uses_vectorized(self, small_rmat, small_features):
        out = aggregate(small_rmat, small_features, kernel="auto")
        ref = aggregate(small_rmat, small_features, kernel="vectorized")
        np.testing.assert_allclose(out, ref, rtol=1e-6)

    def test_auto_with_threads_is_bit_identical(self, small_rmat, small_features):
        """auto + num_threads > 1 dispatches the parallel engine, whose
        output is bit-identical to the single-threaded one."""
        out = aggregate(small_rmat, small_features, kernel="auto", num_threads=4)
        ref = aggregate(small_rmat, small_features, kernel="vectorized")
        assert np.array_equal(out, ref)

    @pytest.mark.parametrize(
        "num_src,num_blocks,num_threads,env,expected",
        [
            (100, None, None, None, {}),
            (100, 1, 1, "1", {}),
            (_AUTO_BLOCK_THRESHOLD, None, None, None, {"row_chunk": 8192}),
            (100, None, 4, None, {"num_threads": 4, "schedule": None}),
            (100, None, None, "4", {"num_threads": 4, "schedule": None}),
            (100, None, 1, "4", {}),  # the explicit argument beats the env
            (_AUTO_BLOCK_THRESHOLD, None, 2, None,
             {"num_threads": 2, "schedule": None}),
            (100, 8, 4, "4", {"row_chunk": 8192, "num_blocks": 8}),
        ],
    )
    def test_auto_plan_parameters(
        self, monkeypatch, num_src, num_blocks, num_threads, env, expected
    ):
        """``auto`` returns pass-plan parameters, not a kernel name:
        blocks beat threads beat the vertex threshold."""
        from types import SimpleNamespace

        monkeypatch.delenv("REPRO_NUM_THREADS", raising=False)
        if env is not None:
            monkeypatch.setenv("REPRO_NUM_THREADS", env)
        graph = SimpleNamespace(num_src=num_src)
        assert _auto_params(graph, num_blocks, num_threads) == expected

    def test_auto_env_threads_is_bit_identical(
        self, small_rmat, small_features, monkeypatch
    ):
        """REPRO_NUM_THREADS puts auto on the thread pool; same bits."""
        monkeypatch.setenv("REPRO_NUM_THREADS", "4")
        out = aggregate(small_rmat, small_features, kernel="auto")
        assert (None, 1, 4, None) in small_rmat._pass_plans
        ref = aggregate(small_rmat, small_features, kernel="vectorized")
        assert np.array_equal(out, ref)

    def test_spmm_path_ignores_row_chunk(
        self, small_rmat, small_features, monkeypatch
    ):
        """On the copylhs/add path ``reordered`` and ``vectorized`` (the
        two names ``auto`` chooses between by vertex count) issue the same
        single whole-graph SpMM call and build no plan."""
        calls = []
        real = engine.spmm_rows

        def spy(graph, f_v, row_lo, row_hi):
            calls.append((graph, row_lo, row_hi))
            return real(graph, f_v, row_lo, row_hi)

        monkeypatch.setattr(engine, "spmm_rows", spy)
        monkeypatch.setitem(KERNELS, "reordered", {"row_chunk": 16})
        n = small_rmat.num_vertices
        for kernel in ("vectorized", "reordered"):
            for reduce_op in ("sum", "mean"):
                aggregate(small_rmat, small_features, None, "copylhs", reduce_op,
                          kernel=kernel)
        assert calls == [(small_rmat, 0, n)] * 4
        assert not hasattr(small_rmat, "_pass_plans")
        # the same preset does bucket an operator with a message intermediate
        aggregate(small_rmat, small_features, None, "copylhs", "max",
                  kernel="reordered")
        assert (16, 1, 1, None) in small_rmat._pass_plans

    def test_validate_kernel(self):
        from repro.kernels import validate_kernel

        assert validate_kernel("auto") == "auto"
        assert validate_kernel("vectorized") == "vectorized"
        with pytest.raises(KeyError, match="unknown kernel"):
            validate_kernel("cuda")

    def test_unknown_kernel(self, small_rmat, small_features):
        with pytest.raises(KeyError, match="unknown kernel"):
            aggregate(small_rmat, small_features, kernel="cuda")

    def test_unknown_schedule_fails_on_any_kernel(self, small_rmat, small_features):
        """A typo'd policy must fail fast even when the resolved kernel
        is single-threaded and would never consult it."""
        with pytest.raises(ValueError, match="schedule"):
            aggregate(small_rmat, small_features, kernel="vectorized",
                      schedule="blanced")
        with pytest.raises(ValueError, match="schedule"):
            aggregate(small_rmat, small_features, kernel="auto",
                      schedule="guided")

    def test_invalid_num_threads_fails_on_any_kernel(
        self, small_rmat, small_features
    ):
        with pytest.raises(ValueError, match="num_threads"):
            aggregate(small_rmat, small_features, kernel="vectorized",
                      num_threads=0)

    def test_blockedgraph_input(self, small_rmat, small_features):
        bg = BlockedGraph.build(small_rmat, 4)
        out = aggregate(bg, small_features)
        ref = aggregate(small_rmat, small_features, kernel="reordered")
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-5)

    def test_explicit_num_blocks_forces_blocked(self, small_rmat, small_features):
        out = aggregate(small_rmat, small_features, num_blocks=8)
        ref = aggregate(small_rmat, small_features, kernel="reference")
        np.testing.assert_allclose(out, ref, rtol=1e-4)

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

    def test_blocked_builds_and_tunes_once(
        self, small_rmat, small_features, monkeypatch
    ):
        """Regression: ``kernel="blocked"`` on a plain CSRGraph re-ran the
        O(E) block build — and, untuned, the seven-candidate traffic
        sweep — on every call; both now live in the cached plan."""
        counts = {"build": 0, "sweep": 0}
        real_build, real_sweep = engine.build_blocks, engine.choose_num_blocks

        def build(graph, num_blocks):
            counts["build"] += 1
            return real_build(graph, num_blocks)

        def sweep(graph, dim):
            counts["sweep"] += 1
            return max(real_sweep(graph, dim), 2)

        monkeypatch.setattr(engine, "build_blocks", build)
        monkeypatch.setattr(engine, "choose_num_blocks", sweep)
        first = aggregate(small_rmat, small_features, kernel="blocked")
        assert counts == {"build": 1, "sweep": 1}
        again = aggregate(small_rmat, small_features, kernel="blocked")
        assert counts == {"build": 1, "sweep": 1}
        assert np.array_equal(first, again)
        # an explicit count never sweeps, and builds once per count
        for _ in range(2):
            aggregate(small_rmat, small_features, kernel="blocked", num_blocks=3)
        assert counts == {"build": 2, "sweep": 1}


class TestInstrumentation:
    def test_timer_accumulates(self, small_rmat, small_features):
        AP_TIMER.reset()
        aggregate(small_rmat, small_features, kernel="reordered")
        assert AP_TIMER.calls == 1
        assert AP_TIMER.elapsed_s > 0
        aggregate(small_rmat, small_features, kernel="reordered")
        assert AP_TIMER.calls == 2

    def test_reset(self, small_rmat, small_features):
        aggregate(small_rmat, small_features, kernel="reordered")
        AP_TIMER.reset()
        assert AP_TIMER.calls == 0
        assert AP_TIMER.elapsed_s == 0.0
