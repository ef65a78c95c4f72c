"""OpenMP scheduling simulator (``repro.perf.scheduling``, the Fig. 4 "DS" model)."""

import numpy as np
import pytest

from repro.graph.generators import rmat_graph, sbm_graph
from repro.perf.scheduling import (
    per_destination_work,
    scheduling_gain,
    simulate_schedule,
)


class TestSimulate:
    def test_uniform_work_balances(self):
        work = np.ones(1000)
        res = simulate_schedule(work, 10, policy="static")
        assert res.imbalance == pytest.approx(1.0, abs=0.01)

    def test_single_thread(self):
        work = np.random.default_rng(0).random(100)
        res = simulate_schedule(work, 1, policy="dynamic")
        assert res.makespan == pytest.approx(work.sum())

    def test_dynamic_beats_static_on_skew(self):
        # all the work in one contiguous range -> static assigns it to one thread
        work = np.zeros(1000)
        work[:100] = 100.0
        st = simulate_schedule(work, 10, policy="static")
        dy = simulate_schedule(work, 10, policy="dynamic", chunk=10)
        assert dy.makespan < st.makespan

    def test_makespan_bounds(self):
        rng = np.random.default_rng(1)
        work = rng.random(500) * 10
        for policy in ("static", "dynamic"):
            res = simulate_schedule(work, 8, policy=policy)
            assert res.makespan >= res.ideal - 1e-9
            assert res.makespan <= work.sum() + 1e-9

    def test_efficiency_inverse_of_imbalance(self):
        work = np.ones(64)
        res = simulate_schedule(work, 4, policy="dynamic")
        assert res.efficiency == pytest.approx(1.0 / res.imbalance)

    def test_empty_work(self):
        res = simulate_schedule(np.zeros(0), 4)
        assert res.makespan == 0.0

    def test_static_more_threads_than_items(self):
        """Regression: the equal-count split has duplicate split points
        when num_threads > work.size; the makespan must still be the
        heaviest single item and idle threads contribute zero."""
        work = np.array([5.0, 3.0])
        res = simulate_schedule(work, 8, policy="static")
        assert res.makespan == 5.0
        assert res.ideal == pytest.approx(work.sum() / 8)

    def test_static_single_item(self):
        res = simulate_schedule(np.array([2.0]), 4, policy="static")
        assert res.makespan == 2.0

    def test_dynamic_more_threads_than_chunks(self):
        res = simulate_schedule(np.array([4.0, 1.0]), 8, policy="dynamic", chunk=1)
        assert res.makespan == 4.0

    def test_invalid_policy(self):
        with pytest.raises(ValueError, match="policy"):
            simulate_schedule(np.ones(4), 2, policy="guided")

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            simulate_schedule(np.ones(4), 0)


class TestGraphLevel:
    def test_per_destination_work(self, tiny_graph):
        w = per_destination_work(tiny_graph, feature_dim=3)
        assert w[1] == 3 * 3  # in-degree 3

    def test_powerlaw_gains_more_than_uniform(self):
        skewed = rmat_graph(scale=11, edge_factor=8.0, a=0.7, seed=0)
        uniform = sbm_graph([1024], p_in=0.008, p_out=0.0, seed=0)
        g_skew = scheduling_gain(skewed, num_threads=28)
        g_uni = scheduling_gain(uniform, num_threads=28)
        assert g_skew > g_uni
        assert g_uni == pytest.approx(1.0, abs=0.25)

    def test_gain_at_least_one(self, small_rmat):
        # dynamic never loses to static in the list-scheduling model
        assert scheduling_gain(small_rmat, num_threads=8) >= 0.99
