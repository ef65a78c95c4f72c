"""Epoch-time model: Fig. 5/6 shape contracts."""

import pytest

from repro.perf.epochmodel import (
    DatasetScale,
    EpochModel,
    PartitionProfile,
    profiles_from_standin,
)


@pytest.fixture
def products_model():
    scale = DatasetScale(
        name="ogbn-products",
        num_vertices=2_449_029,
        num_edges=123_718_280,
        feature_dim=100,
        hidden_dims=(256, 256),
        num_classes=47,
        cache_reuse=2.0,
    )
    profiles = {
        p: PartitionProfile(p, rf, split)
        for p, rf, split in [
            (2, 1.49, 0.4),
            (4, 2.16, 0.6),
            (8, 2.98, 0.7),
            (16, 3.90, 0.8),
            (32, 4.85, 0.85),
            (64, 5.74, 0.9),
        ]
    }
    return EpochModel(scale, profiles)


class TestBreakdown:
    def test_algorithm_time_ordering(self, products_model):
        """Fig. 5: 0c fastest, cd-0 slowest, cd-r between."""
        for p in (4, 16, 64):
            t0c = products_model.breakdown(p, "0c").total
            tcd5 = products_model.breakdown(p, "cd-5").total
            tcd0 = products_model.breakdown(p, "cd-0").total
            assert t0c < tcd5 < tcd0

    def test_0c_has_no_remote_time(self, products_model):
        b = products_model.breakdown(16, "0c")
        assert b.rat_total == 0.0

    def test_cdr_hides_wire_time(self, products_model):
        """cd-r's RAT is pre/post-processing only (Section 6.3)."""
        b = products_model.breakdown(16, "cd-5")
        assert b.rat_comm == 0.0
        assert b.rat_pre_post > 0.0

    def test_cd0_exposes_wire_time(self, products_model):
        b = products_model.breakdown(16, "cd-0")
        assert b.rat_comm > 0.0

    def test_lat_shrinks_with_partitions(self, products_model):
        """Fig. 6: local aggregation scales with socket count."""
        lats = [
            products_model.breakdown(p, "cd-5").lat_forward for p in (2, 8, 32)
        ]
        assert lats[0] > lats[1] > lats[2]

    def test_speedup_grows_sublinearly(self, products_model):
        base = products_model.single_socket_time()
        speedups = {p: base / products_model.breakdown(p, "0c").total for p in (4, 16, 64)}
        assert speedups[4] < speedups[16] < speedups[64]
        assert speedups[64] < 64  # sublinear (Fig. 5 shows 16.1x)

    def test_single_socket_no_allreduce(self, products_model):
        assert products_model.breakdown(1, "0c").allreduce == 0.0

    def test_missing_profile(self, products_model):
        with pytest.raises(KeyError):
            products_model.breakdown(128, "0c")


class TestProfilesFromStandin:
    def test_measured_profiles(self, products_mini):
        profiles = profiles_from_standin(products_mini.graph, [2, 4], seed=0)
        assert profiles[2].replication_factor < profiles[4].replication_factor
        assert profiles[2].edge_balance >= 1.0
        assert 0.0 <= profiles[2].split_fraction <= 1.0
