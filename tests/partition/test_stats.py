"""Partition statistics."""

import numpy as np
import pytest

from repro.partition import (
    build_partitions,
    libra_partition,
    partition_stats,
    random_edge_partition,
)
from repro.partition.stats import communication_volume


@pytest.fixture
def parted(small_rmat):
    return build_partitions(small_rmat, libra_partition(small_rmat, 4, seed=0), 4)


def test_stats_fields(parted):
    st = partition_stats(parted)
    assert st.num_partitions == 4
    assert st.replication_factor >= 1.0
    assert st.edge_balance >= 1.0
    assert 0.0 <= st.split_vertex_fraction <= 1.0
    assert 0.0 <= st.avg_split_fraction_per_partition <= 1.0
    assert st.min_edges <= st.max_edges


def test_libra_balance_near_perfect(parted):
    assert partition_stats(parted).edge_balance < 1.1


def test_communication_volume_counts_leaf_routes(parted):
    vol = communication_volume(parted, feature_dim=10, feature_bytes=4)
    clones = parted.membership.sum(axis=1)
    leaves = int(np.maximum(clones - 1, 0).sum())
    assert vol == 2 * leaves * 40


def test_volume_scales_with_dim(parted):
    assert communication_volume(parted, 20) == 2 * communication_volume(parted, 10)


def test_single_partition_no_volume(small_rmat):
    parted = build_partitions(
        small_rmat, np.zeros(small_rmat.num_edges, dtype=int), 1
    )
    assert communication_volume(parted, 8) == 0.0
    assert partition_stats(parted).replication_factor == 1.0
