"""Memory model (Table 6 contracts)."""

import pytest

from repro.perf.memory import (
    graphsage_memory_bytes,
    papers_partition_vertices,
)


PAPERS_ARGS = dict(
    feature_dim=128,
    hidden_dims=[256, 256],
    num_classes=172,
    split_fraction=0.9,
)


class TestModel:
    def test_total_is_sum_of_parts(self):
        m = graphsage_memory_bytes(1e6, **PAPERS_ARGS, algorithm="cd-0")
        assert m.total == pytest.approx(
            m.weights
            + m.input_features
            + m.activations
            + m.gradients
            + m.optimizer_state
            + m.comm_buffers
        )

    def test_algorithm_ordering_matches_table6(self):
        """Paper Table 6: cd-5 > cd-0 > 0c at every partition count."""
        n = papers_partition_vertices(32, 4.63)
        mems = {
            algo: graphsage_memory_bytes(n, **PAPERS_ARGS, algorithm=algo).total_GB
            for algo in ("0c", "cd-0", "cd-5")
        }
        assert mems["0c"] < mems["cd-0"] < mems["cd-5"]

    def test_memory_shrinks_with_partitions(self):
        """Paper: 199 -> 124 -> 78 GB for cd-0 at 32/64/128."""
        rfs = {32: 4.63, 64: 5.63, 128: 6.62}
        totals = [
            graphsage_memory_bytes(
                papers_partition_vertices(p, rf), **PAPERS_ARGS, algorithm="cd-0"
            ).total_GB
            for p, rf in rfs.items()
        ]
        assert totals[0] > totals[1] > totals[2]

    def test_papers_scale_magnitude(self):
        """cd-0 at 32 partitions lands in the paper's ~100-300 GB band."""
        n = papers_partition_vertices(32, 4.63)
        gb = graphsage_memory_bytes(n, **PAPERS_ARGS, algorithm="cd-0").total_GB
        assert 50 < gb < 400

    def test_zero_split_no_comm(self):
        m = graphsage_memory_bytes(
            1e5, 64, [32], 10, algorithm="cd-0", split_fraction=0.0
        )
        assert m.comm_buffers == 0.0

    def test_optimizer_state_is_two_adam_slots(self):
        """Adam keeps m and v per weight: twice the weights' bytes."""
        m = graphsage_memory_bytes(1e5, 64, [32], 10)
        assert m.weights == 4 * (64 * 32 + 32 * 10)
        assert m.optimizer_state == 2 * m.weights

    def test_partition_vertices_formula(self):
        assert papers_partition_vertices(32, 4.63) == pytest.approx(
            111_059_956 * 4.63 / 32
        )
