"""The simulated AllReduce."""

import numpy as np
import pytest

from repro.comm import World, all_reduce
from repro.comm.collectives import reduce_in_rank_order


class TestAllReduce:
    def test_sum(self):
        w = World(3)
        arrays = [np.full(4, float(r)) for r in range(3)]
        out = all_reduce(w, arrays, op="sum")
        for o in out:
            assert np.array_equal(o, np.full(4, 3.0))

    @pytest.mark.parametrize("op,expected", [("mean", 1.0), ("max", 2.0), ("min", 0.0)])
    def test_other_ops(self, op, expected):
        w = World(3)
        arrays = [np.full(2, float(r)) for r in range(3)]
        out = all_reduce(w, arrays, op=op)
        assert np.all(out[0] == expected)

    def test_output_independent_copies(self):
        w = World(2)
        out = all_reduce(w, [np.zeros(2), np.zeros(2)])
        out[0][0] = 99
        assert out[1][0] == 0

    def test_shape_mismatch(self):
        w = World(2)
        with pytest.raises(ValueError, match="identical shapes"):
            all_reduce(w, [np.zeros(2), np.zeros(3)])

    def test_wrong_rank_count(self):
        w = World(3)
        with pytest.raises(ValueError, match="per rank"):
            all_reduce(w, [np.zeros(1)] * 2)

    def test_unknown_op(self):
        w = World(2)
        with pytest.raises(ValueError):
            all_reduce(w, [np.zeros(1)] * 2, op="median")

    def test_ring_byte_accounting(self):
        w = World(4)
        all_reduce(w, [np.zeros(100, dtype=np.float32)] * 4)
        expected = int(2 * 3 / 4 * 400)
        assert w.counters.bytes_sent[0] == expected

    def test_single_rank_free(self):
        w = World(1)
        all_reduce(w, [np.ones(5)])
        assert w.counters.total_bytes == 0

    def test_reduction_runs_in_rank_order(self):
        """float32 addition is not associative: ``(1e8 + 1) - 1e8`` is 0
        in rank order and 1 in an order that cancels first — both
        backends rely on the rank-order result."""
        arrays = [np.array([x], dtype=np.float32) for x in (1e8, 1.0, -1e8)]
        assert reduce_in_rank_order(arrays)[0] == 0.0
        assert reduce_in_rank_order([arrays[0], arrays[2], arrays[1]])[0] == 1.0
        out = all_reduce(World(3), arrays)
        assert all(np.array_equal(o, reduce_in_rank_order(arrays)) for o in out)

    def test_every_call_counted_symmetrically(self):
        w = World(3)
        for _ in range(2):
            all_reduce(w, [np.zeros(6, dtype=np.float32)] * 3, op="max")
        assert w.counters.collective_calls == {"all_reduce": 2}
        assert w.counters.bytes_sent == w.counters.bytes_received
        assert w.counters.messages_sent == [0, 0, 0]  # not point-to-point

