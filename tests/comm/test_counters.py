"""Byte counters."""

import numpy as np

from repro.comm import CommCounters, World


class TestCounters:
    def test_snapshot_delta(self):
        w = World(2)
        before = w.counters.snapshot()
        w.communicator(0).isend(1, np.zeros(25, dtype=np.float64))
        delta = w.counters.delta_since(before)
        assert delta.bytes_sent[0] == 200
        assert delta.bytes_sent[1] == 0

    def test_total(self):
        c = CommCounters(2)
        c.record_p2p(0, 1, 100)
        c.record_p2p(1, 0, 50)
        assert c.total_bytes == 150

    def test_collective_accounting(self):
        c = CommCounters(2)
        c.record_collective("all_reduce", [(10, 10), (10, 10)])
        assert c.collective_calls["all_reduce"] == 1
        assert c.bytes_sent == [10, 10]

    def test_reset(self):
        c = CommCounters(2)
        c.record_p2p(0, 1, 5)
        c.reset()
        assert c.total_bytes == 0

