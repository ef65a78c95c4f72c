"""Byte counters and the network cost model."""

import numpy as np
import pytest

from repro.comm import CommCounters, HDR_200G, NetworkModel, World
from repro.comm.netmodel import ETH_10G


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


class TestNetworkModel:
    def test_collective_time_monotone_in_bytes(self):
        assert HDR_200G.collective_time(1e9) > HDR_200G.collective_time(1e6)

    def test_latency_floor(self):
        assert HDR_200G.collective_time(0) == HDR_200G.latency_s

    def test_hdr_faster_than_eth(self):
        nbytes = 1e8
        assert HDR_200G.collective_time(nbytes) < ETH_10G.collective_time(nbytes)

    def test_collective_efficiency_derates(self):
        full = NetworkModel("x", 0.0, 1e9, collective_efficiency=1.0)
        half = NetworkModel("x", 0.0, 1e9, collective_efficiency=0.5)
        assert half.collective_time(1e6) == 2 * full.collective_time(1e6)
