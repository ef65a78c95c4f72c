"""World / Communicator semantics."""

import numpy as np
import pytest

from repro.comm import World
from repro.comm.communicator import SyncPoint


class TestWorld:
    def test_size_validation(self):
        with pytest.raises(ValueError):
            World(0)

    def test_epoch_clock(self):
        w = World(2)
        assert w.epoch == 0
        assert w.advance_epoch() == 1
        assert w.epoch == 1

    def test_communicator_handles(self):
        w = World(3)
        comms = w.communicators()
        assert [c.rank for c in comms] == [0, 1, 2]
        assert all(c.size == 3 for c in comms)

    def test_rank_bounds(self):
        w = World(2)
        with pytest.raises(ValueError):
            w.communicator(2)


class TestPointToPoint:
    def test_send_recv_same_epoch(self):
        w = World(2)
        w.communicator(0).isend(1, np.arange(4), tag="x", delay=0)
        msgs = w.communicator(1).recv_ready(tag="x")
        assert len(msgs) == 1
        assert np.array_equal(msgs[0].payload, np.arange(4))

    def test_delayed_until_epoch(self):
        w = World(2)
        w.communicator(0).isend(1, np.ones(2), tag="d", delay=2)
        assert w.communicator(1).recv_ready(tag="d") == []
        w.advance_epoch()
        assert w.communicator(1).recv_ready(tag="d") == []
        w.advance_epoch()
        assert len(w.communicator(1).recv_ready(tag="d")) == 1

    def test_tag_filtering(self):
        w = World(2)
        c0 = w.communicator(0)
        c0.isend(1, np.zeros(1), tag="a")
        c0.isend(1, np.zeros(1), tag="b")
        got_a = w.communicator(1).recv_ready(tag="a")
        assert len(got_a) == 1 and got_a[0].tag == "a"
        assert len(w.communicator(1).recv_ready(tag="b")) == 1

    def test_drain_removes(self):
        w = World(2)
        w.communicator(0).isend(1, np.zeros(1), tag="x")
        assert len(w.communicator(1).recv_ready(tag="x")) == 1
        assert w.communicator(1).recv_ready(tag="x") == []

    def test_bytes_counted(self):
        w = World(2)
        payload = np.zeros(10, dtype=np.float32)
        w.communicator(0).isend(1, payload)
        assert w.counters.bytes_sent[0] == 40
        assert w.counters.bytes_received[1] == 40

    def test_self_send_free(self):
        w = World(2)
        w.communicator(0).isend(0, np.zeros(10))
        assert w.counters.bytes_sent[0] == 0
        assert len(w.communicator(0).recv_ready()) == 1

    def test_fifo_order(self):
        w = World(2)
        for i in range(3):
            w.communicator(0).isend(1, np.array([i]))
        msgs = w.communicator(1).recv_ready()
        assert [int(m.payload[0]) for m in msgs] == [0, 1, 2]

    def test_drain_orders_by_post_epoch_then_source(self):
        """Receives come sorted by ``(post_epoch, src)`` — the shm
        backend's order — whatever order the ranks posted in."""
        w = World(3)
        w.communicator(2).isend(1, np.array([0]), delay=1)  # epoch 0
        w.advance_epoch()
        w.communicator(2).isend(1, np.array([1]))
        w.communicator(0).isend(1, np.array([2]))
        msgs = w.communicator(1).recv_ready()
        assert [(m.post_epoch, m.src) for m in msgs] == [(0, 2), (1, 0), (1, 2)]
        assert [int(m.payload[0]) for m in msgs] == [0, 2, 1]

    def test_undelivered_messages_stay_buffered(self):
        """A delayed message is in flight (charged as buffer memory)
        until its epoch, and an earlier drain leaves it queued."""
        w = World(2)
        w.communicator(0).isend(1, np.zeros(4, dtype=np.float32), tag="d", delay=1)
        w.communicator(0).isend(1, np.zeros(2, dtype=np.float32), tag="d")
        assert w.queue.in_flight_bytes() == 24
        assert len(w.communicator(1).recv_ready(tag="d")) == 1
        assert w.queue.in_flight_bytes() == 16
        w.advance_epoch()
        assert len(w.communicator(1).recv_ready(tag="d")) == 1
        assert w.queue.in_flight_bytes() == 0

    def test_untagged_receive_takes_every_tag(self):
        w = World(2)
        for tag in ("a", "b", None):
            w.communicator(0).isend(1, np.zeros(1), tag=tag)
        assert [m.tag for m in w.communicator(1).recv_ready()] == ["a", "b", None]


class TestSyncPoints:
    def test_barrier_is_a_bare_sync_point(self):
        point = World(2).communicator(1).barrier()
        assert point == SyncPoint() and point.array is None

    def test_all_reduce_carries_array_and_op(self):
        point = World(2).communicator(0).all_reduce([1.0, 2.0], op="max")
        assert isinstance(point.array, np.ndarray)
        assert point.array.tolist() == [1.0, 2.0] and point.op == "max"
