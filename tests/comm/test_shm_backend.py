"""The multi-process shared-memory backend.

Covers the ``Communicator`` surface parity with the simulator (p2p with
epoch-delayed delivery, deterministic drain order, collectives and their
byte accounting), the shared-memory payload transport, and the failure
model (deadlocks fail fast, worker exceptions propagate).
"""

import numpy as np
import pytest

from repro.comm import (
    BACKENDS,
    ShmWorld,
    World,
    all_reduce,
    create_world,
    validate_backend,
)
from repro.comm.shm import SHM_PAYLOAD_THRESHOLD

TIMEOUT = 30.0


# -- registry -----------------------------------------------------------------


def test_backend_registry():
    assert set(BACKENDS) == {"sim", "shm"}
    assert validate_backend("sim") == "sim"
    with pytest.raises(KeyError, match="unknown execution backend"):
        validate_backend("mpi")
    assert isinstance(create_world("sim", 2), World)
    assert isinstance(create_world("shm", 2, timeout=TIMEOUT), ShmWorld)


def test_world_validation():
    with pytest.raises(ValueError):
        ShmWorld(0)
    with pytest.raises(ValueError):
        ShmWorld(2, timeout=0)
    with pytest.raises(ValueError):
        ShmWorld(2, timeout=TIMEOUT).communicator(5)


# -- point-to-point ------------------------------------------------------------


@pytest.mark.parametrize("num_ranks", [2, 4])
def test_p2p_roundtrip_with_delay(num_ranks):
    def worker(comm):
        peer = (comm.rank + 1) % comm.size
        comm.isend(peer, np.full((3,), comm.rank, dtype=np.float32), tag="t", delay=1)
        comm.barrier()
        early = len(comm.recv_ready(tag="t"))
        comm.advance_epoch()
        msgs = comm.recv_ready(tag="t")
        return {
            "early": early,
            "srcs": [m.src for m in msgs],
            "vals": [float(m.payload[0]) for m in msgs],
            "epochs": [(m.post_epoch, m.deliver_epoch) for m in msgs],
        }

    world = ShmWorld(num_ranks, timeout=TIMEOUT)
    results = world.run(worker)
    for rank, res in enumerate(results):
        src = (rank - 1) % num_ranks
        # invisible at epoch 0, and the early drain left it in the mailbox
        assert res["early"] == 0, "delay=1 message must be invisible at epoch 0"
        assert res["srcs"] == [src]
        assert res["vals"] == [float(src)]
        assert res["epochs"] == [(0, 1)]
    assert world.in_flight_bytes() == 0


def test_tag_filtering_keeps_unmatched_messages():
    def worker(comm):
        peer = (comm.rank + 1) % comm.size
        comm.isend(peer, np.zeros(1), tag="a")
        comm.isend(peer, np.ones(1), tag="b")
        comm.barrier()
        got_a = [m.tag for m in comm.recv_ready(tag="a")]
        got_b = [m.tag for m in comm.recv_ready(tag="b")]
        leftover = comm.recv_ready()
        return got_a, got_b, len(leftover)

    for got_a, got_b, leftover in ShmWorld(2, timeout=TIMEOUT).run(worker):
        assert got_a == ["a"] and got_b == ["b"] and leftover == 0


def test_recv_order_matches_lockstep_fifo():
    """Ripe messages drain ordered by (post_epoch, src, send order), the
    order the lockstep simulator's FIFO mailboxes produce — regardless
    of multi-process arrival order."""

    def worker(comm):
        if comm.rank == 0:
            comm.barrier()
            comm.advance_epoch()
            comm.barrier()
            comm.advance_epoch()
            comm.barrier()
            msgs = comm.recv_ready(tag="m")
            return [(m.post_epoch, m.src, float(m.payload[0])) for m in msgs]
        # each sender posts two messages per epoch, for two epochs
        for epoch in range(2):
            for k in range(2):
                comm.isend(0, np.full((1,), 10 * epoch + k), tag="m")
            comm.barrier()
            comm.advance_epoch()
        comm.barrier()
        return None

    results = ShmWorld(3, timeout=TIMEOUT).run(worker)
    expected = [
        (epoch, src, float(10 * epoch + k))
        for epoch in range(2)
        for src in (1, 2)
        for k in range(2)
    ]
    assert results[0] == expected


def test_large_payload_rides_shared_memory():
    shape = (SHM_PAYLOAD_THRESHOLD // 4, 2)  # well above the threshold

    def worker(comm):
        rng = np.random.default_rng(comm.rank)
        data = rng.standard_normal(shape).astype(np.float32)
        comm.isend(1 - comm.rank, data, tag="big")
        comm.barrier()
        (msg,) = comm.recv_ready(tag="big")
        expected = np.random.default_rng(msg.src).standard_normal(shape).astype(
            np.float32
        )
        return bool(np.array_equal(msg.payload, expected))

    assert ShmWorld(2, timeout=TIMEOUT).run(worker) == [True, True]


def test_payload_snapshot_at_post_time():
    """Mutating the send buffer after isend must not corrupt the wire."""

    def worker(comm):
        buf = np.full((4,), float(comm.rank))
        comm.isend(1 - comm.rank, buf, tag="s")
        buf[:] = -1.0
        comm.barrier()
        (msg,) = comm.recv_ready(tag="s")
        return float(msg.payload[0])

    assert ShmWorld(2, timeout=TIMEOUT).run(worker) == [1.0, 0.0]


# -- collectives ---------------------------------------------------------------


@pytest.mark.parametrize("num_ranks", [2, 4])
@pytest.mark.parametrize("op", ["sum", "mean", "max", "min"])
def test_allreduce_matches_sim(num_ranks, op):
    rng = np.random.default_rng(0)
    inputs = [rng.standard_normal((5, 3)).astype(np.float32) for _ in range(num_ranks)]

    def worker(comm):
        return comm.all_reduce(inputs[comm.rank], op=op)

    shm_world = ShmWorld(num_ranks, timeout=TIMEOUT)
    shm_out = shm_world.run(worker)
    sim_world = World(num_ranks)
    sim_out = all_reduce(sim_world, inputs, op=op)
    for a, b in zip(shm_out, sim_out):
        np.testing.assert_array_equal(a, b)  # bit-identical reduction
    shm_c, sim_c = shm_world.counters, sim_world.counters
    assert shm_c.bytes_sent == sim_c.bytes_sent
    assert shm_c.bytes_received == sim_c.bytes_received
    assert shm_c.collective_calls == sim_c.collective_calls


def test_interleaved_collectives_and_p2p():
    """Back-to-back collectives of different shapes and ops must not
    cross-talk even when ranks race ahead (the sequence-number
    rendezvous)."""

    def worker(comm):
        out = []
        for i in range(5):
            comm.isend(1 - comm.rank, np.full((2,), float(i)), tag=("p", i))
            total = comm.all_reduce(np.full((2,), float(comm.rank + i)))
            peak = comm.all_reduce(np.full((1,), float(10 * comm.rank + i)), op="max")
            out.append((float(total[0]), float(peak[0])))
        comm.barrier()
        got = [len(comm.recv_ready(tag=("p", i))) for i in range(5)]
        return out, got

    results = ShmWorld(2, timeout=TIMEOUT).run(worker)
    for out, got in results:
        for i, (total, peak) in enumerate(out):
            assert total == float((0 + i) + (1 + i))
            assert peak == float(10 + i)
        assert got == [1] * 5


# -- rank programs: one generator, two drivers ---------------------------------


def _ring_program(comm):
    """A rank program over the shared communicator surface: p2p around a
    ring, a barrier, then an AllReduce whose result it returns."""
    peer = (comm.rank + 1) % comm.size
    comm.isend(peer, np.full((2,), float(comm.rank)), tag="ring")
    yield comm.barrier()
    (msg,) = comm.recv_ready(tag="ring")
    total = yield comm.all_reduce(msg.payload + comm.rank)
    return msg.src, float(total[0]), comm.size, comm.epoch


@pytest.mark.parametrize("num_ranks", [2, 4])
def test_rank_program_drivers_agree(num_ranks):
    """``ShmCommunicator.run_program`` (sync points block) and
    ``World.run_programs`` (ranks stepped between sync points) give the
    same results and the same counters for the same program."""

    def worker(comm):
        return comm.run_program(_ring_program(comm))

    shm_world = ShmWorld(num_ranks, timeout=TIMEOUT)
    shm_out = shm_world.run(worker)
    sim_world = World(num_ranks)
    sim_out = sim_world.run_programs(
        [_ring_program(comm) for comm in sim_world.communicators()]
    )
    assert shm_out == sim_out
    total = float(sum(2 * r for r in range(num_ranks)))
    for rank, (src, value, size, epoch) in enumerate(sim_out):
        assert src == (rank - 1) % num_ranks
        assert (value, size, epoch) == (total, num_ranks, 0)
    shm_c, sim_c = shm_world.counters, sim_world.counters
    assert shm_c.bytes_sent == sim_c.bytes_sent
    assert shm_c.bytes_received == sim_c.bytes_received
    assert shm_c.messages_sent == sim_c.messages_sent
    assert shm_c.collective_calls == sim_c.collective_calls


def test_sim_driver_rejects_diverging_programs():
    """SPMD discipline: every rank reaches the same sync points in the
    same order — a program that does not is a programming error and
    raises immediately instead of mis-pairing collectives."""

    def program(comm):
        if comm.rank == 0:
            yield comm.barrier()
        else:
            yield comm.all_reduce(np.zeros(1))

    def short(comm):
        if comm.rank == 0:
            yield comm.barrier()

    world = World(2)
    with pytest.raises(RuntimeError, match="disagree"):
        world.run_programs([program(c) for c in world.communicators()])
    with pytest.raises(RuntimeError, match="disagree"):
        world.run_programs([short(c) for c in world.communicators()])
    with pytest.raises(ValueError, match="one rank program per rank"):
        world.run_programs([])


# -- failure model -------------------------------------------------------------


def test_worker_exception_propagates():
    def worker(comm):
        if comm.rank == 1:
            raise ValueError("boom in worker")
        return comm.rank

    with pytest.raises(RuntimeError, match="boom in worker"):
        ShmWorld(2, timeout=TIMEOUT).run(worker)


def test_timeout_bounds_waits_not_total_runtime():
    """The world timeout caps individual blocking waits, not the whole
    run: a healthy fit longer than the timeout must complete."""
    import time

    def worker(comm):
        for _ in range(4):
            comm.barrier()
            time.sleep(0.4)
        return comm.rank

    assert ShmWorld(2, timeout=1.0).run(worker) == [0, 1]


def test_hard_killed_worker_detected():
    """A worker that dies without reporting (SIGKILL/OOM) fails the run
    with a diagnosis instead of hanging the parent."""
    import os
    import signal

    def worker(comm):
        if comm.rank == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        comm.barrier()
        return comm.rank

    with pytest.raises(RuntimeError, match="died without reporting"):
        ShmWorld(2, timeout=3.0).run(worker)


def test_barrier_deadlock_fails_fast():
    """A rank skipping a barrier must fail the run within the timeout
    instead of hanging the suite (the CI contract for shm jobs)."""

    def worker(comm):
        if comm.rank == 0:
            comm.barrier()  # rank 1 never arrives
        return comm.rank

    with pytest.raises(RuntimeError):
        ShmWorld(2, timeout=2.0).run(worker)


# -- counter parity on a scripted exchange -------------------------------------


def _exchange_script(num_ranks):
    """A deterministic mixed script: p2p at several delays + collectives."""
    rng = np.random.default_rng(42)
    sends = []
    for epoch in range(3):
        for src in range(num_ranks):
            for dst in range(num_ranks):
                if src == dst:
                    continue
                size = int(rng.integers(1, 50))
                delay = int(rng.integers(0, 3))
                sends.append((epoch, src, dst, size, delay))
    return sends


@pytest.mark.parametrize("num_ranks", [2, 4])
def test_scripted_exchange_counters_match_sim(num_ranks):
    sends = _exchange_script(num_ranks)

    def worker(comm):
        for epoch in range(3):
            for e, src, dst, size, delay in sends:
                if e == epoch and src == comm.rank:
                    comm.isend(dst, np.zeros(size, dtype=np.float32), delay=delay)
            comm.all_reduce(np.ones((4, 2), dtype=np.float32))
            comm.barrier()
            comm.recv_ready()
            comm.advance_epoch()
        return None

    shm_world = ShmWorld(num_ranks, timeout=TIMEOUT)
    shm_world.run(worker)

    sim_world = World(num_ranks)
    comms = sim_world.communicators()
    for epoch in range(3):
        for e, src, dst, size, delay in sends:
            if e == epoch:
                comms[src].isend(dst, np.zeros(size, dtype=np.float32), delay=delay)
        all_reduce(sim_world, [np.ones((4, 2), dtype=np.float32)] * num_ranks)
        for rank in range(num_ranks):
            comms[rank].recv_ready()
        sim_world.advance_epoch()

    shm_c, sim_c = shm_world.counters, sim_world.counters
    assert shm_c.bytes_sent == sim_c.bytes_sent
    assert shm_c.bytes_received == sim_c.bytes_received
    assert shm_c.messages_sent == sim_c.messages_sent
    assert shm_c.collective_calls == sim_c.collective_calls
