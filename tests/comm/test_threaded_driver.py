"""The threaded sim driver equals the rank-order oracle.

``World.run_programs`` runs the rank programs side by side on the
``repro-rank`` threads between sync points.  Its licence is
``sim_oracle.run_programs_in_rank_order`` — the loop it replaced: on
random SPMD programs (p2p posts with random destinations, tags, delays
and sizes, barriers, sum / max AllReduces, sleep jitter so that thread
interleavings vary) and on the distributed trainer, both drivers give
equal return values, drained message sequences, reductions, counters
and trained bits, at 1, 2 and 4 rank threads.
"""

import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.comm import World
from repro.core import DistributedTrainer, TrainConfig
from repro.graph.datasets import load_dataset
from repro.kernels import flush_subnormals, fpenv
from repro.nn.tensor import grad_enabled
from repro.obs.trace import Tracer, activate, current_span
from sim_oracle import force_pool_size, run_programs_in_rank_order, use_oracle

POOL_SIZES = [1, 2, 4]
MAX_RANKS = 4
NUM_TAGS = 2

#: one rank's posts in one stretch: (dst, tag, delay, float32 words)
posts = st.lists(
    st.tuples(
        st.integers(0, MAX_RANKS - 1),
        st.integers(0, NUM_TAGS - 1),
        st.integers(0, 2),
        st.integers(0, 16),
    ),
    max_size=4,
)
#: one stretch: every rank's posts, then the sync point that ends it
stretches = st.tuples(
    st.lists(posts, min_size=MAX_RANKS, max_size=MAX_RANKS),
    st.sampled_from(["barrier", "sum", "max"]),
)
#: (ranks, the stretches of each epoch, seed)
scripts = st.tuples(
    st.integers(2, MAX_RANKS),
    st.lists(st.lists(stretches, min_size=1, max_size=4), min_size=1, max_size=3),
    st.integers(0, 2**32 - 1),
)


def _program(comm, epoch, script, seed):
    """One rank's epoch.  Each stretch drains every tag posted in an
    earlier stretch (all of those posts happened before a sync point, so
    what is ripe does not depend on the interleaving), posts its own
    messages and ends at its sync point; returns what it drained and
    what it was handed."""
    jitter = np.random.default_rng([seed, epoch, comm.rank])
    log = []

    def drain(stretch):
        for tag in [(s, k) for s in range(stretch) for k in range(NUM_TAGS)]:
            for msg in comm.recv_ready(tag=tag):
                log.append(
                    (msg.src, msg.tag, msg.post_epoch, msg.deliver_epoch,
                     msg.payload.tobytes())
                )

    for s, (per_rank, sync) in enumerate(script):
        time.sleep(jitter.uniform(0, 1e-3))
        drain(s)
        for i, (dst, k, delay, words) in enumerate(per_rank[comm.rank]):
            payload = np.full(words, 100 * comm.rank + 10 * s + i, np.float32)
            comm.isend(dst % comm.size, payload, tag=(s, k), delay=delay)
        time.sleep(jitter.uniform(0, 1e-3))
        if sync == "barrier":
            log.append(("barrier", (yield comm.barrier())))
        else:
            mine = np.random.default_rng([seed, epoch, s, comm.rank]).standard_normal(3)
            log.append((sync, (yield comm.all_reduce(mine, op=sync)).tobytes()))
    drain(len(script))
    return log


def _run(driver, script):
    num_ranks, epochs, seed = script
    world = World(num_ranks)
    returned = []
    for epoch, stretches in enumerate(epochs):
        programs = [_program(c, epoch, stretches, seed) for c in world.communicators()]
        returned.append(driver(world, programs))
        world.advance_epoch()
    undelivered = [
        [(m.src, m.tag, m.post_epoch, m.payload.tobytes()) for m in world.queue.drain(r, 10**9)]
        for r in range(num_ranks)
    ]
    c = world.counters
    counters = (c.bytes_sent, c.bytes_received, c.messages_sent, c.collective_calls)
    return returned, undelivered, counters


@given(script=scripts)
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_spmd_programs_equal_the_oracle(script):
    expected = _run(run_programs_in_rank_order, script)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the rank threads finely
    try:
        for size in POOL_SIZES:
            with pytest.MonkeyPatch.context() as mp:
                force_pool_size(mp, size)
                assert _run(World.run_programs, script) == expected, f"{size} rank threads"
    finally:
        sys.setswitchinterval(interval)


# -- the distributed trainer -----------------------------------------------------------


@pytest.fixture(scope="module")
def ds():
    return load_dataset("reddit", scale=0.05, seed=1)


def _trainer(ds, algorithm):
    cfg = TrainConfig(
        num_layers=2, hidden_features=16, learning_rate=0.01, eval_every=0, seed=0
    )
    return DistributedTrainer(ds, 4, algorithm=algorithm, config=cfg)


def _bits(trainer, epochs):
    """Everything exact a run leaves: per-epoch loss and bytes, the
    evaluation, every replica's parameters and gradients, the counters."""
    stats = [trainer.train_epoch(e) for e in range(epochs)]
    acc = trainer.evaluate()
    params = [
        [(p.data.tobytes(), None if p.grad is None else p.grad.tobytes())
         for p in rank.model.parameters()]
        for rank in trainer.ranks
    ]
    c = trainer.world.counters
    return (
        [(s.loss, s.comm_bytes) for s in stats], acc, params,
        (c.bytes_sent, c.bytes_received, c.messages_sent, c.collective_calls),
        trainer.world.queue.in_flight_bytes(),
    )


@pytest.mark.parametrize("size", [2, 4])
@pytest.mark.parametrize("algorithm", ["0c", "cd-0", "cd-2"])
def test_distributed_trainer_equals_the_oracle(ds, monkeypatch, algorithm, size):
    oracle = _trainer(ds, algorithm)
    use_oracle(monkeypatch, oracle.world)
    expected = _bits(oracle, 6)  # > 2 * delay: cd-2 completes round trips
    force_pool_size(monkeypatch, size)
    assert _bits(_trainer(ds, algorithm), 6) == expected


def test_concurrent_evaluate_equals_the_oracle(ds, monkeypatch):
    """Four ranks evaluate at once under ``no_grad``, which is per
    thread: same accuracies as the oracle, and the rank threads build
    tapes again afterwards (the next epoch's update is the oracle's)."""
    oracle, threaded = _trainer(ds, "cd-0"), _trainer(ds, "cd-0")
    use_oracle(monkeypatch, oracle.world)
    force_pool_size(monkeypatch, 4)
    for trainer in (oracle, threaded):
        trainer.train_epoch(0)
    assert threaded.evaluate() == oracle.evaluate()
    assert grad_enabled()
    assert threaded.train_epoch(1).loss == oracle.train_epoch(1).loss
    assert threaded.train_epoch(2).loss == oracle.train_epoch(2).loss


@pytest.mark.skipif(fpenv._LIBM is None, reason="FTZ/DAZ is set on x86-64 glibc only")
@pytest.mark.parametrize("size", POOL_SIZES)
def test_stretches_run_in_the_callers_fp_mode_and_span(monkeypatch, size):
    """A stretch on a rank thread sees what it would see on the caller's thread: the
    caller's flush-to-zero mode and the caller's current span."""
    force_pool_size(monkeypatch, size)
    world = World(4)

    def program(comm):
        seen = [(np.float32(1e-30) * np.float32(1e-10), current_span())]
        yield comm.barrier()
        seen.append((np.float32(1e-30) * np.float32(1e-10), current_span()))
        return seen

    span = Tracer(enabled=True).root("caller")
    with flush_subnormals(), activate(span):
        flushed = world.run_programs([program(c) for c in world.communicators()])
    plain = world.run_programs([program(c) for c in world.communicators()])
    assert all(seen == [(0.0, span)] * 2 for seen in flushed)
    assert all(seen[0][0] > 0 and seen[0][1] is None for seen in plain)


# -- failure model ----------------------------------------------------------------------


class Boom(Exception):
    pass


@pytest.mark.parametrize("size", POOL_SIZES)
def test_a_raising_rank_closes_every_program_and_hangs_nothing(monkeypatch, size):
    """Ranks 1 and 3 raise in the second stretch while rank 2 is still
    busy in it: the caller sees rank 1's original exception, every other
    program is closed (its ``finally`` ran), and the pool still works."""
    force_pool_size(monkeypatch, size)
    world = World(4)
    closed = []

    def program(comm):
        try:
            yield comm.barrier()
            if comm.rank == 2:
                time.sleep(0.02)
            if comm.rank in (1, 3):
                raise Boom(comm.rank)
            yield comm.barrier()
        finally:
            closed.append(comm.rank)

    outcome = {}

    def drive():
        try:
            world.run_programs([program(c) for c in world.communicators()])
        except Boom as err:
            outcome["error"] = err

    thread = threading.Thread(target=drive, daemon=True)
    thread.start()
    thread.join(30)
    assert not thread.is_alive(), "the driver hung"
    assert outcome["error"].args == (1,)
    assert sorted(closed) == [0, 1, 2, 3]
    _assert_the_pool_still_works(world)


@pytest.mark.parametrize("size", POOL_SIZES)
def test_an_interrupted_driver_closes_every_program_after_its_stretch(monkeypatch, size):
    """Ctrl-C reaches the driver while rank 2 is still busy in its
    stretch: the driver waits for that stretch before it closes the
    programs, so the caller sees the ``KeyboardInterrupt`` (not
    ``generator already executing``), every program is closed, and the
    pool still works."""
    if threading.current_thread() is not threading.main_thread() or (
        signal.getsignal(signal.SIGINT) is not signal.default_int_handler
    ):
        pytest.skip("an interrupt reaches the main thread's default SIGINT handler only")
    force_pool_size(monkeypatch, size)
    world = World(4)
    closed = []

    def program(comm):
        try:
            yield comm.barrier()
            if comm.rank == 0:  # a real signal: it wakes the driver's blocked wait
                signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
            if comm.rank == 2:
                time.sleep(0.2)
            yield comm.barrier()
        finally:
            closed.append(comm.rank)

    with pytest.raises(KeyboardInterrupt):
        world.run_programs([program(c) for c in world.communicators()])
    assert sorted(closed) == [0, 1, 2, 3]
    _assert_the_pool_still_works(world)


def _assert_the_pool_still_works(world):
    def ranks(comm):
        total = yield comm.all_reduce(np.array([comm.rank]))
        return int(total[0]), comm.rank

    assert world.run_programs([ranks(c) for c in world.communicators()]) == [
        (6, r) for r in range(4)
    ]
