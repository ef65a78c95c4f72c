"""Byte-counter conservation across both execution backends.

Every point-to-point byte a rank sends is a byte some rank receives, and
collectives record matched (sent, received) volumes — so at any quiescent
point ``sum(bytes_sent) == sum(bytes_received)`` must hold, *including*
while delayed DRPA messages are still spanning epochs in flight (the
counters record at post time, on both backends) — and at every instant
a scrape can observe while the sim driver's rank threads record.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.comm import ShmWorld, World
from repro.core import DistributedTrainer, TrainConfig
from repro.graph.datasets import load_dataset
from repro.obs.registry import serving_registry
from sim_oracle import force_pool_size

#: (src, dst, words, delay) drawn over a 3-rank world, 3 epochs
message_scripts = st.lists(
    st.tuples(
        st.integers(0, 2),  # epoch posted
        st.integers(0, 2),  # src
        st.integers(0, 2),  # dst
        st.integers(1, 64),  # float32 words
        st.integers(0, 4),  # delay (may span past the last epoch)
    ),
    min_size=0,
    max_size=40,
)


def _assert_conserved(counters):
    assert sum(counters.bytes_sent) == sum(counters.bytes_received)


@given(script=message_scripts)
@settings(max_examples=25, deadline=None)
def test_sim_counters_conserved(script):
    world = World(3)
    comms = world.communicators()
    for epoch in range(3):
        for e, src, dst, words, delay in script:
            if e == epoch:
                comms[src].isend(
                    dst, np.zeros(words, dtype=np.float32), delay=delay
                )
        # drain some mailboxes mid-flight: draining must not disturb the
        # posted-time accounting
        comms[epoch % 3].recv_ready()
        world.advance_epoch()
        _assert_conserved(world.counters)
    _assert_conserved(world.counters)


@given(script=message_scripts)
@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_shm_counters_conserved(script):
    def worker(comm):
        for epoch in range(3):
            for e, src, dst, words, delay in script:
                if e == epoch and src == comm.rank:
                    comm.isend(
                        dst, np.zeros(words, dtype=np.float32), delay=delay
                    )
            comm.barrier()
            if comm.rank == epoch % 3:
                comm.recv_ready()
            comm.advance_epoch()
            comm.barrier()
        return None

    world = ShmWorld(3, timeout=30.0)
    world.run(worker)
    _assert_conserved(world.counters)


@pytest.mark.parametrize("backend", ["sim", "shm"])
def test_trainer_counters_conserved_with_delayed_drpa(backend):
    """cd-2 keeps aggregates in flight across epoch boundaries; the
    conservation law must hold on the live counters regardless."""
    ds = load_dataset("reddit", scale=0.05, seed=1)
    cfg = TrainConfig(
        num_layers=2, hidden_features=16, learning_rate=0.01,
        eval_every=0, seed=0,
    )
    trainer = DistributedTrainer(
        ds, 3, algorithm="cd-2", config=cfg, backend=backend
    )
    result = trainer.fit(num_epochs=5)
    counters = trainer.world.counters
    _assert_conserved(counters)
    assert result.peak_inflight_bytes > 0, "cd-2 must have messages in flight"
    assert counters.total_bytes > 0


def test_counters_conserved_under_a_scrape_of_a_threaded_fit(monkeypatch):
    """A scraper thread reads ``counters.snapshot()`` and the telemetry
    registry throughout a cd-0 fit whose three ranks record from their
    own threads: every reading is one instant, so it is conserved."""
    force_pool_size(monkeypatch, 3)
    ds = load_dataset("reddit", scale=0.05, seed=1)
    cfg = TrainConfig(
        num_layers=2, hidden_features=16, learning_rate=0.01,
        eval_every=1, seed=0,
    )
    trainer = DistributedTrainer(ds, 3, algorithm="cd-0", config=cfg)
    world, readings = trainer.world, []
    done = threading.Event()

    def registry_totals():
        families = {m.name: m for m in serving_registry(include_ap=False).collect()}
        return [
            sum(v for labels, v in families[name].samples if labels["world"] == world.obs_name)
            for name in ("repro_comm_bytes_sent_total", "repro_comm_bytes_received_total")
        ]

    def scrape():
        while not done.is_set():
            snap = world.counters.snapshot()
            readings.append((sum(snap.bytes_sent), sum(snap.bytes_received)))
            readings.append(tuple(registry_totals()))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    scraper = threading.Thread(target=scrape)
    scraper.start()
    try:
        trainer.fit(num_epochs=4)
    finally:
        done.set()
        scraper.join(30)
        sys.setswitchinterval(interval)
    assert not scraper.is_alive()
    assert len(readings) > 2 and max(sent for sent, _ in readings) > 0
    assert all(sent == received for sent, received in readings)
