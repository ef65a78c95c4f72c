"""Cross-backend equivalence: sim (one process) vs shm (multi-process).

Both backends run the *same* rank program (``RankProgram``) — sim steps
the ``P`` copies between sync points, shm blocks at them — so for the
same partitioned graph, seed and config the two must be **equal**, not
close, on everything observable:

- per-epoch global losses,
- final model parameters and final-epoch gradients,
- per-epoch and total communication byte counters (bit-for-bit — the shm
  backend records the identical accounting),
- evaluation accuracies.

Checked for GCN and GraphSAGE on a 4-partition Libra split under both
synchronous (cd-0, DRPA delay 0) and delayed (cd-2, delay 2) exchange,
plus the no-communication roofline (0c); on the repo benchmark's
cross-check configuration (P=2, cd-5); and on a run where one rank owns
no training vertex (its loss term is absent).
"""

import dataclasses

import numpy as np
import pytest

from repro.core import DistributedTrainer, TrainConfig
from repro.graph.datasets import load_dataset

NUM_PARTITIONS = 4
NUM_EPOCHS = 6  # > 2 * delay, so cd-2 completes full round trips


@pytest.fixture(scope="module")
def ds():
    return load_dataset("reddit", scale=0.05, seed=1)


def _config(model):
    return TrainConfig(
        num_layers=2,
        hidden_features=16,
        learning_rate=0.01,
        eval_every=2,
        seed=0,
        model=model,
    )


def _fit(ds, model, algorithm, backend, num_partitions=NUM_PARTITIONS,
         num_epochs=NUM_EPOCHS):
    trainer = DistributedTrainer(
        ds,
        num_partitions,
        algorithm=algorithm,
        config=_config(model),
        partitioner="libra",
        backend=backend,
    )
    result = trainer.fit(num_epochs=num_epochs)
    return trainer, result


def _assert_runs_equal(sim_tr, sim, shm_tr, shm):
    # per-epoch losses: one program, so equal to the last bit
    assert [e.loss for e in shm.epochs] == [e.loss for e in sim.epochs]

    # final parameters on every rank replica
    sim_state = sim_tr.ranks[0].model.state_dict()
    shm_state = shm_tr.ranks[0].model.state_dict()
    assert sim_state.keys() == shm_state.keys()
    for name in sim_state:
        np.testing.assert_array_equal(shm_state[name], sim_state[name], err_msg=name)

    # final-epoch gradients (post-AllReduce, identical on all replicas)
    for ps, ph in zip(
        sim_tr.ranks[0].model.parameters(), shm_tr.ranks[0].model.parameters()
    ):
        assert (ps.grad is None) == (ph.grad is None)
        if ps.grad is not None:
            np.testing.assert_array_equal(ph.grad, ps.grad)

    # communication accounting: per-epoch and total, bit-for-bit
    assert [e.comm_bytes for e in shm.epochs] == [e.comm_bytes for e in sim.epochs]
    assert shm.total_comm_bytes == sim.total_comm_bytes
    assert shm.peak_inflight_bytes == sim.peak_inflight_bytes
    sim_c, shm_c = sim_tr.world.counters, shm_tr.world.counters
    assert shm_c.bytes_sent == sim_c.bytes_sent
    assert shm_c.bytes_received == sim_c.bytes_received
    assert shm_c.messages_sent == sim_c.messages_sent
    assert shm_c.collective_calls == sim_c.collective_calls

    # accuracies (eval epochs and final)
    assert shm.final_test_acc == sim.final_test_acc
    assert shm.best_val_acc == sim.best_val_acc
    for es, eh in zip(sim.epochs, shm.epochs):
        assert (es.val_acc is None) == (eh.val_acc is None)
        if es.val_acc is not None:
            assert eh.val_acc == es.val_acc
            assert eh.test_acc == es.test_acc

    # structural metadata
    assert shm.algorithm == sim.algorithm
    assert shm.num_partitions == sim.num_partitions
    assert shm.replication_factor == sim.replication_factor


@pytest.mark.parametrize("model", ["gcn", "sage"])
@pytest.mark.parametrize("algorithm", ["cd-0", "cd-2", "0c"])
def test_backends_agree(ds, model, algorithm):
    _assert_runs_equal(
        *_fit(ds, model, algorithm, "sim"), *_fit(ds, model, algorithm, "shm")
    )


def test_backends_agree_on_the_benchmark_configuration(ds):
    """P=2, cd-5 — the cross-check ``benchmarks/suite`` runs; 12 epochs
    so the delay-5 pipeline completes a round trip."""
    kw = dict(num_partitions=2, num_epochs=12)
    _assert_runs_equal(
        *_fit(ds, "sage", "cd-5", "sim", **kw), *_fit(ds, "sage", "cd-5", "shm", **kw)
    )


@pytest.mark.parametrize("algorithm", ["cd-0", "cd-2"])
def test_backends_agree_when_a_rank_owns_no_training_vertex(ds, algorithm):
    """Rank 1's loss is absent (no owned training vertex): it contributes
    0.0 to the global loss and zeros to every AllReduce, on both backends."""
    probe = DistributedTrainer(ds, 3, algorithm=algorithm, config=_config("sage"))
    barren = probe.ranks[1]
    train_mask = ds.train_mask.copy()
    train_mask[barren.global_ids[barren.owned]] = False
    starved = dataclasses.replace(ds, train_mask=train_mask)

    runs = []
    for backend in ("sim", "shm"):
        trainer = DistributedTrainer(
            starved, 3, algorithm=algorithm, config=_config("sage"),
            parted=probe.parted, backend=backend,
        )
        state = trainer.ranks[1]
        assert not (state.train_mask & state.owned).any()
        runs += [trainer, trainer.fit(num_epochs=NUM_EPOCHS)]
    _assert_runs_equal(*runs)
    assert runs[1].epochs[-1].loss < runs[1].epochs[0].loss


def test_sim_evaluate_leaves_autograd_enabled(ds):
    """The rank programs suspend inside evaluation, and resume on any
    rank thread; no thread's no_grad switch may stay off once they have
    all finished."""
    from repro.nn.tensor import grad_enabled

    trainer = DistributedTrainer(ds, 3, algorithm="cd-0", config=_config("sage"))
    trainer.evaluate()
    assert grad_enabled()
    first = trainer.train_epoch(0).loss
    assert trainer.train_epoch(1).loss < first


def test_shm_backend_guards():
    """Config validation + the lockstep-only train_epoch guard."""
    ds_small = load_dataset("reddit", scale=0.05, seed=1)
    with pytest.raises(KeyError, match="unknown execution backend"):
        DistributedTrainer(ds_small, 2, config=_config("gcn"), backend="mpi")
    trainer = DistributedTrainer(
        ds_small, 2, config=_config("gcn"), backend="shm"
    )
    with pytest.raises(RuntimeError, match="lockstep"):
        trainer.train_epoch(0)


def test_backend_from_config():
    """TrainConfig.backend is honored when no explicit backend is given."""
    ds_small = load_dataset("reddit", scale=0.05, seed=1)
    cfg = _config("gcn")
    cfg.backend = "shm"
    trainer = DistributedTrainer(ds_small, 2, config=cfg)
    assert trainer.backend == "shm"
