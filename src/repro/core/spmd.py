"""SPMD execution of the distributed trainer on the shm backend.

The sim backend steps every rank's
:class:`~repro.core.dist_trainer.RankProgram` from one process.  This
module runs the *same* program as a single-program-multiple-data worker,
one OS process per Libra partition, over
:class:`~repro.comm.shm.ShmWorld`, where its sync points block:

- collectives become real blocking exchanges (gradient AllReduce through
  rank 0);
- the barriers of a synchronous DRPA round (cd-0, gradients, evaluation)
  are real rendezvous, and the cd-r round has none — the actual
  communication/computation overlap the paper pipelines;
- epochs are separated by barriers, which is what keeps the delayed
  message sets identical to the sim schedule.

Equivalence contract (pinned by
``tests/integration/test_backend_equivalence.py``): for the same
partitioned graph, config and seed, sim and shm produce identical
per-epoch losses, identical final parameters and gradients, and identical
communication byte counters — there is one program, so a difference can
only come from a communicator.

Workers are *forked* from the parent after the trainer has built the
partitions and model replicas, so each worker inherits its
:class:`~repro.core.dist_trainer.RankState` copy-on-write and only the
per-epoch records and the final state (rank 0's parameters/gradients,
replica-identical by construction) travel back.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from repro.comm.shm import ShmCommunicator, ShmWorld
from repro.core.trainer import eval_due


def run_shm_fit(trainer, num_epochs: int) -> Tuple[List[Tuple], List[Tuple]]:
    """Run ``num_epochs`` of ``trainer`` on the multi-process backend.

    Forks one worker per partition and returns their records, each a list
    in rank order: one list of epoch records per epoch, and one list of
    owned-vertex counts per evaluation (the final one last) — for
    ``DistributedTrainer.fit`` to merge exactly like the sim records.
    Loads the final replica state back into the parent's models so
    checkpointing and inspection see the trained weights.
    """
    world = ShmWorld(trainer.num_partitions, timeout=trainer.config.shm_timeout_s)
    per_rank = world.run(_rank_fit, trainer, num_epochs)

    # Replicas are identical by construction; propagate rank 0's final
    # state into every parent-side model so downstream code (checkpoint
    # saving, equivalence tests) sees the trained weights and gradients.
    state = per_rank[0]["state_dict"]
    grads = per_rank[0]["grads"]
    for rank_state in trainer.ranks:
        rank_state.model.load_state_dict(state)
        for param, g in zip(rank_state.model.parameters(), grads):
            param.grad = None if g is None else g.copy()
    trainer.world.counters = world.counters  # expose measured traffic to callers
    epochs = list(zip(*(rank["epochs"] for rank in per_rank)))
    evals = list(zip(*(rank["evals"] for rank in per_rank)))
    return epochs, evals


def _rank_fit(comm: ShmCommunicator, trainer, num_epochs: int) -> Dict:
    """One rank's whole ``fit`` (runs inside a forked worker process)."""
    rank = comm.rank
    # Deferred feature slices (non-resident stores) materialize inside
    # the program, post-fork: every rank maps the same read-only cold
    # tier, so the OS page cache backs all P workers with a single copy
    # of the pages.
    program = trainer.rank_program(comm)

    epochs_out: List[Dict] = []
    evals_out: List[Dict] = []
    for epoch in range(num_epochs):
        # Quiesced counter read: nobody may post epoch-e traffic before
        # rank 0 snapshots, and nobody may post epoch-(e+1) traffic (or
        # eval traffic) before rank 0 reads the end state.
        comm.barrier()
        before = comm.counters_snapshot() if rank == 0 else None
        comm.barrier()

        t0 = time.perf_counter()
        row = comm.run_program(program.train_epoch(epoch))
        comm.advance_epoch()
        total_time = time.perf_counter() - t0

        comm.barrier()
        comm_bytes = 0
        inflight = 0
        if rank == 0:
            comm_bytes = comm.counters_snapshot().delta_since(before).total_bytes
            inflight = comm.in_flight_bytes()
        comm.barrier()

        epochs_out.append(
            dict(
                row,
                total_time_s=total_time,
                comm_bytes=comm_bytes,
                inflight_bytes=inflight,
            )
        )
        if eval_due(trainer.config.eval_every, epoch, num_epochs):
            evals_out.append(comm.run_program(program.evaluate()))
    evals_out.append(comm.run_program(program.evaluate()))

    result = {"epochs": epochs_out, "evals": evals_out}
    if rank == 0:
        model = program.state.model
        result["state_dict"] = model.state_dict()
        result["grads"] = [
            None if p.grad is None else p.grad.copy() for p in model.parameters()
        ]
    return result
