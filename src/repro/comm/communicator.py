"""Simulated MPI world.

A :class:`World` owns ``num_ranks`` mailbox sets, the byte counters, and
the delayed-delivery queue; each rank gets a :class:`Communicator` handle
(the moral equivalent of its ``MPI_COMM_WORLD``).  All ranks execute in
one process and one thread, so a rank cannot block in a rendezvous:
``Communicator.barrier`` / ``all_reduce`` return a :class:`SyncPoint`
that the rank program (a generator) yields, and
:meth:`World.run_programs` steps the ``P`` programs in rank order from
sync point to sync point — the *ordering* guarantees are identical to
the MPI program the paper runs (collectives act as barriers, async
messages deliver ``delay`` epochs later).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, List, Optional, Sequence

import numpy as np

from repro.comm.async_queue import DelayedQueue, Message
from repro.comm.collectives import all_reduce
from repro.comm.counters import CommCounters
from repro.obs.registry import register_comm_world


class World:
    """All-rank shared state of the simulated cluster."""

    def __init__(self, num_ranks: int):
        if num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        self.num_ranks = num_ranks
        self.counters = CommCounters(num_ranks)
        self.queue = DelayedQueue(num_ranks)
        self._epoch = 0
        # weakref registration: per-rank byte counters show up in every
        # telemetry registry / GET /metrics?format=prom for as long as
        # this world is alive
        self.obs_name = register_comm_world(self, kind="sim")

    # -- epoch clock ---------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Current epoch of the lockstep clock (drives delayed delivery)."""
        return self._epoch

    def advance_epoch(self) -> int:
        """Advance the world clock; called once per training epoch."""
        self._epoch += 1
        return self._epoch

    def reset_epoch(self) -> None:
        self._epoch = 0
        self.queue.clear()

    # -- rank handles ----------------------------------------------------------

    def communicator(self, rank: int) -> "Communicator":
        if not 0 <= rank < self.num_ranks:
            raise ValueError(f"rank {rank} out of range [0, {self.num_ranks})")
        return Communicator(world=self, rank=rank)

    def communicators(self) -> List["Communicator"]:
        return [self.communicator(r) for r in range(self.num_ranks)]

    # -- rank-program driver -----------------------------------------------------

    def run_programs(self, programs: Sequence[Generator]) -> List[Any]:
        """Run one rank program per rank to completion; returns their
        return values in rank order.

        Each program is resumed in rank order and runs until it yields
        its next :class:`SyncPoint`; once every rank has arrived the
        point is resolved (a barrier releases everyone, an AllReduce
        hands every rank the reduction) and the next stretch starts,
        again from rank 0.  Rank-order stepping is what makes mailbox
        FIFO order, reduction order and the byte counters deterministic
        — and equal to the shm backend, whose receivers sort by
        ``(post_epoch, src, send order)``.
        """
        if len(programs) != self.num_ranks:
            raise ValueError("need one rank program per rank")
        replies: List[Any] = [None] * self.num_ranks
        results: List[Any] = [None] * self.num_ranks
        while True:
            points, finished = [], 0
            for rank, program in enumerate(programs):
                try:
                    points.append(program.send(replies[rank]))
                except StopIteration as stop:
                    results[rank] = stop.value
                    finished += 1
            if finished == self.num_ranks:
                return results
            reducing = [p.array is not None for p in points]
            if finished or any(reducing) != all(reducing):
                raise RuntimeError(
                    "rank programs disagree on their sync points "
                    "(SPMD code must reach the same collectives in the same order)"
                )
            if reducing[0]:
                replies = all_reduce(self, [p.array for p in points], op=points[0].op)
            else:
                replies = [None] * self.num_ranks


@dataclass(frozen=True)
class SyncPoint:
    """Where a simulated rank hands control to :meth:`World.run_programs`
    (an shm rank blocks in the same place): a barrier when ``array`` is
    ``None``, else this rank's AllReduce contribution."""

    array: Optional[np.ndarray] = None
    op: str = "sum"


@dataclass
class Communicator:
    """Per-rank handle (rank id + world reference)."""

    world: World
    rank: int

    @property
    def size(self) -> int:
        return self.world.num_ranks

    # -- point-to-point (async, epoch-delayed) -------------------------------

    def isend(
        self,
        dst: int,
        payload: np.ndarray,
        tag: Any = None,
        delay: int = 0,
    ) -> None:
        """Post an asynchronous message.

        The message becomes receivable at world epoch ``posted_epoch +
        delay``.  ``delay=0`` models a same-epoch exchange (cd-0's wait);
        ``delay=r`` models cd-r's deferred processing.
        """
        nbytes = int(np.asarray(payload).nbytes)
        self.world.counters.record_p2p(self.rank, dst, nbytes)
        self.world.queue.post(
            Message(
                src=self.rank,
                dst=dst,
                tag=tag,
                payload=payload,
                post_epoch=self.world.epoch,
                deliver_epoch=self.world.epoch + delay,
            )
        )

    def recv_ready(self, tag: Any = None) -> List[Message]:
        """Drain all messages for this rank deliverable at the current epoch."""
        return self.world.queue.drain(self.rank, self.world.epoch, tag=tag)

    def pending_count(self, tag: Any = None) -> int:
        """Messages posted to this rank but not yet deliverable."""
        return self.world.queue.pending(self.rank, self.world.epoch, tag=tag)

    # -- sync points (yield the result to World.run_programs) -----------------

    @property
    def epoch(self) -> int:
        return self.world.epoch

    def barrier(self) -> SyncPoint:
        return SyncPoint()

    def all_reduce(self, array: np.ndarray, op: str = "sum") -> SyncPoint:
        return SyncPoint(np.asarray(array), op)
