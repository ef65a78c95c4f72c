"""Simulated MPI world.

A :class:`World` owns ``num_ranks`` mailbox sets, the byte counters, and
the delayed-delivery queue; each rank gets a :class:`Communicator` handle
(the moral equivalent of its ``MPI_COMM_WORLD``).  All ranks execute in
one process and no rank ever blocks in a rendezvous:
``Communicator.barrier`` / ``all_reduce`` return a :class:`SyncPoint`
that the rank program (a generator) yields, and
:meth:`World.run_programs` runs the ``P`` programs side by side on the
``repro-rank`` threads from sync point to sync point, resolving each
point on the driver thread — the *ordering* guarantees are identical to
the MPI program the paper runs (collectives act as barriers, async
messages deliver ``delay`` epochs later).
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Any, Generator, List, Optional, Sequence

import numpy as np

from repro.comm.async_queue import DelayedQueue, Message
from repro.comm.collectives import all_reduce
from repro.comm.counters import CommCounters
from repro.kernels.fpenv import in_callers_mode
from repro.obs.trace import activate, current_span

# One rank-thread pool per size, apart from the kernel engine's ``repro-ap``
# pools (a rank thread waits on the AP tasks it submits there).  A forked
# child (the shm backend forks after sim runs) has none of the parent's
# threads, so it drops the pools and builds fresh ones.
@functools.lru_cache(maxsize=None)
def _rank_pool(size: int) -> ThreadPoolExecutor:
    return ThreadPoolExecutor(size, thread_name_prefix="repro-rank")


if hasattr(os, "register_at_fork"):  # pragma: no branch - posix
    os.register_at_fork(after_in_child=_rank_pool.cache_clear)


def _pool_size(num_ranks: int) -> int:
    """Rank threads: one per rank, at most one per usable core."""
    affinity = getattr(os, "sched_getaffinity", None)
    return min(num_ranks, len(affinity(0)) if affinity else os.cpu_count() or 1)


def _stretch(program: Generator, reply: Any, span=None):
    """``program`` run to its next sync point under ``span``: ``(point,
    False)``, or ``(return value, True)``."""
    with activate(span):
        try:
            return program.send(reply), False
        except StopIteration as stop:
            return stop.value, True


class World:
    """All-rank shared state of the simulated cluster."""

    def __init__(self, num_ranks: int):
        if num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        self.num_ranks = num_ranks
        self.counters = CommCounters(num_ranks)
        self.queue = DelayedQueue(num_ranks)
        self._epoch = 0

    # -- epoch clock ---------------------------------------------------------

    @property
    def epoch(self) -> int:
        """Current epoch of the lockstep clock (drives delayed delivery)."""
        return self._epoch

    def advance_epoch(self) -> int:
        """Advance the world clock; called once per training epoch."""
        self._epoch += 1
        return self._epoch

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

        Every program runs to its next :class:`SyncPoint` side by side
        on :func:`_pool_size` ``repro-rank`` threads (one thread steps
        them in rank order), in the caller's floating-point mode and
        span.  The driver gathers the points in rank order and resolves
        them (a barrier releases everyone, an AllReduce hands every rank
        the rank-order reduction) before the next stretch.  Interleaving
        cannot reach a result: a stretch touches only its rank's state,
        mailboxes drain sorted by ``(post_epoch, src)`` (shm's order) and
        counters are sums.  A rank that raises — or an interrupt of the
        driver — closes every program once no stretch still runs; the
        error (the lowest raising rank's) propagates.
        """
        if len(programs) != self.num_ranks:
            raise ValueError("need one rank program per rank")
        submit, span = _rank_pool(_pool_size(self.num_ranks)).submit, current_span()
        task = in_callers_mode(_stretch)
        replies: List[Any] = [None] * self.num_ranks
        futures: List[Future] = []  # extended one by one: an interrupt keeps what was submitted
        try:
            while True:
                futures.clear()
                futures.extend(submit(task, p, r, span) for p, r in zip(programs, replies))
                steps = [future.result() for future in futures]
                points = [value for value, done in steps if not done]
                if not points:
                    return [value for value, _ in steps]
                reducing = [p.array is not None for p in points]
                if len(points) < self.num_ranks or any(reducing) != all(reducing):
                    raise RuntimeError(
                        "rank programs disagree on their sync points "
                        "(SPMD code must reach the same collectives in the same order)"
                    )
                if reducing[0]:
                    replies = all_reduce(self, [p.array for p in points], op=points[0].op)
                else:
                    replies = [None] * self.num_ranks
        except BaseException:
            wait(futures)  # closing a program that still runs would raise ValueError
            for program in programs:
                program.close()
            raise


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

    # -- sync points (yield the result to World.run_programs) -----------------

    @property
    def epoch(self) -> int:
        return self.world.epoch

    def barrier(self) -> SyncPoint:
        return SyncPoint()

    def all_reduce(self, array: np.ndarray, op: str = "sum") -> SyncPoint:
        return SyncPoint(np.asarray(array), op)
