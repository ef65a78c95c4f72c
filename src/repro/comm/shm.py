"""Multi-process shared-memory execution backend.

The simulated :class:`~repro.comm.communicator.World` executes every rank
in one Python process, driven in lockstep; this module provides the same
``Communicator`` surface over **real** OS processes so each Libra
partition trains on its own core with genuine DRPA communication/
computation overlap:

- :class:`ShmWorld` — parent-side controller: owns the per-rank mailboxes,
  the shared byte counters, and the epoch barrier; ``run()`` forks one
  worker process per rank and collects their return values.
- :class:`ShmCommunicator` — the per-process rank handle.  Implements the
  simulator's surface (``isend`` / ``recv_ready`` / ``barrier`` /
  ``all_reduce``) with *blocking* sync points; ``run_program`` drives a
  rank program (the generator the simulator steps) straight through.

Transport
---------
Message *metadata* (src, tag, epochs) travels through per-rank
``multiprocessing`` queues; *payloads* at or above
:data:`SHM_PAYLOAD_THRESHOLD` travel through anonymous
``multiprocessing.shared_memory`` segments (one per message, created by
the sender, unlinked by the receiver), so feature-row exchanges never
funnel through a pickle pipe.  Tiny payloads ride inline in the metadata.

Determinism contract
--------------------
Delivery visibility uses a posted-message counter per destination: a
sender increments the counter (under the world lock) *before* enqueueing,
and a receiver drains its queue until it has caught up with the counter.
Combined with the barrier-based epoch boundaries of the SPMD trainer this
makes the *set* of deliverable messages at any drain identical to the
lockstep simulator's, and :meth:`ShmCommunicator.recv_ready` sorts ripe
messages by ``(post_epoch, src, sender_seq)`` — the exact order the sim
queue's sorted drain produces — so floating-point reductions over arrivals are
bit-identical across backends.

Failure model
-------------
Every blocking wait (barrier, queue get) carries the world timeout; a
deadlocked exchange raises instead of hanging, and :meth:`ShmWorld.run`
converts any worker failure into a parent-side :class:`RuntimeError`
after terminating the survivors.
"""

from __future__ import annotations

import queue as _queue
import threading
import traceback
from typing import Any, Callable, Generator, List, Optional, Tuple

import numpy as np

from repro.comm.async_queue import Message
from repro.comm.collectives import reduce_in_rank_order
from repro.comm.counters import CommCounters

#: payloads at or above this many bytes travel via ``shared_memory``
#: segments; smaller ones ride inline through the metadata queue.
SHM_PAYLOAD_THRESHOLD = 1 << 14

#: fixed accounting slots for collective-call counts (mirrors the names
#: the simulator's :mod:`repro.comm.collectives` records).
_COLLECTIVE_NAMES = ("all_reduce",)


def _require_fork_context():
    import multiprocessing as mp

    if "fork" not in mp.get_all_start_methods():
        raise RuntimeError(
            "the shm backend needs the 'fork' start method (POSIX); "
            "use backend='sim' on this platform"
        )
    return mp.get_context("fork")


# -- payload transport ---------------------------------------------------------


def _pack_payload(payload: np.ndarray) -> Tuple:
    """Serialize an array for the wire: shared-memory segment or inline."""
    arr = np.ascontiguousarray(payload)
    if arr.nbytes >= SHM_PAYLOAD_THRESHOLD:
        from multiprocessing import resource_tracker, shared_memory

        seg = shared_memory.SharedMemory(create=True, size=max(arr.nbytes, 1))
        np.ndarray(arr.shape, dtype=arr.dtype, buffer=seg.buf)[...] = arr
        name = seg.name
        seg.close()
        # Ownership moves to the receiver (it unlinks after copying out);
        # unregister here so the sender's resource tracker doesn't try to
        # clean up a segment another process already freed.
        resource_tracker.unregister(seg._name, "shared_memory")
        return ("shm", name, arr.dtype.str, arr.shape)
    return ("inline", arr.tobytes(), arr.dtype.str, arr.shape)


def _unpack_payload(ref: Tuple) -> np.ndarray:
    kind, data, dtype, shape = ref
    if kind == "shm":
        from multiprocessing import shared_memory

        seg = shared_memory.SharedMemory(name=data)
        try:
            nbytes = int(np.dtype(dtype).itemsize * int(np.prod(shape, dtype=np.int64)))
            arr = np.frombuffer(seg.buf[:nbytes], dtype=dtype).reshape(shape).copy()
        finally:
            seg.close()
            seg.unlink()
        return arr
    return np.frombuffer(data, dtype=dtype).reshape(shape).copy()


# -- shared world state --------------------------------------------------------


class _SharedState:
    """All IPC primitives, created in the parent and inherited via fork."""

    def __init__(self, ctx, num_ranks: int):
        self.num_ranks = num_ranks
        self.mail = [ctx.Queue() for _ in range(num_ranks)]
        self.coll = [ctx.Queue() for _ in range(num_ranks)]
        self.results = ctx.Queue()
        self.barrier = ctx.Barrier(num_ranks)
        self.lock = ctx.Lock()
        # guarded by ``lock``:
        self.posted = ctx.Array("q", num_ranks, lock=False)
        self.bytes_sent = ctx.Array("q", num_ranks, lock=False)
        self.bytes_received = ctx.Array("q", num_ranks, lock=False)
        self.messages_sent = ctx.Array("q", num_ranks, lock=False)
        self.inflight_bytes = ctx.Array("q", num_ranks, lock=False)
        self.collective_calls = ctx.Array("q", len(_COLLECTIVE_NAMES), lock=False)

    def read_counters(self) -> CommCounters:
        """Consistent :class:`CommCounters` view of the shared arrays."""
        c = CommCounters(self.num_ranks)
        with self.lock:
            c.bytes_sent = list(self.bytes_sent)
            c.bytes_received = list(self.bytes_received)
            c.messages_sent = list(self.messages_sent)
            c.collective_calls = {
                name: int(count)
                for name, count in zip(_COLLECTIVE_NAMES, self.collective_calls)
                if count
            }
        return c

    def read_inflight_bytes(self) -> int:
        with self.lock:
            return int(sum(self.inflight_bytes))


class ShmWorld:
    """Controller of one multi-process world (parent-side handle).

    Mirrors the constructor shape of the simulated ``World`` (rank count
    first) and adds ``run()`` to execute an SPMD function across real
    processes.  Counters are shared memory, so the parent's
    :attr:`counters` reflects all ranks' traffic at any quiescent point.
    """

    def __init__(self, num_ranks: int, timeout: float = 120.0):
        if num_ranks < 1:
            raise ValueError("num_ranks must be >= 1")
        if timeout <= 0:
            raise ValueError("timeout must be positive")
        self.num_ranks = num_ranks
        self.timeout = timeout
        self._ctx = _require_fork_context()
        self._state = _SharedState(self._ctx, num_ranks)

    # -- parent-side views ------------------------------------------------------

    @property
    def counters(self) -> CommCounters:
        return self._state.read_counters()

    def in_flight_bytes(self) -> int:
        """Posted-but-undelivered payload bytes across all mailboxes."""
        return self._state.read_inflight_bytes()

    def communicator(self, rank: int) -> "ShmCommunicator":
        """Rank handle (to be used *inside* that rank's process)."""
        if not 0 <= rank < self.num_ranks:
            raise ValueError(f"rank {rank} out of range [0, {self.num_ranks})")
        return ShmCommunicator(self._state, rank, self.timeout)

    # -- SPMD execution ---------------------------------------------------------

    def run(self, fn: Callable, *args) -> List[Any]:
        """Fork one process per rank running ``fn(comm, *args)``.

        Returns the per-rank return values in rank order.  Any worker
        exception (including a barrier timeout from a deadlocked
        exchange) terminates the remaining workers and re-raises as a
        :class:`RuntimeError` carrying the worker traceback.

        The world timeout bounds individual blocking waits, never the
        total run: a healthy long fit runs to completion, because a
        stuck *worker* raises internally (its own barrier/mailbox waits
        carry the timeout) and reports through the result queue.  The
        parent polls only to notice workers that died without reporting
        (hard kill, OOM).
        """
        procs = [
            self._ctx.Process(
                target=_worker_entry,
                args=(self._state, rank, self.timeout, fn, args),
                daemon=True,
            )
            for rank in range(self.num_ranks)
        ]
        for p in procs:
            p.start()
        results: List[Any] = [None] * self.num_ranks
        reported = [False] * self.num_ranks
        failures: List[str] = []
        try:
            while not all(reported) and not failures:
                try:
                    rank, ok, value = self._state.results.get(timeout=1.0)
                except _queue.Empty:
                    dead = [
                        r
                        for r in range(self.num_ranks)
                        if not reported[r] and not procs[r].is_alive()
                    ]
                    if dead:
                        # Give an in-transit result one last chance to land.
                        try:
                            rank, ok, value = self._state.results.get(
                                timeout=1.0
                            )
                        except _queue.Empty:
                            failures.append(
                                f"rank(s) {dead} died without reporting a "
                                "result (killed or crashed hard)"
                            )
                            continue
                    else:
                        continue
                reported[rank] = True
                if ok:
                    results[rank] = value
                else:
                    failures.append(f"rank {rank} failed:\n{value}")
        finally:
            for p in procs:
                p.join(timeout=self.timeout if not failures else 1.0)
            for p in procs:
                if p.is_alive():
                    p.terminate()
                    p.join(timeout=5.0)
        if failures:
            raise RuntimeError("shm backend run failed: " + "; ".join(failures))
        return results


def _worker_entry(state: _SharedState, rank: int, timeout: float, fn, args):
    comm = ShmCommunicator(state, rank, timeout)
    try:
        value = fn(comm, *args)
    # The parent raises RuntimeError naming every failed rank.
    # audit[broad-except]: traceback shipped to the parent via the result queue
    except BaseException:
        state.results.put((rank, False, traceback.format_exc()))
    else:
        state.results.put((rank, True, value))


# -- the per-rank communicator -------------------------------------------------


class ShmCommunicator:
    """One rank's handle inside its own process.

    Implements the simulator ``Communicator`` surface (``isend`` /
    ``recv_ready`` with epoch-delayed visibility) plus blocking
    collectives.  The epoch clock is rank-local; the SPMD
    trainer advances it at barrier-aligned epoch boundaries so all ranks
    agree on message ripeness.
    """

    def __init__(self, state: _SharedState, rank: int, timeout: float):
        self._state = state
        self.rank = rank
        self.timeout = timeout
        self._epoch = 0
        self._send_seq = 0  # FIFO tiebreak for deterministic drain order
        self._received = 0  # contiguous mailbox watermark (indices pumped)
        self._out_of_order: set = set()  # pumped indices above the watermark
        self._store: List[Tuple[int, Message]] = []  # (sender_seq, msg)
        self._coll_seq = 0  # SPMD collective call counter
        self._coll_backlog: List[Tuple] = []

    # -- epoch clock ------------------------------------------------------------

    @property
    def size(self) -> int:
        return self._state.num_ranks

    @property
    def epoch(self) -> int:
        return self._epoch

    def advance_epoch(self) -> int:
        self._epoch += 1
        return self._epoch

    # -- synchronization --------------------------------------------------------

    def barrier(self) -> None:
        """Block until every rank arrives; raises on timeout (deadlock)."""
        try:
            self._state.barrier.wait(self.timeout)
        except threading.BrokenBarrierError:
            raise RuntimeError(
                f"rank {self.rank}: barrier broken or timed out after "
                f"{self.timeout:.0f}s — another rank died or deadlocked"
            ) from None

    # -- point-to-point (async, epoch-delayed) ----------------------------------

    def isend(
        self,
        dst: int,
        payload: np.ndarray,
        tag: Any = None,
        delay: int = 0,
    ) -> None:
        """Post an asynchronous message deliverable at ``epoch + delay``.

        Identical semantics (and byte accounting) to the simulator's
        ``Communicator.isend``; the payload is snapshotted at post time,
        so the sender may keep mutating its buffers.
        """
        if not 0 <= dst < self.size:
            raise ValueError(f"destination rank {dst} out of range")
        arr = np.ascontiguousarray(payload)
        nbytes = int(arr.nbytes)
        st = self._state
        seq = self._send_seq
        self._send_seq += 1
        with st.lock:
            if dst != self.rank:  # rank-local copies are free, like the sim
                st.bytes_sent[self.rank] += nbytes
                st.bytes_received[dst] += nbytes
                st.messages_sent[self.rank] += 1
            # Dense per-destination mailbox index.  Queue arrival order is
            # NOT posting order (each sender's feeder thread flushes
            # independently), so receivers track delivery by index, not
            # by count — see :meth:`_pump`.
            index = int(st.posted[dst])
            st.posted[dst] += 1
            st.inflight_bytes[dst] += nbytes
        ref = _pack_payload(arr)
        st.mail[dst].put(
            (index, self.rank, seq, tag, self._epoch, self._epoch + delay, ref)
        )

    def _pump(self) -> None:
        """Catch the local store up with the posted-message counter.

        Every message whose ``posted`` increment happened before this
        call carries a mailbox index below ``target``; the pump blocks
        until the contiguous index watermark reaches ``target``, so all
        of *those* messages are in the local store afterwards — even
        though queue arrival order across senders is arbitrary (each
        sender's feeder thread flushes independently).  Later-indexed
        messages that arrive early are simply stored; they count toward
        a future target.  This is what makes barrier-separated phases
        see exactly the lockstep simulator's message sets.
        """
        st = self._state
        with st.lock:
            target = int(st.posted[self.rank])
        while self._received < target:
            try:
                index, src, seq, tag, post_epoch, deliver_epoch, ref = st.mail[
                    self.rank
                ].get(timeout=self.timeout)
            except _queue.Empty:
                raise RuntimeError(
                    f"rank {self.rank}: mailbox pump timed out after "
                    f"{self.timeout:.0f}s ({self._received}/{target} messages)"
                ) from None
            msg = Message(
                src=src,
                dst=self.rank,
                tag=tag,
                payload=_unpack_payload(ref),
                post_epoch=post_epoch,
                deliver_epoch=deliver_epoch,
            )
            self._store.append((seq, msg))
            self._out_of_order.add(index)
            while self._received in self._out_of_order:
                self._out_of_order.remove(self._received)
                self._received += 1

    def recv_ready(self, tag: Any = None) -> List[Message]:
        """Drain messages deliverable at the current epoch.

        Returns them in ``(post_epoch, src, sender_seq)`` order — the
        order the sim queue's sorted drain produces — so reductions over
        arrivals are deterministic and backend-independent.
        """
        self._pump()
        ready, keep = [], []
        for seq, msg in self._store:
            if msg.deliver_epoch <= self._epoch and (tag is None or msg.tag == tag):
                ready.append((seq, msg))
            else:
                keep.append((seq, msg))
        self._store = keep
        ready.sort(key=lambda item: (item[1].post_epoch, item[1].src, item[0]))
        out = [msg for _, msg in ready]
        if out:
            delivered = sum(int(m.payload.nbytes) for m in out)
            with self._state.lock:
                self._state.inflight_bytes[self.rank] -= delivered
        return out

    # -- collectives ------------------------------------------------------------
    #
    # SPMD discipline: every rank calls the same collectives in the same
    # program order.  Each call gets a world-order sequence number so a
    # fast rank's next collective can never be confused with a slow
    # rank's current one; mismatched arrivals are parked in a backlog.

    def _coll_put(self, dst: int, kind: str, seq: int, body) -> None:
        self._state.coll[dst].put((kind, seq, self.rank, body))

    def _coll_get(self, kind: str, seq: int) -> Tuple[int, Any]:
        for i, (k, s, src, body) in enumerate(self._coll_backlog):
            if k == kind and s == seq:
                del self._coll_backlog[i]
                return src, body
        while True:
            try:
                k, s, src, body = self._state.coll[self.rank].get(
                    timeout=self.timeout
                )
            except _queue.Empty:
                raise RuntimeError(
                    f"rank {self.rank}: collective {kind}#{seq} timed out "
                    f"after {self.timeout:.0f}s"
                ) from None
            if k == kind and s == seq:
                return src, body
            self._coll_backlog.append((k, s, src, body))

    def _record_collective(self, name: str, sent: int, recv: int, count_call: bool):
        st = self._state
        idx = _COLLECTIVE_NAMES.index(name)
        with st.lock:
            st.bytes_sent[self.rank] += sent
            st.bytes_received[self.rank] += recv
            if count_call:
                st.collective_calls[idx] += 1

    def all_reduce(self, array: np.ndarray, op: str = "sum") -> np.ndarray:
        """Blocking AllReduce; every rank returns the identical reduction.

        Rank 0 gathers the contributions, reduces them **in rank order**
        with the same NumPy reduction the simulator uses, and broadcasts
        the result — so the returned array is bit-identical to the
        simulated ``all_reduce`` on the same inputs.  Byte accounting
        records the simulator's ring volume per rank.
        """
        arr = np.asarray(array)
        p = self.size
        seq = self._coll_seq
        self._coll_seq += 1
        if p == 1:
            total = reduce_in_rank_order([arr], op)
        elif self.rank == 0:
            parts: List[Optional[np.ndarray]] = [None] * p
            parts[0] = arr
            for _ in range(p - 1):
                src, ref = self._coll_get("ar", seq)
                parts[src] = _unpack_payload(ref)
            total = reduce_in_rank_order(parts, op)
            for q in range(1, p):
                self._coll_put(q, "ar", seq, _pack_payload(total))
        else:
            self._coll_put(0, "ar", seq, _pack_payload(arr))
            _, ref = self._coll_get("ar", seq)
            total = _unpack_payload(ref)
        ring = int(2 * (p - 1) / p * arr.nbytes) if p > 1 else 0
        self._record_collective("all_reduce", ring, ring, count_call=self.rank == 0)
        return np.array(total, copy=True)

    # -- rank-program driver ----------------------------------------------------

    def run_program(self, program: Generator) -> Any:
        """Run a rank program to completion and return its value.

        The program yields the result of every ``barrier`` /
        ``all_reduce`` call; here those calls have already blocked and
        returned the real result, so each yield is answered with the
        value it produced (``World.run_programs`` is the simulator's
        counterpart, which resolves the yielded sync points itself).
        """
        reply = None
        try:
            while True:
                reply = program.send(reply)
        except StopIteration as stop:
            return stop.value

    # -- instrumentation --------------------------------------------------------

    def counters_snapshot(self) -> CommCounters:
        """World-wide counter snapshot (call at a barrier-quiesced point)."""
        return self._state.read_counters()

    def in_flight_bytes(self) -> int:
        """World-wide posted-but-undelivered payload bytes."""
        return self._state.read_inflight_bytes()
