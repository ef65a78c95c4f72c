"""Epoch-delayed message delivery.

cd-r overlaps communication with computation *across epochs*: a partial
aggregate sent in epoch ``e`` is consumed in epoch ``e + r`` (Alg. 4,
guards ``e >= r`` and ``e >= 2r``).  The queue realizes that contract:
messages carry a ``deliver_epoch`` and stay invisible until the world
clock reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List

import numpy as np

from repro.analysis.sanitizers import make_lock


@dataclass
class Message:
    """One in-flight message."""

    src: int
    dst: int
    tag: Any
    payload: np.ndarray
    post_epoch: int
    deliver_epoch: int


class DelayedQueue:
    """Per-destination mailboxes with epoch-gated visibility (thread-safe:
    the sim driver's rank threads post and drain concurrently)."""

    def __init__(self, num_ranks: int):
        self.num_ranks = num_ranks
        self._lock = make_lock("comm.async_queue")
        self._boxes: List[List[Message]] = [[] for _ in range(num_ranks)]  # guarded-by: _lock

    def post(self, msg: Message) -> None:
        if not 0 <= msg.dst < self.num_ranks:
            raise ValueError(f"destination rank {msg.dst} out of range")
        with self._lock:
            self._boxes[msg.dst].append(msg)

    def drain(self, rank: int, epoch: int, tag: Any = None) -> List[Message]:
        """Remove and return messages deliverable at ``epoch``, stably
        sorted by ``(post_epoch, src)``.  Each sender posts in program
        order, so this is the shm receivers' ``(post_epoch, src,
        sender_seq)`` order, however the ranks' stretches interleaved."""
        ready, later = [], []
        with self._lock:
            for msg in self._boxes[rank]:
                if msg.deliver_epoch <= epoch and (tag is None or msg.tag == tag):
                    ready.append(msg)
                else:
                    later.append(msg)
            self._boxes[rank] = later
        return sorted(ready, key=lambda msg: (msg.post_epoch, msg.src))

    def in_flight_bytes(self) -> int:
        """Total buffered payload bytes — the cd-r memory overhead the
        paper's Table 6 charges for communication buffering."""
        with self._lock:
            return sum(int(np.asarray(m.payload).nbytes) for b in self._boxes for m in b)
