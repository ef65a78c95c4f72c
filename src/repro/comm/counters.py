"""Per-rank communication accounting.

Every simulated collective and point-to-point message records its bytes
here; the network model turns the totals into modelled time, and the
benchmarks report them as the paper's "communication volume".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.analysis.sanitizers import make_lock


@dataclass
class CommCounters:
    """Byte/message counters for one world (thread-safe: the sim driver's
    rank threads record concurrently, and a snapshot is one instant)."""

    num_ranks: int
    bytes_sent: List[int] = field(init=False)
    bytes_received: List[int] = field(init=False)
    messages_sent: List[int] = field(init=False)
    collective_calls: Dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        self._lock = make_lock("comm.counters")
        self.reset()

    def record_p2p(self, src: int, dst: int, nbytes: int) -> None:
        if src != dst:  # rank-local copies are free on a real fabric too
            with self._lock:
                self.bytes_sent[src] += nbytes
                self.bytes_received[dst] += nbytes
                self.messages_sent[src] += 1

    def record_collective(self, name: str, per_rank_bytes: List[Tuple[int, int]]):
        """Record a collective: list of (sent, received) per rank."""
        with self._lock:
            self.collective_calls[name] = self.collective_calls.get(name, 0) + 1
            for rank, (sent, recv) in enumerate(per_rank_bytes):
                self.bytes_sent[rank] += sent
                self.bytes_received[rank] += recv

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return sum(self.bytes_sent)

    def snapshot(self) -> "CommCounters":
        """Copy for before/after deltas."""
        c = CommCounters(self.num_ranks)
        with self._lock:
            c.bytes_sent = list(self.bytes_sent)
            c.bytes_received = list(self.bytes_received)
            c.messages_sent = list(self.messages_sent)
            c.collective_calls = dict(self.collective_calls)
        return c

    def delta_since(self, before: "CommCounters") -> "CommCounters":
        c = CommCounters(self.num_ranks)
        with self._lock:
            c.bytes_sent = [a - b for a, b in zip(self.bytes_sent, before.bytes_sent)]
            c.bytes_received = [
                a - b for a, b in zip(self.bytes_received, before.bytes_received)
            ]
            c.messages_sent = [
                a - b for a, b in zip(self.messages_sent, before.messages_sent)
            ]
            c.collective_calls = {
                k: v - before.collective_calls.get(k, 0)
                for k, v in self.collective_calls.items()
            }
        return c

    def reset(self) -> None:
        with self._lock:
            self.bytes_sent = [0] * self.num_ranks  # guarded-by: _lock
            self.bytes_received = [0] * self.num_ranks  # guarded-by: _lock
            self.messages_sent = [0] * self.num_ranks  # guarded-by: _lock
            self.collective_calls = {}  # guarded-by: _lock
