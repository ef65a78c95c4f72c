"""LRU result cache over per-vertex logit rows.

Fully-associative LRU over vertex ids, thread-safe, with measured
hit/miss counters.  No serving read consults it — a read is one gather
from the published logits table — but
:class:`~repro.serving.server.PredictionService` still accepts one, so
callers that build and reset a cache beside the service keep working.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

import numpy as np

from repro.analysis.sanitizers import make_lock
from repro.graph.csr import INDEX_DTYPE


class ResultCache:
    """Thread-safe LRU mapping vertex id -> result row (logits).

    Rows are **copied on insert** and the stored copy is marked
    non-writeable: the cache never aliases caller memory (inserting the
    row views of a batch matrix would otherwise pin the whole matrix
    alive, and a caller mutating its array after ``put`` would corrupt
    the cached logits), and ``get``/``get_many`` hand back the read-only
    stored row — mutation attempts raise instead of silently poisoning
    later hits.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._rows: "OrderedDict[int, np.ndarray]" = OrderedDict()  # guarded-by: _lock
        self._lock = make_lock("serving.cache")
        #: conservation invariant (checked under contention by the
        #: serving stress suite): ``hits + misses == lookups`` always —
        #: all three move inside one critical section per access.
        self.lookups = 0  # guarded-by: _lock
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock

    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)

    @staticmethod
    def _frozen_copy(row: np.ndarray) -> np.ndarray:
        copy = np.array(row, copy=True)
        copy.setflags(write=False)
        return copy

    # -- single-key ---------------------------------------------------------------

    def get(self, vertex_id: int) -> Optional[np.ndarray]:
        with self._lock:
            self.lookups += 1
            row = self._rows.get(int(vertex_id))
            if row is None:
                self.misses += 1
                return None
            self._rows.move_to_end(int(vertex_id))
            self.hits += 1
            return row

    def put(self, vertex_id: int, row: np.ndarray) -> None:
        row = self._frozen_copy(row)
        with self._lock:
            self._put_locked(int(vertex_id), row)

    def _put_locked(self, key: int, row: np.ndarray) -> None:  # requires-lock: _lock
        rows = self._rows
        if key in rows:
            rows.move_to_end(key)
        elif len(rows) >= self.capacity:
            rows.popitem(last=False)
        rows[key] = row

    # -- vectorized request path ---------------------------------------------------

    def get_many(self, vertex_ids: np.ndarray) -> Tuple[dict, np.ndarray]:
        """Look up a request's ids in one pass.

        Returns ``(found, missing)``: a dict of id -> cached row, and the
        (unique) ids that must be computed.  Duplicate requested ids
        count one access each, like repeated singleton gets.
        """
        ids = np.asarray(vertex_ids, dtype=INDEX_DTYPE)
        found: dict = {}
        missing = []
        with self._lock:
            self.lookups += ids.size
            rows = self._rows
            for key in ids.tolist():
                row = rows.get(key)
                if row is None:
                    self.misses += 1
                    missing.append(key)
                else:
                    rows.move_to_end(key)
                    self.hits += 1
                    found[key] = row
        return found, np.unique(np.array(missing, dtype=INDEX_DTYPE))

    def put_many(self, vertex_ids: np.ndarray, rows: np.ndarray) -> None:
        """Insert one result row per id (aligned arrays)."""
        ids = np.asarray(vertex_ids, dtype=INDEX_DTYPE)
        if len(rows) != ids.size:
            raise ValueError("rows must align with vertex_ids")
        frozen = [self._frozen_copy(row) for row in rows]
        with self._lock:
            for key, row in zip(ids.tolist(), frozen):
                self._put_locked(key, row)

    # -- introspection --------------------------------------------------------------

    @property
    def accesses(self) -> int:
        with self._lock:
            return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        with self._lock:
            hits, misses = self.hits, self.misses
        accesses = hits + misses
        return hits / accesses if accesses else 0.0

    def reset(self) -> None:
        with self._lock:
            self._rows.clear()
            self.lookups = 0
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict:
        # One consistent snapshot: size and the counters are read under
        # the lock so a concurrent put/get can't skew the reported rate.
        with self._lock:
            lookups = self.lookups
            hits, misses, size = self.hits, self.misses, len(self._rows)
        accesses = hits + misses
        return {
            "capacity": self.capacity,
            "size": size,
            "lookups": lookups,
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / accesses if accesses else 0.0,
        }
