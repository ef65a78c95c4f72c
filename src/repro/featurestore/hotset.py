"""Pinned hot-set cache over a cold feature tier.

The paper's reuse analysis (Section 4, modeled in :mod:`repro.cachesim`)
shows that aggregation traffic over a power-law graph concentrates on
the high-degree rows: a vertex's feature row is re-read once per
out-edge, so pinning the top-``C`` rows by degree captures the degree
mass of the trace.  :class:`HotSetCache` makes that real:

- ``static`` policy — degree-ordered pinned set, materialized once from
  the cold tier; lookups are a vectorized slot-table probe with zero
  eviction churn (the default, per the paper).
- ``lru`` policy — fully-associative LRU at feature-row granularity,
  exactly the replacement policy :class:`repro.cachesim.lru.
  LRUFeatureCache` simulates, for access patterns without a usable
  degree skew.

:func:`choose_policy` is the cachesim bridge: it predicts the static
hit rate from the access-weight (degree) mass and the LRU hit rate by
replaying a model trace through ``LRUFeatureCache``, then picks the
winner.  The measured ``hits/misses/evictions`` counters let the
benchmark validate those predictions against live traffic
(``benchmarks/bench_featurestore.py``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.analysis.sanitizers import make_lock
from repro.cachesim.lru import LRUFeatureCache
from repro.graph.csr import INDEX_DTYPE


def _frozen_rows(rows: np.ndarray) -> np.ndarray:
    """Seal a gather result before it crosses the API boundary (the
    read-only hand-out contract, REP103)."""
    rows.setflags(write=False)
    return rows

#: default absolute tolerance on |measured - predicted| hit rate: the
#: prediction trace and the live trace are drawn from the same access
#: process but with independent seeds, so this bounds sampling noise,
#: not model error (deterministic patterns like the full precompute
#: scan predict exactly).
PREDICTION_TOLERANCE = 0.1

#: cap on replayed prediction-trace length — LRU replay is a Python
#: loop; a prefix this long pins the steady-state hit rate well enough
#: for policy selection.
MAX_REPLAY_ACCESSES = 200_000


@dataclass(frozen=True)
class PolicyDecision:
    """Outcome of cachesim-driven admission-policy selection."""

    policy: str  # "static" | "lru"
    capacity: int
    predicted_hit_rate: float
    static_hit_rate: float
    lru_hit_rate: Optional[float]
    tolerance: float = PREDICTION_TOLERANCE

    def to_json(self) -> dict:
        return {
            "policy": self.policy,
            "capacity": int(self.capacity),
            "predicted_hit_rate": float(self.predicted_hit_rate),
            "static_hit_rate": float(self.static_hit_rate),
            "lru_hit_rate": (
                None if self.lru_hit_rate is None else float(self.lru_hit_rate)
            ),
            "tolerance": float(self.tolerance),
        }


def top_rows_by_weight(weights: np.ndarray, capacity: int) -> np.ndarray:
    """The ``capacity`` highest-weight row ids, heaviest first.

    Ties break toward the lower id (stable sort) so the pinned set is
    deterministic for a given degree vector.
    """
    weights = np.asarray(weights)
    capacity = int(min(max(capacity, 0), weights.size))
    if capacity == 0:
        return np.zeros(0, dtype=INDEX_DTYPE)
    order = np.argsort(-weights, kind="stable")[:capacity]
    return order.astype(INDEX_DTYPE)


def predict_static_hit_rate(weights: np.ndarray, capacity: int) -> float:
    """Hit rate of pinning the top-``capacity`` rows under traffic whose
    per-row access counts are proportional to ``weights`` (the paper's
    degree-mass argument: an edge-gather trace touches row ``v`` exactly
    ``weights[v]`` times when ``weights`` is the degree vector)."""
    weights = np.asarray(weights, dtype=np.float64)
    total = float(weights.sum())
    if total <= 0.0:
        return 0.0
    hot = top_rows_by_weight(weights, capacity)
    return float(weights[hot].sum() / total)


def predict_lru_hit_rate(
    trace: np.ndarray, capacity: int, max_accesses: int = MAX_REPLAY_ACCESSES
) -> float:
    """Hit rate of an LRU of ``capacity`` rows on ``trace``, via the
    exact :class:`~repro.cachesim.lru.LRUFeatureCache` replay (prefix-
    truncated to ``max_accesses`` to bound the Python loop)."""
    trace = np.asarray(trace).ravel()
    if trace.size == 0:
        return 0.0
    cache = LRUFeatureCache(max(int(capacity), 1))
    cache.access_many(trace[: int(max_accesses)])
    return cache.hits / cache.accesses


def choose_policy(
    weights: np.ndarray,
    capacity: int,
    trace: Optional[np.ndarray] = None,
    policy: str = "auto",
    tolerance: float = PREDICTION_TOLERANCE,
) -> PolicyDecision:
    """Pick the admission policy for a hot set of ``capacity`` rows.

    ``weights`` are expected per-row access counts (in-degrees for
    aggregation traffic); ``trace`` is an optional model access trace
    for the LRU replay.  ``policy="auto"`` compares the two predictions
    and keeps static on ties — the paper's degree-ordered pinning is the
    default, LRU the fallback for patterns it mispredicts.
    """
    if policy not in ("auto", "static", "lru"):
        raise ValueError(f"unknown policy {policy!r} (auto/static/lru)")
    static_pred = predict_static_hit_rate(weights, capacity)
    lru_pred = (
        predict_lru_hit_rate(trace, capacity) if trace is not None else None
    )
    if policy == "auto":
        policy = (
            "lru" if lru_pred is not None and lru_pred > static_pred else "static"
        )
    predicted = static_pred if policy == "static" else (
        lru_pred if lru_pred is not None else static_pred
    )
    return PolicyDecision(
        policy=policy,
        capacity=int(capacity),
        predicted_hit_rate=predicted,
        static_hit_rate=static_pred,
        lru_hit_rate=lru_pred,
        tolerance=float(tolerance),
    )


class HotSetCache:
    """Row cache in front of a cold fetch function.

    ``gather(ids, cold_fetch)`` returns one feature row per id, serving
    hot rows from memory and delegating the misses to ``cold_fetch`` in
    one batched call.  Counter conservation:
    ``lookups == hits + misses`` at every instant, and for the LRU
    policy ``len(cache) == inserts - evictions``.
    """

    def __init__(
        self,
        num_rows: int,
        capacity: int,
        policy: str = "static",
        hot_ids: Optional[np.ndarray] = None,
    ):
        if policy not in ("static", "lru"):
            raise ValueError(f"unknown policy {policy!r} (static/lru)")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.num_rows = int(num_rows)
        self.capacity = int(min(capacity, num_rows)) if num_rows else int(capacity)
        self.capacity = max(self.capacity, 1)
        self.policy = policy
        # One lock covers the counters and both residency structures:
        # concurrent serving gathers would otherwise race the LRU
        # recency order and the hit/miss conservation invariant.
        self._lock = make_lock("featurestore.hotset")
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self.evictions = 0  # guarded-by: _lock
        # static: slot table row-id -> pinned slot (-1 = cold); read-only
        # after construction
        self._slot = np.full(self.num_rows, -1, dtype=np.int64)
        self._pinned_ids = np.zeros(0, dtype=INDEX_DTYPE)
        self._rows: Optional[np.ndarray] = None  # guarded-by: _lock
        # lru: id -> cached row (OrderedDict insertion order = recency)
        self._lru: "OrderedDict[int, Optional[np.ndarray]]" = OrderedDict()  # guarded-by: _lock
        if policy == "static":
            if hot_ids is None:
                raise ValueError("static policy needs hot_ids to pin")
            hot_ids = np.asarray(hot_ids, dtype=INDEX_DTYPE)[: self.capacity]
            if hot_ids.size and (
                hot_ids.min() < 0 or hot_ids.max() >= self.num_rows
            ):
                raise ValueError("hot_ids out of range")
            self._pinned_ids = hot_ids
            self._slot[hot_ids] = np.arange(hot_ids.size, dtype=np.int64)

    # -- introspection ----------------------------------------------------------

    @property
    def lookups(self) -> int:
        with self._lock:
            return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        with self._lock:
            hits, misses = self.hits, self.misses
        total = hits + misses
        return hits / total if total else 0.0

    def _hot_rows_locked(self) -> int:  # requires-lock: _lock
        if self.policy == "static":
            return int(self._pinned_ids.size) if self._rows is not None else 0
        return len(self._lru)

    @property
    def hot_rows(self) -> int:
        """Rows currently resident in the hot tier."""
        with self._lock:
            return self._hot_rows_locked()

    @property
    def pinned_ids(self) -> np.ndarray:
        return self._pinned_ids

    def stats(self) -> dict:
        # One critical section so the reported counters satisfy the
        # conservation invariant (lookups == hits + misses) exactly.
        with self._lock:
            hits, misses, evictions = self.hits, self.misses, self.evictions
            hot_rows = self._hot_rows_locked()
        lookups = hits + misses
        return {
            "policy": self.policy,
            "capacity": self.capacity,
            "hot_rows": hot_rows,
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "lookups": lookups,
            "hit_rate": hits / lookups if lookups else 0.0,
        }

    def reset_counters(self) -> None:
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    # -- the gather path --------------------------------------------------------

    def warm(self, cold_fetch: Callable[[np.ndarray], np.ndarray]) -> None:
        """Materialize the static pinned rows (no-op for LRU, which
        warms on traffic).  Pin reads don't count as misses — they are
        the one-time admission, not steady-state traffic."""
        with self._lock:
            self._warm_locked(cold_fetch)

    def _warm_locked(self, cold_fetch) -> None:  # requires-lock: _lock
        if self.policy == "static" and self._rows is None:
            # The pinned matrix must stay privately writable: update_rows
            # rewrites pins in place, so never adopt a frozen hand-out.
            self._rows = np.array(cold_fetch(self._pinned_ids), copy=True)

    def gather(
        self, ids: np.ndarray, cold_fetch: Callable[[np.ndarray], np.ndarray]
    ) -> np.ndarray:
        """One row per id; misses are fetched from ``cold_fetch`` in a
        single batched call (duplicate misses fetch once).  The returned
        batch is read-only (hand-out contract)."""
        ids = np.asarray(ids, dtype=INDEX_DTYPE)
        with self._lock:
            if self.policy == "static":
                rows = self._gather_static(ids, cold_fetch)
            else:
                rows = self._gather_lru(ids, cold_fetch)
        return _frozen_rows(rows)

    def _gather_static(self, ids, cold_fetch):  # requires-lock: _lock
        if self._rows is None:
            self._warm_locked(cold_fetch)
        slots = self._slot[ids]
        hit = slots >= 0
        num_hits = int(hit.sum())
        self.hits += num_hits
        self.misses += ids.size - num_hits
        if num_hits == ids.size:
            return self._rows[slots]
        cold = cold_fetch(ids[~hit])
        out = np.empty((ids.size,) + cold.shape[1:], dtype=cold.dtype)
        if num_hits:
            out[hit] = self._rows[slots[hit]]
        out[~hit] = cold
        return out

    def _gather_lru(self, ids, cold_fetch):  # requires-lock: _lock
        cache = self._lru
        # id -> output positions still waiting for the cold row.  A
        # missed id is inserted immediately (value None until the
        # batched fetch lands), so a repeat within the batch is a hit —
        # the same sequential semantics LRUFeatureCache simulates.
        pending: Dict[int, List[int]] = {}
        out_rows: List[Optional[np.ndarray]] = [None] * ids.size
        for pos, key in enumerate(ids.tolist()):
            if key in cache:
                cache.move_to_end(key)
                self.hits += 1
                row = cache[key]
                if row is None:
                    pending[key].append(pos)
                else:
                    out_rows[pos] = row
            else:
                self.misses += 1
                if len(cache) >= self.capacity:
                    evicted, _ = cache.popitem(last=False)
                    self.evictions += 1
                    # an evicted not-yet-filled key keeps its pending
                    # positions: the batch fetch below still serves them
                cache[key] = None
                pending.setdefault(key, []).append(pos)
        if pending:
            cold_ids = np.fromiter(
                pending.keys(), dtype=INDEX_DTYPE, count=len(pending)
            )
            cold = cold_fetch(cold_ids)
            for row, key in zip(cold, pending):
                for pos in pending[key]:
                    out_rows[pos] = row
                if cache.get(key, row) is None:
                    cache[key] = np.ascontiguousarray(row)
        if not out_rows:
            template = cold_fetch(np.zeros(0, dtype=INDEX_DTYPE))
            return template
        return np.stack(out_rows)

    # -- coherence under updates ------------------------------------------------

    def update_rows(self, ids: np.ndarray, rows: np.ndarray) -> None:
        """Keep cached copies coherent after the backing rows changed.

        Static pins are rewritten in place; LRU entries for the updated
        ids are refreshed if resident (last write per id wins, matching
        fancy-assignment semantics upstream).
        """
        ids = np.asarray(ids, dtype=INDEX_DTYPE)
        rows = np.asarray(rows)
        with self._lock:
            if self.policy == "static":
                if self._rows is None:
                    return
                slots = self._slot[ids]
                hot = slots >= 0
                if hot.any():
                    self._rows[slots[hot]] = rows[hot]
                return
            for key, row in zip(ids.tolist(), rows):
                if key in self._lru and self._lru[key] is not None:
                    self._lru[key] = np.ascontiguousarray(row)
