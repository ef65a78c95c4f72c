"""Feature store: one row-oriented view over resident or mmap features.

:class:`FeatureStore` is the one abstraction every feature consumer in
the repo reads through — both trainers, the neighbor-sampling paths, and
the serving engine's precompute/refresh.  Two tiers:

- ``resident`` — wraps an in-memory matrix and preserves today's
  behavior *exactly*: ``matrix()`` returns the wrapped array itself and
  ``gather(ids)`` is ``features[ids]``, so a store-threaded consumer is
  bit-identical to the pre-store code path (the drop-in default).
- ``mmap`` — a read-only zero-copy :mod:`storage <repro.featurestore.
  storage>` map.  ``gather(ids)`` is a frozen ``backing[ids]``; there is
  no row cache in front of it, because the OS page cache already keeps
  the hot rows in memory and a DRAM-side slot probe costs more than the
  reads it avoids (``docs/feature-gather.md``).  The page cache also
  shares the file across every process that opens (or forks with) the
  store — shm SPMD ranks read one file instead of holding per-rank
  feature copies.

Updates (``update_rows``) keep the mmap tier servable: the read-only map
is never written; instead the first update materializes one private
patched copy (exactly the full writable copy the serving engine used to
hold unconditionally), which becomes the backing, and subsequent updates
land in place there — reads before and after an update are always
consistent with NumPy fancy-assignment semantics on a resident matrix.
"""

from __future__ import annotations

import time
from types import SimpleNamespace
from typing import Optional

import numpy as np

from repro.analysis.sanitizers import make_lock
from repro.featurestore.storage import (
    FeatureLayoutError,
    open_feature_layout,
    read_manifest,
    write_feature_layout,
)
from repro.graph.csr import INDEX_DTYPE
from repro.obs.trace import current_span

TIERS = ("resident", "mmap")


def _frozen_rows(rows: np.ndarray) -> np.ndarray:
    """Freeze a freshly gathered row batch before it leaves the store."""
    rows.setflags(write=False)
    return rows


def _frozen_view(matrix: np.ndarray) -> np.ndarray:
    """Hand out a read-only view; the backing array stays writable so
    ``update_rows`` can keep patching it in place."""
    view = matrix.view()
    view.setflags(write=False)
    return view


class FeatureStore:
    """Row-oriented view over a feature matrix with tiered backing."""

    def __init__(self, tier: str, base: np.ndarray, path: Optional[str] = None):
        if tier not in TIERS:
            raise ValueError(f"unknown tier {tier!r} (one of {TIERS})")
        self.tier = tier
        self._base = base
        self.path = path
        #: private patched copy, created by the first mmap-tier update.
        self._patched: Optional[np.ndarray] = None
        self._stats_lock = make_lock("featurestore.store.stats")
        self.cold_rows_read = 0  # guarded-by: _stats_lock
        self.num_updates = 0  # guarded-by: _stats_lock

    # -- construction -----------------------------------------------------------

    @classmethod
    def resident(cls, features: np.ndarray) -> "FeatureStore":
        """Wrap an in-memory matrix; behavior-preserving default tier."""
        return cls("resident", np.asarray(features))

    @classmethod
    def open(cls, path: str) -> "FeatureStore":
        """Open an on-disk layout as the mmap tier."""
        base, _manifest = open_feature_layout(path)
        return cls("mmap", base, path=path)

    @classmethod
    def create(
        cls,
        path: str,
        features: np.ndarray,
        *,
        degrees=None,
        hot_fraction=None,
        policy=None,
    ) -> "FeatureStore":
        """Spill ``features`` to ``path`` (if no layout is there yet) and
        open the result as an mmap store.  An existing layout is reused
        only when it holds exactly ``features`` — another shape, dtype or
        content fails loudly rather than serving another matrix's rows.
        ``degrees``, ``hot_fraction`` and ``policy`` are unused (see the
        end of the class)."""
        features = np.asarray(features)
        try:
            manifest = read_manifest(path)
        except FeatureLayoutError:
            write_feature_layout(path, features)
            return cls.open(path)
        if manifest["shape"] != features.shape or (
            manifest["dtype"] != features.dtype.newbyteorder("=")
        ):
            raise FeatureLayoutError(
                f"existing layout at {path!r} holds shape "
                f"{manifest['shape']} dtype {np.dtype(manifest['dtype']).str!r}, "
                f"requested {tuple(features.shape)} "
                f"{features.dtype.str!r}: refusing to reuse it"
            )
        store = cls.open(path)
        if not np.array_equal(store._base, features):
            raise FeatureLayoutError(
                f"existing layout at {path!r} holds a different "
                f"{tuple(features.shape)} matrix than the one requested: "
                "refusing to reuse it"
            )
        return store

    # -- shape ------------------------------------------------------------------

    @property
    def num_rows(self) -> int:
        return int(self._base.shape[0])

    @property
    def dim(self) -> int:
        return int(self._base.shape[1])

    @property
    def dtype(self):
        return self._base.dtype

    @property
    def bytes_mapped(self) -> int:
        """Bytes served through the zero-copy mmap view (0 when resident
        or after an update materialized the private patched copy)."""
        if self.tier == "mmap" and self._patched is None:
            return int(self._base.nbytes)
        return 0

    # -- reads ------------------------------------------------------------------

    def _backing(self) -> np.ndarray:
        return self._patched if self._patched is not None else self._base

    def gather(self, ids) -> np.ndarray:
        """One feature row per id (a fresh array, request order kept) —
        bit-identical to ``features[ids]`` on the resident matrix.
        Mmap-tier batches come back read-only, matching the CSR arrays'
        hand-out contract; route writes through :meth:`update_rows`.

        When the calling thread carries an active trace span, the
        gather records a ``feature.gather`` child span and charges its
        wall time to the request's ``feature`` latency component;
        untraced calls take one ``None`` check extra."""
        ids = np.asarray(ids, dtype=INDEX_DTYPE)
        span = current_span()
        t0 = time.perf_counter() if span is not None else 0.0
        rows = self._backing()[ids]
        if self.tier == "mmap":
            rows = _frozen_rows(rows)
        with self._stats_lock:
            self.cold_rows_read += int(ids.size)
        if span is not None:
            elapsed = time.perf_counter() - t0
            span.add_component("feature", elapsed)
            span.child_complete(
                "feature.gather", elapsed, cat="featurestore", rows=int(ids.size)
            )
        return rows

    def matrix(self) -> np.ndarray:
        """The whole matrix for full-scan consumers (precompute, full-
        batch training).  Resident: the wrapped array itself (writable,
        the drop-in contract).  Mmap: the read-only zero-copy map, or a
        read-only view of the private patched copy once an update has
        landed — either way consumers cannot scribble on served rows."""
        if self.tier == "resident":
            return self._base
        if self._patched is not None:
            return _frozen_view(self._patched)
        return self._base

    # -- writes -----------------------------------------------------------------

    def update_rows(self, ids, rows) -> None:
        """Overwrite rows (NumPy fancy-assignment semantics: duplicate
        ids resolve last-wins).  Resident writes in place; mmap writes
        the private patched copy (materialized on first update — the
        read-only file is never touched)."""
        ids = np.asarray(ids, dtype=INDEX_DTYPE)
        rows = np.asarray(rows, dtype=self.dtype)
        if self.tier == "mmap" and self._patched is None:
            self._patched = np.array(self._base, copy=True)
        self._backing()[ids] = rows
        with self._stats_lock:
            self.num_updates += 1

    # -- introspection ----------------------------------------------------------

    def stats(self) -> dict:
        """JSON-safe gauges: tier, shape, bytes mapped, rows read, updates."""
        with self._stats_lock:
            cold_rows_read = self.cold_rows_read
            num_updates = self.num_updates
        return {
            "tier": self.tier,
            "num_rows": self.num_rows,
            "dim": self.dim,
            "dtype": str(np.dtype(self.dtype)),
            "bytes_mapped": self.bytes_mapped,
            "cold_rows_read": cold_rows_read,
            "num_updates": num_updates,
            "patched": self._patched is not None,
            **self._no_hot_tier(cold_rows_read),
        }

    def __repr__(self) -> str:  # pragma: no cover - logging convenience
        return (
            f"FeatureStore(tier={self.tier!r}, shape={(self.num_rows, self.dim)}, "
            f"dtype={np.dtype(self.dtype)})"
        )

    # -- unused: kept for benchmarks/suite/suite_train.py -----------------------
    # The frozen benchmark suite was written against a hot-set row cache
    # that no longer exists.  It passes ``degrees`` / ``hot_fraction`` /
    # ``policy`` to :meth:`create` (ignored) and reads the values below,
    # which are what a store without a hot tier truthfully reports:
    # nothing predicted hot, no hits, every gathered row a cold read.

    decision = SimpleNamespace(predicted_hit_rate=0.0)

    @staticmethod
    def _no_hot_tier(cold_rows_read: int) -> dict:
        n = cold_rows_read
        return {"policy": None, "hot": {"hits": 0, "misses": n, "lookups": n}}
