"""Streaming graph mutation: dynamic topology over the frozen-CSR stack.

Everything below this package assumes an immutable
:class:`~repro.graph.csr.CSRGraph`; everything above it (a service
facing live traffic) sees topology that never stops changing.  The
subsystem closes that gap in three layers:

- :mod:`repro.dyngraph.delta` — :class:`DynamicGraph`: a frozen CSR base
  plus an append-only delta edge buffer and deletion tombstones, with a
  merged read view and a ``compact()`` pinned bit-identical to a
  from-scratch rebuild (auto-triggered above a delta-fraction threshold).
- :mod:`repro.dyngraph.ingest` — :class:`LibraState`: resumable streaming
  Libra partitioner state, so arriving edges get partition assignments
  online, byte-equal to a batch ``libra_partition`` replay; includes the
  replication-drift trigger recommending offline repartition.
- :mod:`repro.dyngraph.serving_updates` — edge updates for the serving
  tier: ``update_edges(add, remove)`` on the refresher/service seeds the
  k-hop affected-set machinery from mutated-edge endpoints and refreshes
  those rows (every update takes this one path), exactly equal to a full
  precompute on the compacted graph.

CLI: ``repro ingest``.  HTTP: ``POST /update_edges`` on the prediction
server.  Benchmarks: ``benchmarks/bench_streaming.py`` →
``BENCH_streaming.json``.
"""

from repro.dyngraph.delta import DynamicGraph
from repro.dyngraph.ingest import (
    LibraState,
    LibraStateError,
    streaming_libra_partition,
)
from repro.dyngraph.serving_updates import EdgeUpdateStats, apply_topology

__all__ = [
    "DynamicGraph",
    "LibraState",
    "LibraStateError",
    "streaming_libra_partition",
    "EdgeUpdateStats",
    "apply_topology",
]
