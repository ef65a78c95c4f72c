"""Streaming graph mutation: dynamic topology over the frozen-CSR stack.

Everything below this package assumes an immutable
:class:`~repro.graph.csr.CSRGraph`; everything above it (a service
facing live traffic) sees topology that never stops changing.  The
subsystem closes that gap in three layers:

- :mod:`repro.dyngraph.delta` — :class:`DynamicGraph`: the current CSR
  and an edge-id counter; ``update(add, remove)`` applies one batch with
  one ``coo_to_csr`` rebuild, bit-identical to a from-scratch build over
  the surviving edges in arrival order.
- :mod:`repro.dyngraph.ingest` — :class:`LibraState`: resumable streaming
  Libra partitioner state, so arriving edges get partition assignments
  online, byte-equal to a batch ``libra_partition`` replay; includes the
  replication-drift trigger recommending offline repartition.
- :mod:`repro.dyngraph.serving_updates` — edge updates for the serving
  tier: ``update_edges(add, remove)`` on the refresher/service seeds the
  k-hop affected-set machinery from mutated-edge endpoints and refreshes
  those rows (every update takes this one path), exactly equal to a full
  precompute on the updated graph.

CLI: ``repro ingest`` (prints its ingest rate in edges/s).  HTTP:
``POST /update_edges`` on the prediction server; the benchmark suite's
``serve_mixed`` workload times it (``dyngraph.update_edges_inproc_ms``).
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
