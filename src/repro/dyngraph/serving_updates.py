"""Topology updates for the online serving tier.

:mod:`repro.serving.refresh` keeps an engine's precomputed embedding
tables consistent under *feature* updates.  This module extends the same
machinery to *edge* updates: the engine's frozen ``graph`` is shadowed
by a :class:`~repro.dyngraph.delta.DynamicGraph`, arriving edge
mutations are applied to it, and the engine is re-pointed at the merged
view (plus a fresh degree normalizer — topology changes move degrees,
and both servable architectures normalize by in-degree).

The refresh itself rides the existing k-hop affected-set machinery,
seeded from the mutated edges' **endpoints**.  That seed set soundly
over-approximates every layer-0 output the mutation can move:

- a mutated edge ``u -> v`` changes row ``v``'s aggregation input set,
  and ``v``'s in-degree (hence ``norm[v]``) — ``v`` is a seed;
- ``norm[v]`` also scales ``v``'s *outgoing* contributions (GCN scales
  sources, GraphSAGE's self term), so ``v``'s out-neighbours move — the
  affected-set expansion's first hop covers them;
- ``u``'s own output is unchanged (its in-edges and norm are untouched),
  so seeding it costs a few extra rows but loses nothing.

Rows outside the affected sets keep bit-identical values under the new
topology, which is what makes the row-subset refresh exactly equal to a
full ``precompute()`` on the compacted graph (pinned in
``tests/dyngraph/test_serving_updates.py``), including an update whose
affected set is the whole graph.

Wired into :meth:`repro.serving.refresh.IncrementalRefresher.
update_edges` (the one refresh path) and
:meth:`repro.serving.server.PredictionService.update_edges` (HTTP
``POST /update_edges``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Tuple

import numpy as np

from repro.core.models import norm_from_degrees
from repro.dyngraph.delta import DynamicGraph, _as_endpoint_arrays
from repro.graph.builders import sorted_unique
from repro.graph.csr import INDEX_DTYPE


def as_edge_pairs(edges, what: str) -> Tuple[np.ndarray, np.ndarray]:
    """Normalize an iterable of ``(u, v)`` pairs to ``(src, dst)`` arrays.

    The canonical wire/API format for edge updates is a sequence of
    pairs (``[[u, v], ...]``); ``None`` means no edges.
    """
    if edges is None:
        empty = np.zeros(0, dtype=INDEX_DTYPE)
        return empty, empty
    try:
        raw = np.asarray(edges)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{what} must be (src, dst) integer pairs: {exc}")
    # strictly-integer endpoints: a float pair would truncate silently
    # (mutating the wrong edge), and bools are not vertex ids
    if raw.size and raw.dtype.kind not in "iu":
        raise ValueError(
            f"{what} must be (src, dst) integer pairs, got dtype {raw.dtype}"
        )
    pairs = raw.astype(INDEX_DTYPE)
    if pairs.size == 0:
        empty = np.zeros(0, dtype=INDEX_DTYPE)
        return empty, empty
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(
            f"{what} must be a sequence of (src, dst) pairs, "
            f"got shape {pairs.shape}"
        )
    return pairs[:, 0].copy(), pairs[:, 1].copy()


@dataclass(frozen=True)
class EdgeUpdateStats:
    """Outcome of one ``update_edges`` call."""

    num_added: int
    num_removed: int
    #: distinct mutated-edge endpoints seeding the affected sets.
    num_seeds: int
    affected_per_layer: Tuple[int, ...]
    affected_fraction: float
    rows_recomputed: int
    #: live edges in the merged graph after the update.
    num_edges: int
    #: whether this update tripped an auto-compaction.
    compacted: bool
    delta_fraction: float

    def to_json(self) -> dict:
        """JSON-safe dict (the HTTP endpoint's response body)."""
        return asdict(self)


@dataclass(frozen=True)
class TopologyDelta:
    """What :func:`apply_topology` did to the engine's graph."""

    seeds: np.ndarray
    num_added: int
    num_removed: int
    compacted: bool


def apply_topology(engine, add=None, remove=None) -> TopologyDelta:
    """Apply edge mutations to an engine's graph (tables untouched).

    Lazily shadows ``engine.graph`` with a :class:`DynamicGraph` (kept on
    ``engine.dynamic``), applies removals then additions, and re-points
    ``engine.graph`` / ``engine.norm`` at the merged view.  The caller is
    responsible for refreshing the embedding tables afterwards, from the
    returned seeds.
    """
    add_src, add_dst = as_edge_pairs(add, "add")
    rem_src, rem_dst = as_edge_pairs(remove, "remove")
    if add_src.size == 0 and rem_src.size == 0:
        raise ValueError("update_edges needs at least one edge to add or remove")
    # validate BOTH batches before touching the shadow graph: a bad add
    # must not leave removals half-applied (and unpublished — the next
    # update would then publish them without seeding their endpoints,
    # breaking the incremental == compacted-precompute contract)
    n = engine.num_vertices
    _as_endpoint_arrays(add_src, add_dst, n, "add")
    _as_endpoint_arrays(rem_src, rem_dst, n, "remove")
    dyn = engine.dynamic
    if dyn is None:
        dyn = DynamicGraph(engine.graph)
        engine.dynamic = dyn
    compactions_before = dyn.num_compactions
    # removals first: an add+remove of the same pair in one batch means
    # "replace" (the removal targets a pre-existing edge, not the new one)
    if rem_src.size:
        dyn.remove_edges(rem_src, rem_dst)
    if add_src.size:
        dyn.add_edges(add_src, add_dst)
    engine.graph = dyn.csr()
    engine.norm = norm_from_degrees(
        engine.model_kind, engine.graph.in_degrees()
    )
    seeds = sorted_unique(np.concatenate([add_src, add_dst, rem_src, rem_dst]))
    return TopologyDelta(
        seeds=seeds,
        num_added=int(add_src.size),
        num_removed=int(rem_src.size),
        compacted=dyn.num_compactions > compactions_before,
    )
