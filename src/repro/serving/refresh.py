"""Incremental embedding refresh after feature and edge updates.

A feature update at vertex set ``S`` invalidates exactly the k-hop
out-neighbourhood of ``S``: layer ``l``'s output row ``v`` depends on
``v``'s own layer input plus its in-neighbours' inputs, so the affected
row set grows by one hop of out-edges per layer.  The refresher computes
those per-layer affected sets from the CSR structure and recomputes
*only those rows* against the engine's (updated) per-layer embedding
tables — a row-subset CSR keeps the per-row reduction order identical to
the full pass, so an incremental refresh is exactly equal to a full
recompute.

Every update takes that one path.  An update that reaches every vertex
is its degenerate input, not a second path: a layer whose affected set
is the whole graph runs the full pass over ``engine.graph``, so it costs
what a :meth:`~repro.serving.engine.InferenceEngine.precompute` does.
Each refresh publishes a new logits table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.graph.builders import sorted_unique
from repro.graph.csr import CSRGraph, INDEX_DTYPE, multi_row_take
from repro.nn.tensor import Tensor, no_grad
from repro.serving.engine import InferenceEngine


def out_neighbors(graph: CSRGraph, vertices: np.ndarray) -> np.ndarray:
    """Destinations of all edges leaving ``vertices`` (sorted, unique).

    Walks the reverse CSR, built by the first walk and kept on the graph
    (training builds none).
    """
    rev = graph.__dict__.get("_reverse")
    if rev is None:
        rev = graph.__dict__.setdefault("_reverse", graph.reverse())
    vertices = np.asarray(vertices, dtype=INDEX_DTYPE)
    return sorted_unique(rev.indices[multi_row_take(rev.indptr, vertices)])


def affected_sets(
    graph: CSRGraph, changed: np.ndarray, num_layers: int
) -> List[np.ndarray]:
    """Per-layer affected *output* row sets for a feature change.

    ``affected[l]`` lists the vertices whose layer-``l`` output differs
    after the inputs of ``changed`` vertices were modified: the change
    set itself (every layer mixes in the self term) plus one hop of
    out-edges per layer crossed.  Each layer expands only the vertices
    discovered by the previous hop, so the traversal cost is
    proportional to the reach, not layers x accumulated set.
    """
    changed = sorted_unique(np.asarray(changed, dtype=INDEX_DTYPE))
    affected: List[np.ndarray] = []
    current = changed
    fresh = changed  # vertices whose out-edges are not expanded yet
    for _ in range(num_layers):
        reach = out_neighbors(graph, fresh)
        fresh = np.setdiff1d(reach, current, assume_unique=True)
        current = sorted_unique(np.concatenate((current, reach)))
        affected.append(current)
    return affected


def row_subgraph(graph: CSRGraph, rows: np.ndarray) -> CSRGraph:
    """Rectangular CSR keeping only the given destination rows.

    Column indices stay in the global source id space, and each kept
    row's edge order is untouched — so a kernel pass over the subgraph
    reduces each row in exactly the full graph's floating-point order.
    """
    rows = np.asarray(rows, dtype=INDEX_DTYPE)
    counts = graph.indptr[rows + 1] - graph.indptr[rows]
    indptr = np.zeros(rows.size + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    take = multi_row_take(graph.indptr, rows)
    return CSRGraph(
        indptr=indptr,
        indices=graph.indices[take],
        edge_ids=graph.edge_ids[take],
        num_src=graph.num_src,
    )


def _combine_rows(layer, z: Tensor, x: Tensor, norm: Tensor) -> np.ndarray:
    """``layer.combine`` over a row subset, bit-identical to those rows
    of the full-graph pass.  A one-row product takes BLAS's GEMV path,
    whose sums round differently from GEMM's, so a lone row is computed
    as two copies of itself."""
    if z.shape[0] != 1:
        return layer.combine(z, x, norm).data
    z, x, norm = (Tensor(np.repeat(t.data, 2, axis=0)) for t in (z, x, norm))
    return layer.combine(z, x, norm).data[:1]


@dataclass(frozen=True)
class RefreshStats:
    """Outcome of one :meth:`IncrementalRefresher.update_features` call."""

    num_updated: int
    affected_per_layer: Tuple[int, ...]
    affected_fraction: float
    rows_recomputed: int


class IncrementalRefresher:
    """Keeps an engine's embedding tables consistent under updates.

    ``full_threshold`` is accepted and unused: every update is a
    row-subset recompute, so callers of the older signature keep working.
    """

    def __init__(self, engine: InferenceEngine, full_threshold: float = 0.25):
        self.engine = engine.ensure_ready()
        self.num_incremental = 0
        self.num_topology_updates = 0

    # -- updates ----------------------------------------------------------------

    def update_features(self, vertex_ids, new_rows) -> RefreshStats:
        """Apply a feature update and refresh the affected embeddings.

        ``new_rows`` must align with ``vertex_ids`` (one feature row per
        vertex).  Repeated ids within one batch are deduplicated before
        the write and the refresh: the **last** row per vertex wins
        (matching NumPy fancy-assignment semantics), each vertex is
        written once, and ``num_updated`` counts distinct vertices.
        """
        engine = self.engine
        ids = engine._check_ids(vertex_ids)
        rows = np.asarray(new_rows, dtype=engine.features.dtype)
        rows = np.atleast_2d(rows)
        if rows.shape != (ids.size, engine.features.shape[1]):
            raise ValueError(
                f"new_rows shape {rows.shape} does not match "
                f"({ids.size}, {engine.features.shape[1]})"
            )
        # first occurrence in the reversed batch == last occurrence in
        # the original, so this is an explicit last-wins dedupe
        changed, last = np.unique(ids[::-1], return_index=True)
        engine.update_feature_rows(changed, rows[::-1][last])
        return RefreshStats(num_updated=changed.size, **self._refresh(changed))

    def _refresh(self, seeds: np.ndarray) -> dict:
        """Recompute the rows ``seeds`` reach and publish (``engine.version``
        moves); returns the affected-set fields both stats records share."""
        engine = self.engine
        affected = affected_sets(engine.graph, seeds, engine.num_layers)
        self._recompute_rows(affected)
        self.num_incremental += 1
        engine.version += 1
        sizes = tuple(a.size for a in affected)
        return dict(
            affected_per_layer=sizes,
            affected_fraction=sizes[-1] / max(engine.num_vertices, 1),
            rows_recomputed=sum(sizes),
        )

    def _recompute_rows(self, affected: List[np.ndarray]) -> None:
        """Layer ``l``'s affected rows against the (already updated)
        layer-``l`` input table.

        A layer whose affected set is every vertex is the full pass: it
        runs over ``engine.graph`` and the whole tables, with no row
        subgraph and no gather or scatter.  The logits land in a new
        array assigned when the pass ends: readers hold ``engine.logits``
        without a lock, so no array they can hold is ever written (the
        hidden tables feed only this pass and the start-up precompute)."""
        engine = self.engine
        model = engine.model
        norm = engine.norm
        last = len(model.layers) - 1
        tables = [*engine.layer_inputs, engine.logits]
        was_training = model.training
        model.eval()
        try:
            with no_grad():
                for l, layer in enumerate(model.layers):
                    rows, h = affected[l], tables[l]
                    if rows.size == engine.num_vertices:
                        tables[l + 1] = layer(engine.graph, Tensor(h), norm).data
                        continue
                    if l == last:
                        tables[l + 1] = tables[l + 1].copy()
                    if rows.size == 0:
                        continue
                    z = layer.aggregate(row_subgraph(engine.graph, rows), Tensor(h), norm)
                    tables[l + 1][rows] = _combine_rows(
                        layer, z, Tensor(h[rows]), Tensor(norm.data[rows])
                    )
        finally:
            model.train(was_training)
        engine.layer_inputs[1:] = tables[1:-1]
        engine.logits = tables[-1]

    # -- topology updates ---------------------------------------------------------

    def update_edges(self, add=None, remove=None):
        """Apply edge mutations and refresh the affected embeddings.

        ``add`` / ``remove`` are sequences of ``(src, dst)`` pairs (see
        :mod:`repro.dyngraph.serving_updates`).  The mutation rebuilds
        the engine's shadow graph once; the refresh then reuses the
        k-hop affected-set machinery, seeded from the mutated edges'
        endpoints, and is exactly equal to a full ``precompute()`` on the
        updated graph.  Returns
        :class:`~repro.dyngraph.serving_updates.EdgeUpdateStats`.
        """
        from repro.dyngraph.serving_updates import EdgeUpdateStats, apply_topology

        engine = self.engine
        delta = apply_topology(engine, add=add, remove=remove)
        self.num_topology_updates += 1
        refreshed = self._refresh(delta.seeds)
        return EdgeUpdateStats(
            num_added=delta.num_added,
            num_removed=delta.num_removed,
            num_seeds=int(delta.seeds.size),
            **refreshed,
            num_edges=engine.graph.num_edges,
        )

    def stats(self) -> dict:
        return {
            "incremental": self.num_incremental,
            # every update is incremental and none leaves tables stale;
            # both keys stay on /stats at 0 for readers of the older schema
            "full": 0,
            "deferred": 0,
            "topology_updates": self.num_topology_updates,
        }
