"""Checkpoint-backed full-graph inference engine.

The paper's full-batch setting makes layer-wise whole-graph inference
cheap relative to per-request recomputation: one pass of the vectorized
aggregation engine materializes every vertex's embedding at every layer,
after which a prediction is a table lookup.  :class:`InferenceEngine`
therefore separates *precompute* (offline, once per checkpoint or
feature refresh) from *lookup* (online, per request) — the same split
DGL's distributed GraphSAGE examples make between ``inference()`` and
sampled training.

This module is also the repo's **single full-graph inference path**:
:func:`full_graph_forward` is what the mini-batch trainers call for
their full-graph evaluation, and what the engine uses to fill its
per-layer embedding tables (which :mod:`repro.serving.refresh` then
updates incrementally).
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.core.checkpoint import config_from_meta, load_checkpoint, peek_checkpoint
from repro.core.config import TrainConfig
from repro.core.models import build_model, norm_from_degrees
from repro.featurestore import FeatureStore
from repro.graph.csr import CSRGraph, INDEX_DTYPE
from repro.graph.datasets import Dataset
from repro.nn.gcn import GCN
from repro.nn.module import Module
from repro.nn.sage import GraphSAGE
from repro.nn.tensor import Tensor, no_grad

#: architectures the serving tier can rebuild from a checkpoint.
SERVABLE_MODELS = (GraphSAGE, GCN)


def topk_rows(rows: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row top-``k`` ``(classes, scores)``, scores descending.

    ``k`` is clamped to the row width; shared by the engine and the
    service so tie-breaking stays consistent everywhere.
    """
    k = int(min(k, rows.shape[1]))
    if k < 1:
        raise ValueError("k must be >= 1")
    part = np.argpartition(-rows, k - 1, axis=1)[:, :k]
    scores = np.take_along_axis(rows, part, axis=1)
    order = np.argsort(-scores, axis=1, kind="stable")
    classes = np.take_along_axis(part, order, axis=1)
    return classes, np.take_along_axis(scores, order, axis=1)


def model_kind(model: Module) -> str:
    """``"sage"`` / ``"gcn"`` for the two servable architectures."""
    if isinstance(model, GraphSAGE):
        return "sage"
    if isinstance(model, GCN):
        return "gcn"
    raise TypeError(
        f"serving supports {[m.__name__ for m in SERVABLE_MODELS]}, "
        f"got {type(model).__name__}"
    )


def full_graph_forward(
    model: Module,
    graph: CSRGraph,
    features: Union[np.ndarray, Tensor],
    norm: Optional[Tensor] = None,
    capture_inputs: bool = False,
):
    """Layer-wise whole-graph eval forward (no autograd tape).

    Returns the logits as a plain array, or ``(logits, layer_inputs)``
    when ``capture_inputs`` is set — ``layer_inputs[l]`` is the embedding
    table feeding layer ``l`` (``layer_inputs[0]`` is the feature matrix
    itself), which is exactly the state the incremental refresher keeps
    up to date.

    Every layer runs aggregate → combine (``layer(graph, h, norm)``),
    the order the refresher's row-subset recompute uses too (it wants
    the GEMM on the affected rows only), so the two serving paths are
    bit-identical to one another.  Against
    the training stack's ``model(graph, Tensor(features), norm)`` in eval
    mode that is bit-identical where no layer after the first narrows,
    and within float32 rounding where one does (the model aggregates
    ``h @ W`` there: ``GraphConv.project``).
    """
    if norm is None:
        norm = norm_from_degrees(model_kind(model), graph.in_degrees())
    was_training = model.training
    model.eval()
    inputs: List[np.ndarray] = []
    try:
        with no_grad():
            h = features if isinstance(features, Tensor) else Tensor(features)
            for layer in model.layers:
                if capture_inputs:
                    inputs.append(h.data)
                h = layer(graph, h, norm)
    finally:
        model.train(was_training)
    if capture_inputs:
        return h.data, inputs
    return h.data


class InferenceEngine:
    """Turns a training checkpoint into a query-able prediction service.

    Offline, :meth:`precompute` runs one layer-wise full-graph forward
    pass (eval mode, vectorized kernel engine, no autograd tape) and
    materializes the per-layer embedding tables plus the logits.
    Online, :meth:`predict` / :meth:`topk` are row lookups into the
    logits table.

    Features are read through a :class:`~repro.featurestore.FeatureStore`.
    By default the engine builds a private *resident* store over a
    writable copy of the dataset's feature matrix (exactly the old
    engine-owned copy), so :class:`repro.serving.refresh.
    IncrementalRefresher` can apply feature updates without mutating the
    dataset.  Passing an ``mmap``-tier store serves out-of-core graphs:
    precompute scans the read-only cold map and updates land in the
    store's private patched copy (:meth:`update_feature_rows`) — answers stay
    bit-identical to the resident tier.
    """

    def __init__(
        self,
        dataset: Dataset,
        model: Module,
        config: Optional[TrainConfig] = None,
        checkpoint_epoch: int = 0,
        num_threads: Optional[int] = None,
        feature_store: Optional[FeatureStore] = None,
    ):
        self.model_kind = model_kind(model)  # validates the architecture
        self.dataset = dataset
        self.model = model
        self.graph = dataset.graph
        self.config = config
        self.checkpoint_epoch = int(checkpoint_epoch)
        #: kernel worker threads for the precompute pass: > 1 runs each
        #: layer's AP on the parallel execution engine (bit-identical
        #: embeddings/logits, faster precompute and refresh).  When set,
        #: the engine takes ownership of the model's kernel threading:
        #: ``layer.num_threads`` is overwritten *in place* on every layer
        #: so all engine-driven forwards — full precompute and incremental
        #: refresh — use it.  Don't share one model
        #: object between engines (or a live trainer) with different
        #: thread settings; ``from_checkpoint`` builds a private model.
        self.num_threads = num_threads
        if num_threads is not None:
            for layer in model.layers:
                layer.num_threads = num_threads
        #: engine-owned feature tier (refresh target).  The default
        #: resident store wraps a private writable copy of the dataset
        #: matrix; route updates through :meth:`update_feature_rows`.
        self.feature_store = (
            feature_store
            if feature_store is not None
            else FeatureStore.resident(np.array(dataset.features, copy=True))
        )
        #: mutable shadow of ``graph``, attached lazily by the first
        #: ``update_edges`` (see :mod:`repro.dyngraph.serving_updates`).
        #: Once set, ``self.graph`` is its current CSR and diverges from
        #: ``dataset.graph`` — the dataset stays frozen.
        self.dynamic = None
        self.norm = norm_from_degrees(self.model_kind, self.graph.in_degrees())
        #: ``layer_inputs[l]`` feeds layer ``l``; ``layer_inputs[0]``
        #: shares the store's current matrix (the array itself on the
        #: resident tier, a zero-copy view of the map on mmap), and
        #: :meth:`update_feature_rows` re-anchors it when an update
        #: swaps the backing (mmap materializing its patched copy).
        self.layer_inputs: List[np.ndarray] = []
        self.logits: Optional[np.ndarray] = None
        self.num_precomputes = 0
        #: monotonically increasing table version: bumped by every
        #: precompute and every refresher write (each one a publish).
        self.version = 0

    # -- construction -----------------------------------------------------------

    @classmethod
    def from_checkpoint(
        cls,
        path: str,
        dataset: Dataset,
        config: Optional[TrainConfig] = None,
        num_threads: Optional[int] = None,
        feature_store: Optional[FeatureStore] = None,
    ) -> "InferenceEngine":
        """Rebuild the trained model from a ``core.checkpoint`` file.

        The architecture comes from the checkpoint's embedded metadata
        (``repro train --checkpoint`` writes it); an explicit ``config``
        overrides it, and the dataset's paper shape is the fallback.
        ``num_threads`` parallelizes the precompute APs (the serving-tier
        knob — checkpoints carry architecture, not machine shape).
        ``feature_store`` swaps the default resident copy for e.g. an
        mmap-tier store (``repro serve --feature-store mmap``).
        """
        epoch, extra = peek_checkpoint(path)
        cfg = config_from_meta(
            extra, config or TrainConfig().for_dataset(dataset.name)
        )
        model = build_model(cfg, dataset.feature_dim, dataset.num_classes)
        load_checkpoint(path, model)
        return cls(
            dataset, model, config=cfg, checkpoint_epoch=epoch,
            num_threads=num_threads, feature_store=feature_store,
        )

    # -- features ---------------------------------------------------------------

    @property
    def features(self) -> np.ndarray:
        """The store's current full matrix.  Writable in place on the
        default resident tier (back-compat); the mmap tier's map is
        read-only — route updates through :meth:`update_feature_rows`."""
        return self.feature_store.matrix()

    def update_feature_rows(self, vertex_ids, rows) -> None:
        """Overwrite feature rows through the store (fancy-assignment
        semantics) and keep ``layer_inputs[0]`` anchored to the store's
        live matrix — on the mmap tier the first update swaps the
        read-only map for the private patched copy, and the stale view
        must not keep feeding layer 0's refresh reads."""
        self.feature_store.update_rows(vertex_ids, rows)
        if self.layer_inputs:
            self.layer_inputs[0] = np.asarray(self.feature_store.matrix())

    # -- offline precompute ------------------------------------------------------

    def precompute(self) -> "InferenceEngine":
        """Materialize per-layer embeddings and logits for every vertex."""
        self.logits, self.layer_inputs = full_graph_forward(
            self.model,
            self.graph,
            self.features,
            self.norm,
            capture_inputs=True,
        )
        self.num_precomputes += 1
        self.version += 1
        return self

    def ensure_ready(self) -> "InferenceEngine":
        if self.logits is None:
            self.precompute()
        return self

    @property
    def num_layers(self) -> int:
        return len(self.model.layers)

    @property
    def num_vertices(self) -> int:
        return self.graph.num_vertices

    # -- online lookups ----------------------------------------------------------

    def _check_ids(self, vertex_ids) -> np.ndarray:
        ids = np.atleast_1d(np.asarray(vertex_ids, dtype=INDEX_DTYPE))
        if ids.ndim != 1:
            raise ValueError("vertex_ids must be a 1-D sequence")
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_vertices):
            raise ValueError(
                f"vertex ids must be in [0, {self.num_vertices}), "
                f"got range [{ids.min()}, {ids.max()}]"
            )
        return ids

    def predict(self, vertex_ids) -> np.ndarray:
        """Logit rows for ``vertex_ids`` — ``logits[ids]`` of the
        layer-by-layer forward (:func:`full_graph_forward`, which states
        how that relates to ``model(...)``)."""
        self.ensure_ready()
        return self.logits[self._check_ids(vertex_ids)]

    def predict_labels(self, vertex_ids) -> np.ndarray:
        """Argmax class per requested vertex."""
        return np.argmax(self.predict(vertex_ids), axis=1)

    def topk(self, vertex_ids, k: int = 5) -> Tuple[np.ndarray, np.ndarray]:
        """Per-vertex top-``k`` ``(classes, scores)``, scores descending."""
        return topk_rows(self.predict(vertex_ids), k)

    def stats(self) -> dict:
        return {
            "model": self.model_kind,
            "num_layers": self.num_layers,
            "num_vertices": self.num_vertices,
            "num_edges": self.graph.num_edges,
            "checkpoint_epoch": self.checkpoint_epoch,
            "num_precomputes": self.num_precomputes,
            "num_threads": self.num_threads,
            "ready": self.logits is not None,
            "feature_store": self.feature_store.stats(),
        }
