"""Mini-batch GraphSAGE training over sampled message-flow blocks.

This is the Dist-DGL-style training mode of Tables 7–9, executable: each
step samples a batch with :class:`~repro.sampling.sampler.NeighborSampler`
and pushes it through the same :class:`~repro.nn.sage.SageConvGCN` layers
full-batch training uses (one block per layer; the self term is the
leading row-slice of the source frontier).  Evaluation runs the trained
weights full-graph, as Dist-DGL does for test accuracy.

Per-block aggregation dispatches through ``TrainConfig.kernel`` exactly
like the full-batch path, so sampled message-flow blocks ride the
aggregation engine too (sampled blocks are rectangular CSRs, which the
engine handles natively, one whole-block pass each with no plan cached).
Both sampled trainers draw batches from one producer, :func:`epoch_seeds`,
and run one step: ``compute_gradients``, then the optimizer step.
"""

from __future__ import annotations

import time
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.core.config import TrainConfig
from repro.core.metrics import EpochStats, TrainResult
from repro.core.models import build_model, make_optimizer
from repro.core.trainer import fit_epochs, split_accuracy
from repro.featurestore import FeatureStore
from repro.graph.datasets import Dataset
from repro.nn import GraphSAGE, Tensor, masked_cross_entropy
from repro.nn.functional import _make
from repro.sampling.sampler import MessageFlowBlock, NeighborSampler, SampledBatch


def epoch_seeds(
    rng: np.random.Generator, shards: Sequence[np.ndarray], batch_size: int
) -> Iterator[List[np.ndarray]]:
    """One epoch's seed batches: every shard permuted by ``rng`` (in shard
    order), then ``max ceil(len / batch_size)`` steps of one slice per
    shard — empty once that shard has run out (the Dist-DGL producer's
    step count is the max over ranks)."""
    orders = [rng.permutation(shard) for shard in shards]
    steps = max((-(-order.size // batch_size) for order in orders), default=0)
    for lo in range(0, steps * batch_size, batch_size):
        yield [order[lo : lo + batch_size] for order in orders]


def forward_blocks(
    model: GraphSAGE, h: Tensor, blocks: Sequence[MessageFlowBlock]
) -> Tensor:
    """Push input-frontier features through the layer stack, one sampled
    block per layer."""
    for layer, block in zip(model.layers, blocks):
        z = layer.aggregate(block.graph, h)
        # self term: dst rows lead the src frontier, so a row slice
        h = layer.combine(z, _row_slice(h, block.num_dst), Tensor(block.norm()))
    return h


class MiniBatchTrainer:
    """Sampled training driver (one simulated socket).

    Per-batch feature slicing goes through a
    :class:`~repro.featurestore.FeatureStore` (default: resident over
    ``dataset.features``, bit-identical to direct slicing).  With an
    ``mmap``-tier store each input frontier is one gather straight from
    the mapped file, its hot rows served by the OS page cache
    (``docs/feature-gather.md`` times it).
    """

    def __init__(
        self,
        dataset: Dataset,
        fanouts: Sequence[int],
        batch_size: int = 512,
        config: Optional[TrainConfig] = None,
        feature_store: Optional[FeatureStore] = None,
    ):
        self.dataset = dataset
        self.config = config or TrainConfig().for_dataset(dataset.name)
        self.feature_store = feature_store or FeatureStore.resident(dataset.features)
        cfg = self.config
        if len(fanouts) != cfg.num_layers:
            raise ValueError("need one fanout per layer")
        # only GraphSAGE has a block forward (forward_blocks feeds its self
        # term the leading row-slice of the source frontier)
        if cfg.model.lower() != "sage":
            raise ValueError(
                f"mini-batch training supports model 'sage', not {cfg.model!r}"
            )
        self.batch_size = int(batch_size)
        self.sampler = NeighborSampler(dataset.graph, fanouts, seed=cfg.seed)
        self.model = build_model(cfg, dataset.feature_dim, dataset.num_classes)
        self.optimizer = make_optimizer(self.model, cfg)
        self.rng = np.random.default_rng(cfg.seed + 101)
        self.train_vertices = np.flatnonzero(dataset.train_mask)
        #: cumulative paper-style sampled work (ops).
        self.total_work_ops = 0.0
        self._gather = self.feature_store.gather

    def _as_replica(self, sampler_seed: int, gather) -> "MiniBatchTrainer":
        """Seam for ``DistMiniBatchTrainer``: one rank's replica, sampling on
        its own stream and reading input features through ``gather``."""
        graph, fanouts = self.sampler.graph, self.sampler.fanouts
        self.sampler = NeighborSampler(graph, fanouts, sampler_seed)
        self._gather = gather
        return self

    # -- one step -------------------------------------------------------------------

    def forward_batch(self, batch: SampledBatch) -> Tensor:
        """Push one sampled batch through the layer stack."""
        h = Tensor(self._gather(batch.input_vertices))
        return forward_blocks(self.model, h, batch.blocks)

    def compute_gradients(self, seeds: np.ndarray) -> float:
        """The gradient half of a step: sample, count the work, then fresh
        gradients from forward, loss and backward.  Returns the loss."""
        ds = self.dataset
        batch = self.sampler.sample(seeds)
        dims = [self.dataset.feature_dim] + [
            self.config.hidden_features
        ] * (self.config.num_layers - 1)
        self.total_work_ops += batch.work_ops(dims)
        self.model.zero_grad()
        logits = self.forward_batch(batch)
        loss = masked_cross_entropy(logits, ds.labels[batch.seeds])
        loss.backward()
        return float(loss.data)

    def train_step(self, seeds: np.ndarray) -> float:
        loss = self.compute_gradients(seeds)
        self.optimizer.step()
        return loss

    # -- epoch loop -----------------------------------------------------------------

    def train_epoch(self, epoch: int) -> EpochStats:
        t0 = time.perf_counter()
        batches = epoch_seeds(self.rng, [self.train_vertices], self.batch_size)
        losses = [self.train_step(seeds) for (seeds,) in batches]
        return EpochStats(
            epoch=epoch,
            loss=float(np.mean(losses)) if losses else float("nan"),
            total_time_s=time.perf_counter() - t0,
        )

    def evaluate(self) -> dict:
        """Split accuracies of full-graph inference with the trained weights
        (the single inference path shared with the serving tier)."""
        from repro.serving.engine import full_graph_forward

        logits = full_graph_forward(
            self.model, self.dataset.graph, self.feature_store.matrix()
        )
        return split_accuracy(logits, self.dataset)

    def fit(self, num_epochs: int, verbose: bool = False) -> TrainResult:
        return fit_epochs(
            TrainResult(),
            self.train_epoch,
            self.evaluate,
            range(num_epochs),
            self.config.eval_every,
            log_prefix="" if verbose else None,
        )


def _row_slice(t: Tensor, n: int) -> Tensor:
    """Differentiable leading-row slice ``t[:n]``."""
    data = t.data[:n]

    def backward(g):
        full = np.zeros_like(t.data)
        full[:n] = g
        return (full,)

    return _make(data, (t,), backward, "row_slice")
