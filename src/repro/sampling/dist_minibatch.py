"""Distributed mini-batch training — an executable Dist-DGL stand-in.

Dist-DGL (the paper's comparator in Tables 7–9) trains with data-parallel
neighbourhood sampling: training vertices are split across ranks, each
rank samples its batches against the full graph, fetches the features of
sampled frontier vertices from their owning rank ("it holds the vertex
features in a distributed data server which can be queried for data
access"), and gradients are AllReduced per mini-batch.

This module executes that pipeline on the simulated world so its
communication volume and work can be measured next to DistGNN's —
completing the Table 9 comparison with counted rather than modelled
traffic.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

import numpy as np

from repro.comm.communicator import World
from repro.core.config import TrainConfig
from repro.core.metrics import EpochStats, TrainResult
from repro.core.models import make_optimizer
from repro.core.sync import allreduce_gradients
from repro.graph.csr import INDEX_DTYPE
from repro.graph.datasets import Dataset
from repro.nn import Tensor, masked_cross_entropy
from repro.sampling.minibatch_trainer import (
    build_block_model,
    evaluate_full_graph,
    forward_blocks,
)
from repro.sampling.sampler import NeighborSampler


class DistMiniBatchTrainer:
    """Data-parallel sampled training over a simulated world."""

    def __init__(
        self,
        dataset: Dataset,
        num_ranks: int,
        fanouts: Sequence[int],
        batch_size: int = 512,
        config: Optional[TrainConfig] = None,
        feature_store=None,
    ):
        from repro.featurestore import FeatureStore

        self.dataset = dataset
        self.config = config or TrainConfig().for_dataset(dataset.name)
        # the simulated Dist-DGL feature server reads through the store
        # (resident default = direct dataset slicing, bit-identical)
        self.feature_store = feature_store or FeatureStore.resident(dataset.features)
        cfg = self.config
        if len(fanouts) != cfg.num_layers:
            raise ValueError("need one fanout per layer")
        self.num_ranks = num_ranks
        self.batch_size = int(batch_size)
        self.world = World(num_ranks)
        #: feature ownership: vertex -> owning rank (hash distribution, the
        #: Dist-DGL feature-server layout).
        self.owner = (
            np.arange(dataset.num_vertices, dtype=INDEX_DTYPE) % num_ranks
        )
        self.samplers = [
            NeighborSampler(dataset.graph, fanouts, seed=cfg.seed + 31 * r)
            for r in range(num_ranks)
        ]
        self.models = [
            build_block_model(cfg, dataset.feature_dim, dataset.num_classes)
            for _ in range(num_ranks)
        ]
        self.optimizers = [make_optimizer(m, cfg) for m in self.models]
        rng = np.random.default_rng(cfg.seed + 7)
        train = np.flatnonzero(dataset.train_mask)
        shuffled = rng.permutation(train)
        #: per-rank training shards (equal split, Dist-DGL style).
        self.shards: List[np.ndarray] = np.array_split(shuffled, num_ranks)
        self.rng = np.random.default_rng(cfg.seed + 13)

    # -- feature fetch accounting ---------------------------------------------------

    def _fetch_features(self, rank: int, vertices: np.ndarray) -> np.ndarray:
        """Read input features, counting remote fetches as communication."""
        remote = vertices[self.owner[vertices] != rank]
        if remote.size:
            d = self.dataset.feature_dim
            owners = self.owner[remote]
            counts = np.bincount(owners, minlength=self.num_ranks)
            for owner_rank, cnt in enumerate(counts.tolist()):
                if cnt and owner_rank != rank:
                    self.world.counters.record_p2p(
                        owner_rank, rank, int(cnt) * d * 4
                    )
        return self.feature_store.gather(vertices)

    # -- lockstep epoch -----------------------------------------------------------

    def train_epoch(self, epoch: int) -> EpochStats:
        ds, cfg = self.dataset, self.config
        t0 = time.perf_counter()
        counters_before = self.world.counters.snapshot()
        offsets = [self.rng.permutation(shard) for shard in self.shards]
        steps = max(
            -(-shard.size // self.batch_size) for shard in self.shards
        )
        losses = []
        for step in range(steps):
            grads_ready = False
            for rank in range(self.num_ranks):
                shard = offsets[rank]
                lo = step * self.batch_size
                seeds = shard[lo : lo + self.batch_size]
                model = self.models[rank]
                model.zero_grad()
                if seeds.size == 0:
                    continue
                batch = self.samplers[rank].sample(seeds)
                h = Tensor(self._fetch_features(rank, batch.input_vertices))
                logits = forward_blocks(model, h, batch.blocks)
                loss = masked_cross_entropy(logits, ds.labels[batch.seeds])
                loss.backward()
                losses.append(float(loss.data))
                grads_ready = True
            if grads_ready:
                self._allreduce_step()
        self.world.advance_epoch()
        delta = self.world.counters.delta_since(counters_before)
        return EpochStats(
            epoch=epoch,
            loss=float(np.mean(losses)) if losses else float("nan"),
            total_time_s=time.perf_counter() - t0,
            comm_bytes=delta.total_bytes,
        )

    def _allreduce_step(self) -> None:
        self.world.run_programs(
            [
                allreduce_gradients(comm, model, op="mean")
                for comm, model in zip(self.world.communicators(), self.models)
            ]
        )
        for opt in self.optimizers:
            opt.step()

    def evaluate(self) -> dict:
        return evaluate_full_graph(self.models[0], self.dataset, self.feature_store)

    def fit(self, num_epochs: int, verbose: bool = False) -> TrainResult:
        result = TrainResult()
        for epoch in range(num_epochs):
            stats = self.train_epoch(epoch)
            result.epochs.append(stats)
            if verbose:
                print(f"epoch {epoch:3d} loss {stats.loss:.4f}")
        final = self.evaluate()
        result.final_test_acc = final["test"]
        result.best_val_acc = final["val"]
        return result
