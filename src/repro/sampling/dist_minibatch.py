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
traffic.  Each rank is a :class:`MiniBatchTrainer` replica running the
gradient half of its step; the driver only adds the AllReduce.
"""

from __future__ import annotations

import time
from functools import partial
from typing import List, Optional, Sequence

import numpy as np

from repro.comm.communicator import World
from repro.core.config import TrainConfig
from repro.core.metrics import EpochStats, TrainResult
from repro.core.sync import allreduce_gradients
from repro.core.trainer import fit_epochs
from repro.featurestore import FeatureStore
from repro.graph.csr import INDEX_DTYPE
from repro.graph.datasets import Dataset
from repro.sampling.minibatch_trainer import MiniBatchTrainer, epoch_seeds


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
        self.dataset = dataset
        self.config = config or TrainConfig().for_dataset(dataset.name)
        # the simulated Dist-DGL feature server reads through the store
        # (resident default = direct dataset slicing, bit-identical)
        self.feature_store = feature_store or FeatureStore.resident(dataset.features)
        cfg = self.config
        self.num_ranks = num_ranks
        self.batch_size = int(batch_size)
        self.world = World(num_ranks)
        #: feature ownership: vertex -> owning rank (hash distribution, the
        #: Dist-DGL feature-server layout).
        self.owner = (
            np.arange(dataset.num_vertices, dtype=INDEX_DTYPE) % num_ranks
        )
        #: one trainer per rank: identical initial weights, sampler stream
        #: ``cfg.seed + 31 r``, input features through the counted fetch.
        self.replicas: List[MiniBatchTrainer] = [
            MiniBatchTrainer(
                dataset, fanouts, batch_size, cfg, self.feature_store
            )._as_replica(cfg.seed + 31 * r, partial(self._fetch_features, r))
            for r in range(num_ranks)
        ]
        rng = np.random.default_rng(cfg.seed + 7)
        train = np.flatnonzero(dataset.train_mask)
        shuffled = rng.permutation(train)
        #: per-rank training shards (equal split, Dist-DGL style).
        self.shards: List[np.ndarray] = np.array_split(shuffled, num_ranks)
        self.rng = np.random.default_rng(cfg.seed + 13)

    @property
    def models(self) -> list:
        return [replica.model for replica in self.replicas]

    @property
    def optimizers(self) -> list:
        return [replica.optimizer for replica in self.replicas]

    # -- feature fetch accounting ---------------------------------------------------

    def _fetch_features(self, rank: int, vertices: np.ndarray) -> np.ndarray:
        """Read input features, counting remote fetches as communication."""
        store = self.feature_store
        row_bytes = store.dim * store.dtype.itemsize
        counts = np.bincount(self.owner[vertices], minlength=self.num_ranks)
        for owner_rank, cnt in enumerate(counts.tolist()):
            if cnt and owner_rank != rank:
                self.world.counters.record_p2p(owner_rank, rank, cnt * row_bytes)
        return store.gather(vertices)

    # -- lockstep epoch -----------------------------------------------------------

    def train_epoch(self, epoch: int) -> EpochStats:
        t0 = time.perf_counter()
        counters_before = self.world.counters.snapshot()
        losses = []
        for slices in epoch_seeds(self.rng, self.shards, self.batch_size):
            for replica, seeds in zip(self.replicas, slices):
                if seeds.size:
                    losses.append(replica.compute_gradients(seeds))
                else:  # shard run out: contribute zeros to the mean
                    replica.model.zero_grad()
            self.world.run_programs(
                [
                    allreduce_gradients(comm, model, op="mean")
                    for comm, model in zip(self.world.communicators(), self.models)
                ]
            )
            for optimizer in self.optimizers:
                optimizer.step()
        self.world.advance_epoch()
        delta = self.world.counters.delta_since(counters_before)
        return EpochStats(
            epoch=epoch,
            loss=float(np.mean(losses)) if losses else float("nan"),
            total_time_s=time.perf_counter() - t0,
            comm_bytes=delta.total_bytes,
        )

    def evaluate(self) -> dict:
        return self.replicas[0].evaluate()

    def fit(self, num_epochs: int, verbose: bool = False) -> TrainResult:
        return fit_epochs(
            TrainResult(),
            self.train_epoch,
            self.evaluate,
            range(num_epochs),
            self.config.eval_every,
            log_prefix=f"[dist-minibatch P={self.num_ranks}] " if verbose else None,
        )
