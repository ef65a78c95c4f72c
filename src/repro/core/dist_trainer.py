"""Distributed trainer — DistGNN's data-parallel training, as one rank program.

One model replica per rank, the input graph vertex-cut partitioned, and
per-layer DRPA synchronization of split-vertex partial aggregates.
:class:`RankProgram` states one rank's epoch and evaluation **once**,
against that rank's communicator (``isend`` / ``recv_ready`` /
``barrier`` / ``all_reduce``); every ``barrier`` and ``all_reduce`` is a
*sync point* the program yields, and two drivers run it (see
"Execution backends" below).

Per-layer segmented autograd
----------------------------
The forward pass of each layer is split at the aggregation output so the
remote partials can be injected between the two autograd segments::

    project  :  x      = h_in @ W  if l > 0 and W narrows, else h_in
    segment A:  z      = spmm(A_p, x)            (local partial aggregate)
    DRPA    :   z.data <- sync(z.data)            (0c: skip; cd-0: full;
                                                   cd-r: stale/binned)
    segment B:  h_out  = act(((z' + x) * norm) @ W + b)   (W once: not on a
                                                   projected x)

So every exchange of layer ``l`` moves rows of ``min(in, out)`` features
(the input width at ``l == 0``), ``W``'s gradient arrives through both
segments' tapes, and under cd-r the stale remote term is
``A (h W)`` of ``r`` epochs ago — stale ``h`` *and* stale ``W``.

Backward runs the segments in reverse, and for cd-0 tree-sums the
aggregate gradients between the segments — the exact adjoint of the
forward sync (every clone of a split vertex then applies the total
gradient).  Combined with the global-count loss normalization and the
sum-AllReduce of weight gradients, cd-0 training is mathematically
identical to single-socket training; 0c and cd-r inherit their forward
freshness contracts in backward (remote contributions are constants).

Both the per-rank local aggregates of segment A and the segment-A
backward APs dispatch through ``TrainConfig.kernel`` (default
``"auto"``, the aggregation engine), so every algorithm
(0c / cd-0 / cd-r) runs the same array-native hot path as single-socket
training.  The full dispatch chain and this segmented-autograd contract
are documented in ``docs/ARCHITECTURE.md``.

Execution backends
------------------
``backend="sim"`` (default) runs the ``P`` rank programs in one process,
side by side on threads from sync point to sync point
(:meth:`repro.comm.World.run_programs`) — deterministic (bit-identical
to stepping them in rank order), and collectives cost nothing.  ``backend="shm"`` hands ``fit()`` to
:mod:`repro.core.spmd`, which runs the same program as one OS process
per partition over the :mod:`repro.comm.shm` shared-memory world, where
sync points block — same losses, parameters and byte counters (one
program, so equal by construction; pinned by the backend-equivalence
tests), but with measured wall-clock parallelism and genuine cd-r
overlap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Tuple, Union

import numpy as np

from repro.comm.communicator import World
from repro.core.algorithms import AlgorithmSpec, get_algorithm
from repro.core.config import TrainConfig
from repro.core.drpa import DRPAExchanger, owned_mask, route_bins
from repro.core.metrics import EpochStats, Stopwatch, TrainResult
from repro.core.models import build_model, make_optimizer, norm_from_degrees
from repro.core.spmd import run_shm_fit
from repro.core.sync import allreduce_gradients, grad_or_zeros
from repro.core.trainer import SPLITS, fit_epochs
from repro.featurestore import FeatureStore
from repro.graph.datasets import Dataset
from repro.nn import GraphSAGE, InputAggregate, Tensor, masked_cross_entropy
from repro.nn.tensor import no_grad
from repro.partition import (
    build_partitions,
    build_split_trees,
    hash_edge_partition,
    libra_partition,
    random_edge_partition,
)
from repro.partition.partition import PartitionedGraph


@dataclass
class RankState:
    """Everything one rank owns.

    ``features`` may start as ``None`` on the shm backend with a
    non-resident feature store: the per-rank slice is then gathered
    *inside* the forked worker (:meth:`ensure_features`) from the shared
    read-only cold tier, so the parent never materializes ``P`` feature
    copies — the OS page cache backs all ranks with one set of pages.
    """

    rank: int
    features: Optional[np.ndarray]
    labels: np.ndarray
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray
    owned: np.ndarray
    norm: Tensor
    model: GraphSAGE
    optimizer: object
    #: global vertex ids of this rank's partition rows (the gather key
    #: for deferred feature materialization).
    global_ids: Optional[np.ndarray] = None

    def ensure_features(self, store: FeatureStore) -> np.ndarray:
        """Materialize this rank's feature slice from the store (no-op
        when already resident) — ``store.gather`` returns exactly
        ``dataset.features[global_ids]``, so deferral is invisible to
        the training math."""
        if self.features is None:
            self.features = store.gather(self.global_ids)
        return self.features


@dataclass
class DistTrainResult(TrainResult):
    """Training result plus distributed instrumentation."""

    algorithm: str = ""
    num_partitions: int = 0
    replication_factor: float = 0.0
    total_comm_bytes: int = 0
    peak_inflight_bytes: int = 0


class RankProgram:
    """One rank of DistGNN training (paper Alg. 4), written once.

    ``train_epoch`` and ``evaluate`` are generators over one rank's
    communicator: they yield at every sync point (the two barriers of a
    synchronous DRPA round, each per-parameter AllReduce) and are run by
    ``World.run_programs`` (sim: ``P`` copies on the rank threads) or
    ``ShmCommunicator.run_program`` (shm: one copy per process, sync
    points block).  Phase timers go through ``Stopwatch.timed`` wherever
    they cover a sync point, so on sim a phase never absorbs the wait
    for the other ranks there.
    """

    def __init__(self, trainer: "DistributedTrainer", comm):
        cfg = trainer.config
        self.comm = comm
        self.state = trainer.ranks[comm.rank]
        self.graph = trainer.parted.parts[comm.rank].graph
        self.spec = trainer.spec
        self.feature_store = trainer.feature_store
        self.global_train_count = trainer.global_train_count
        self.input_aggregate = InputAggregate(self.state.model.layers[0])
        # Forward-aggregate exchanger: delay/bins from the algorithm.
        self.agg_exchanger = DRPAExchanger(
            comm,
            trainer.agg_bins,
            delay=self.spec.delay,
            tag_prefix="agg",
            compression=cfg.compression,
        )
        # Synchronous exchangers for cd-0 gradients and for evaluation.
        self.grad_exchanger = DRPAExchanger(comm, trainer.sync_bins, tag_prefix="grad")
        self.eval_exchanger = DRPAExchanger(comm, trainer.sync_bins, tag_prefix="eval")

    def aggregate(self, l: int, layer, h: Tensor) -> Tensor:
        """Segment A: layer ``l``'s local partial aggregate.  The first is
        memoised (this rank's graph, features and norm never change) and
        handed out as a copy: DRPA rounds sync ``z.data`` in place."""
        if l:
            return layer.aggregate(self.graph, h, self.state.norm)
        z = self.input_aggregate(self.graph, h, self.state.norm)
        return Tensor(z.data.copy())

    def train_epoch(self, epoch: int) -> Generator:
        """One training epoch; returns this rank's row of the epoch
        record: its owned-vertex loss and its phase times."""
        state, spec, sw = self.state, self.spec, Stopwatch()
        layers = state.model.layers
        sync_grads = spec.communicate and spec.sync_gradients
        state.model.train()
        state.model.zero_grad()

        h = Tensor(state.ensure_features(self.feature_store), requires_grad=False)
        records: List[Dict] = []
        for l, layer in enumerate(layers):
            x = layer.project(h) if l else h
            # Segment A: local partial aggregation (the AP).
            with sw.time("local_agg"):
                z = self.aggregate(l, layer, x)
            # DRPA: remote partial aggregates (pre/post-processing + comm).
            if spec.is_synchronous:
                yield from sw.timed(
                    "remote_agg",
                    self.agg_exchanger.synchronous_round(z.data, l, epoch),
                )
            elif spec.communicate:
                with sw.time("remote_agg"):
                    self.agg_exchanger.delayed_round(z.data, l, epoch)
            # Segment B: combine + MLP, on detached aggregates.  Layer 0's
            # aggregate gradient has one reader, the cd-0 exchange: segment
            # A there is the tapeless input aggregate.
            z_leaf = Tensor(z.data, requires_grad=l > 0 or sync_grads)
            h_out = layer.combine(z_leaf, x, state.norm)
            records.append({"h_in": h, "z": z, "z_leaf": z_leaf, "h_out": h_out})
            if l < len(layers) - 1:
                h = Tensor(h_out.data, requires_grad=True)

        # Loss over *owned* training vertices, normalized globally.
        mask = state.train_mask & state.owned
        local_loss = 0.0
        if mask.any():
            loss = masked_cross_entropy(
                h_out, state.labels, mask, normalizer=self.global_train_count
            )
            local_loss = float(loss.data)
            # Backward: segment B of the top layer via the loss...
            loss.backward()
        # ...then walk the layer segments down.
        for l in range(len(layers) - 1, -1, -1):
            rec = records[l]
            if not rec["z_leaf"].requires_grad:
                break  # layer 0 with no exchange: its gradient has no reader
            gz = grad_or_zeros(rec["z_leaf"])
            if sync_grads:
                # Exact adjoint of the forward sync: tree-sum the clone
                # gradients and redistribute (root adds leaf grads to its
                # own, then broadcasts the total back), in place.
                yield from sw.timed(
                    "remote_agg",
                    self.grad_exchanger.synchronous_round(gz, l, epoch),
                )
            if l > 0:
                with sw.time("local_agg"):
                    rec["z"].backward(gz)
                records[l - 1]["h_out"].backward(grad_or_zeros(rec["h_in"]))

        # Parameter sync (AllReduce) + identical optimizer steps.
        yield from allreduce_gradients(self.comm, state.model)
        state.optimizer.step()
        return {
            "loss": local_loss,
            "local_agg_time_s": sw.get("local_agg"),
            "remote_agg_time_s": sw.get("remote_agg"),
        }

    def evaluate(self) -> Generator:
        """Complete-neighbourhood inference (synchronous aggregate
        exchange regardless of the training algorithm); returns per-split
        ``(correct, total)`` over this rank's owned vertices."""
        state = self.state
        state.model.eval()
        h = Tensor(state.ensure_features(self.feature_store))
        for l, layer in enumerate(state.model.layers):
            # no_grad is per-thread state, never held across a sync point:
            # after one the sim driver may resume this rank on another thread.
            with no_grad():
                x = layer.project(h) if l else h
                z = self.aggregate(l, layer, x)
            yield from self.eval_exchanger.synchronous_round(
                z.data, l, self.comm.epoch
            )
            with no_grad():
                h = layer.combine(z, x, state.norm)
        state.model.train()
        counts = {}
        for split in SPLITS:
            mask = getattr(state, f"{split}_mask") & state.owned
            pred = h.data[mask].argmax(axis=1)
            counts[split] = (int((pred == state.labels[mask]).sum()), int(mask.sum()))
        return counts


def merge_eval(per_rank: List[Dict[str, Tuple[int, int]]]) -> Dict[str, float]:
    """Global accuracy from per-rank ``(correct, total)`` owned-vertex counts."""
    out = {}
    for split in SPLITS:
        correct = sum(counts[split][0] for counts in per_rank)
        total = sum(counts[split][1] for counts in per_rank)
        out[split] = correct / total if total else 0.0
    return out


class DistributedTrainer:
    """Drives ``num_partitions`` simulated ranks through DRPA training."""

    def __init__(
        self,
        dataset: Dataset,
        num_partitions: int,
        algorithm: Union[str, AlgorithmSpec] = "cd-0",
        config: Optional[TrainConfig] = None,
        partitioner: str = "libra",
        parted: Optional[PartitionedGraph] = None,
        backend: Optional[str] = None,
        feature_store: Optional[FeatureStore] = None,
    ):
        from repro.comm import validate_backend

        self.dataset = dataset
        self.config = config or TrainConfig().for_dataset(dataset.name)
        cfg = self.config
        #: feature tier all ranks read from.  Resident (default) slices
        #: eagerly, exactly the old per-rank copies.  A non-resident
        #: store on the shm backend defers slicing into the forked
        #: workers so every rank reads one shared cold tier.
        self.feature_store = feature_store or FeatureStore.resident(dataset.features)
        #: execution backend: "sim" (the rank programs stepped on
        #: ``self.world``) or "shm" (SPMD worker processes,
        #: :mod:`repro.core.spmd`).
        self.backend = validate_backend(backend or cfg.backend)
        self.spec = (
            algorithm
            if isinstance(algorithm, AlgorithmSpec)
            else get_algorithm(algorithm, delay=cfg.delay)
        )
        self.num_partitions = num_partitions

        if parted is None:
            assignment = _run_partitioner(
                partitioner, dataset.graph, num_partitions, cfg.seed
            )
            parted = build_partitions(dataset.graph, assignment, num_partitions)
        self.parted = parted
        self.plan = build_split_trees(
            parted, seed=cfg.seed, build_tree_objects=False
        )
        self.world = World(num_partitions)
        #: DRPA routing tables shared by every rank's exchangers: the
        #: algorithm's bins for forward aggregates, one bin for the
        #: synchronous gradient and evaluation rounds.
        self.agg_bins = route_bins(self.plan, self.spec.num_bins)
        self.sync_bins = (
            self.agg_bins if self.spec.num_bins == 1 else route_bins(self.plan)
        )

        self.global_train_count = int(np.asarray(dataset.train_mask).sum())
        global_deg = dataset.graph.in_degrees().astype(np.float32)
        # shm workers gather their slice post-fork from the shared cold
        # tier; the sim backend (and resident stores) slice here.
        defer_features = (
            self.backend == "shm" and self.feature_store.tier != "resident"
        )
        self.ranks: List[RankState] = []
        for r in range(num_partitions):
            part = parted.parts[r]
            gids = part.global_ids
            # Same seed across ranks -> identical replicas; dropout stays 0
            # (replica-identical forward is required for cd-0 exactness).
            model = build_model(cfg, dataset.feature_dim, dataset.num_classes)
            optimizer = make_optimizer(model, cfg)
            # Clones share the *global* in-degree so normalization matches
            # the single-socket model after cd-0 synchronization.
            norm = norm_from_degrees(cfg.model, global_deg[gids])
            self.ranks.append(
                RankState(
                    rank=r,
                    features=(
                        None if defer_features else self.feature_store.gather(gids)
                    ),
                    global_ids=gids,
                    labels=dataset.labels[gids],
                    train_mask=dataset.train_mask[gids],
                    val_mask=dataset.val_mask[gids],
                    test_mask=dataset.test_mask[gids],
                    owned=owned_mask(parted, self.plan, r),
                    norm=norm,
                    model=model,
                    optimizer=optimizer,
                )
            )
        #: the rank programs the sim driver steps (shm workers build
        #: their own over their ShmCommunicator after the fork).
        self.programs = [
            self.rank_program(comm) for comm in self.world.communicators()
        ]
        self._peak_inflight = 0

    def rank_program(self, comm) -> RankProgram:
        """The rank program of ``comm.rank`` over that communicator."""
        return RankProgram(self, comm)

    # -- one training epoch ----------------------------------------------------------

    def train_epoch(self, epoch: int) -> EpochStats:
        if self.backend != "sim":
            raise RuntimeError(
                "train_epoch drives the lockstep (sim) path; the "
                f"{self.backend!r} backend trains whole runs via fit()"
            )
        counters_before = self.world.counters.snapshot()
        t0 = time.perf_counter()
        rows = self.world.run_programs(
            [program.train_epoch(epoch) for program in self.programs]
        )
        self.world.advance_epoch()
        measured = dict(
            total_time_s=time.perf_counter() - t0,
            comm_bytes=self.world.counters.delta_since(counters_before).total_bytes,
            inflight_bytes=self.world.queue.in_flight_bytes(),
        )
        return self.merge_epoch(epoch, [dict(row, **measured) for row in rows])

    def merge_epoch(self, epoch: int, records: List[Dict]) -> EpochStats:
        """One epoch's per-rank records (``RankProgram.train_epoch`` rows
        plus the driver's ``total_time_s`` and the world-wide
        ``comm_bytes`` / ``inflight_bytes``, rank 0's being the ones
        read) as global statistics — the same merge for both backends."""
        self._peak_inflight = max(self._peak_inflight, records[0]["inflight_bytes"])
        return EpochStats(
            epoch=epoch,
            # Global loss = sum of the per-rank owned-vertex losses.
            loss=float(np.sum([rec["loss"] for rec in records])),
            # ranks run concurrently: the epoch costs as much as the
            # slowest rank (on sim every rank reports the driver's wall time).
            total_time_s=max(rec["total_time_s"] for rec in records),
            local_agg_time_s=float(
                np.mean([rec["local_agg_time_s"] for rec in records])
            ),
            remote_agg_time_s=float(
                np.mean([rec["remote_agg_time_s"] for rec in records])
            ),
            comm_bytes=records[0]["comm_bytes"],
        )

    # -- evaluation -------------------------------------------------------------------

    def evaluate(self) -> Dict[str, float]:
        """Global accuracy over owned vertices, complete-neighbourhood
        inference (always on the in-process world; after an shm fit the
        parent's replicas hold the trained weights)."""
        return merge_eval(
            self.world.run_programs([program.evaluate() for program in self.programs])
        )

    # -- driver ----------------------------------------------------------------------

    def fit(
        self, num_epochs: Optional[int] = None, verbose: bool = False
    ) -> DistTrainResult:
        cfg = self.config
        num_epochs = num_epochs if num_epochs is not None else cfg.num_epochs
        self._peak_inflight = 0
        train_epoch, evaluate = self.train_epoch, self.evaluate
        if self.backend == "shm":
            # The workers have run the whole fit; replay their per-rank
            # records through the same merges and the same loop.
            epochs, evals = run_shm_fit(self, num_epochs)
            evals = iter(evals)

            def train_epoch(epoch):
                return self.merge_epoch(epoch, epochs[epoch])

            def evaluate():
                return merge_eval(next(evals))

        name = self.spec.display_name()
        shm = " shm" if self.backend == "shm" else ""
        result = fit_epochs(
            DistTrainResult(
                algorithm=name,
                num_partitions=self.num_partitions,
                replication_factor=self.parted.replication_factor,
            ),
            train_epoch,
            evaluate,
            range(num_epochs),
            cfg.eval_every,
            log_prefix=f"[{name} P={self.num_partitions}{shm}] " if verbose else None,
        )
        result.total_comm_bytes = self.world.counters.total_bytes
        result.peak_inflight_bytes = self._peak_inflight
        return result


def _run_partitioner(name: str, graph, num_partitions: int, seed: int) -> np.ndarray:
    if name == "libra":
        return libra_partition(graph, num_partitions, seed=seed)
    if name == "random":
        return random_edge_partition(graph, num_partitions, seed=seed)
    if name == "hash":
        return hash_edge_partition(graph, num_partitions)
    raise ValueError(f"unknown partitioner {name!r}; use libra/random/hash")
