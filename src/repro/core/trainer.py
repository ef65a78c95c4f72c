"""Single-socket full-batch trainer.

This is the paper's optimized single-socket configuration: GraphSAGE-GCN
over the optimized aggregation kernels, full-batch loss on the training
vertices, Adam with the paper's weight decay.  It both serves as the
accuracy reference for the distributed algorithms (Table 5's 1-socket
rows) and produces the Total/AP time split of Fig. 2.

Every forward and backward AP of the model rides
``TrainConfig.kernel`` (default ``"auto"``, the aggregation engine; see
``docs/ARCHITECTURE.md``), so epoch times measure memory behaviour, not
interpreter overhead.  Setting ``TrainConfig.num_threads > 1`` (or
``REPRO_NUM_THREADS``) runs every one of those APs over a work-queue of
destination-row chunks on the engine's thread pool — the paper's
destination-dimension OpenMP parallelization — with bit-identical
losses and parameters.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Optional

import numpy as np

from repro.core.config import TrainConfig
from repro.core.metrics import EpochStats, TrainResult
from repro.core.models import build_model, make_optimizer, norm_from_degrees
from repro.featurestore import FeatureStore
from repro.graph.datasets import Dataset
from repro.kernels.instrumentation import AP_TIMER
from repro.nn import InputAggregate, Tensor, accuracy, masked_cross_entropy
from repro.nn.tensor import no_grad

SPLITS = ("train", "val", "test")


def split_accuracy(logits: np.ndarray, dataset: Dataset) -> Dict[str, float]:
    """Accuracy of full-graph ``logits`` on each of the dataset's splits."""
    return {
        split: accuracy(logits, dataset.labels, getattr(dataset, f"{split}_mask"))
        for split in SPLITS
    }


def eval_due(eval_every: int, epoch: int, num_epochs: int) -> bool:
    """Whether the fit loop evaluates after ``epoch`` (every
    ``eval_every`` epochs and after the last; 0 = only at the end)."""
    return bool(eval_every) and (
        epoch % eval_every == 0 or epoch == num_epochs - 1
    )


def fit_epochs(
    result: TrainResult,
    train_epoch: Callable[[int], EpochStats],
    evaluate: Callable[[], Dict[str, float]],
    epochs: range,
    eval_every: int,
    log_prefix: Optional[str] = None,
) -> TrainResult:
    """The epoch / periodic-eval / best-val loop of every trainer's
    ``fit``: fills ``result`` from the two callables (``log_prefix``
    not ``None`` prints one line per evaluated epoch)."""
    best_val = -1.0
    for epoch in epochs:
        stats = train_epoch(epoch)
        if eval_due(eval_every, epoch, epochs.stop):
            accs = evaluate()
            stats.train_acc = accs["train"]
            stats.val_acc = accs["val"]
            stats.test_acc = accs["test"]
            best_val = max(best_val, accs["val"])
            if log_prefix is not None:
                print(
                    f"{log_prefix}epoch {epoch:4d} loss {stats.loss:.4f} "
                    f"val {accs['val']:.4f} test {accs['test']:.4f}"
                )
        result.epochs.append(stats)
    final = evaluate()
    result.final_test_acc = final["test"]
    result.best_val_acc = max(best_val, final["val"])
    return result


class Trainer:
    """Full-batch single-socket training driver.

    Features are read through a :class:`~repro.featurestore.FeatureStore`
    (default: a resident store over ``dataset.features`` — bit-identical
    to reading the matrix directly).  Passing an ``mmap``-tier store
    trains out-of-core with identical losses and parameters
    (``tests/featurestore/test_parity.py``).  Graph, features and norm
    are fixed for the trainer's lifetime, so layer 0's aggregation runs
    once per trainer, not per epoch (``nn.InputAggregate``: N x d_in
    float32 kept, less than the two float64 transients a product makes).
    """

    def __init__(
        self,
        dataset: Dataset,
        config: Optional[TrainConfig] = None,
        feature_store: Optional[FeatureStore] = None,
    ):
        self.dataset = dataset
        self.config = config or TrainConfig().for_dataset(dataset.name)
        cfg = self.config
        self.model = build_model(cfg, dataset.feature_dim, dataset.num_classes)
        self.feature_store = feature_store or FeatureStore.resident(dataset.features)
        self.features = Tensor(self.feature_store.matrix())
        self.norm = norm_from_degrees(cfg.model, dataset.graph.in_degrees())
        self.model.input_aggregate = InputAggregate(self.model.layers[0])
        self.optimizer = make_optimizer(self.model, cfg)

    # -- epoch loop -----------------------------------------------------------

    def train_epoch(self, epoch: int) -> EpochStats:
        ds, cfg = self.dataset, self.config
        ap_before = AP_TIMER.snapshot()
        t0 = time.perf_counter()
        self.model.train()
        self.model.zero_grad()
        logits = self.model(ds.graph, self.features, self.norm)
        loss = masked_cross_entropy(logits, ds.labels, ds.train_mask)
        loss.backward()
        self.optimizer.step()
        total = time.perf_counter() - t0
        return EpochStats(
            epoch=epoch,
            loss=float(loss.data),
            total_time_s=total,
            ap_time_s=AP_TIMER.snapshot() - ap_before,
        )

    def evaluate(self) -> dict:
        ds = self.dataset
        self.model.eval()
        with no_grad():
            logits = self.model(ds.graph, self.features, self.norm)
        self.model.train()
        return split_accuracy(logits.data, ds)

    def fit(
        self,
        num_epochs: Optional[int] = None,
        verbose: bool = False,
        start_epoch: int = 0,
    ) -> TrainResult:
        """Train epochs ``start_epoch .. num_epochs``.

        ``start_epoch`` is the resume cursor: after ``load_checkpoint``
        restored weights and optimizer slots from an epoch-``k``
        checkpoint, ``fit(num_epochs=N, start_epoch=k)`` runs the
        remaining ``N - k`` epochs and is bit-identical to an
        uninterrupted ``fit(N)`` (pinned by tests/core/test_checkpoint).
        """
        cfg = self.config
        num_epochs = num_epochs if num_epochs is not None else cfg.num_epochs
        return fit_epochs(
            TrainResult(),
            self.train_epoch,
            self.evaluate,
            range(start_epoch, num_epochs),
            cfg.eval_every,
            log_prefix="" if verbose else None,
        )
