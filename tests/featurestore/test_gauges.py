"""Feature-store gauges surface through the serving metrics endpoint."""

import numpy as np
import pytest

from repro.core import TrainConfig, Trainer, save_checkpoint
from repro.core.checkpoint import training_meta
from repro.featurestore import FeatureStore
from repro.graph.datasets import load_dataset
from repro.obs.registry import _serving_metrics
from repro.serving import InferenceEngine, PredictionService, ServingFrontend


@pytest.fixture(scope="module")
def ds():
    return load_dataset("reddit", scale=0.02, seed=5)


@pytest.fixture(scope="module")
def checkpoint(ds, tmp_path_factory):
    cfg = TrainConfig(num_layers=2, hidden_features=8, eval_every=0, seed=0)
    trainer = Trainer(ds, cfg)
    trainer.fit(num_epochs=2)
    path = str(tmp_path_factory.mktemp("ckpt") / "gauges.npz")
    save_checkpoint(path, trainer.model, trainer.optimizer, epoch=2,
                    extra=training_meta(cfg))
    return path


def _snapshot(checkpoint, ds, store):
    """(JSON metrics snapshot, Prometheus family names) of one frontend."""
    engine = InferenceEngine.from_checkpoint(checkpoint, ds, feature_store=store)
    engine.precompute()
    service = PredictionService(engine)
    frontend = ServingFrontend(service, num_workers=1)
    try:
        frontend.call("predict", lambda: service.predict_logits([0, 1, 2]))
        families = {m.name for m in _serving_metrics(frontend)}
        return frontend.metrics_snapshot(), families
    finally:
        frontend.close()
        service.close()


def test_metrics_carry_mmap_feature_store_gauges(tmp_path, checkpoint, ds):
    store = FeatureStore.create(str(tmp_path / "store"), ds.features)
    snap, families = _snapshot(checkpoint, ds, store)
    fs = snap["feature_store"]
    assert fs["tier"] == "mmap"
    assert fs["bytes_mapped"] == np.asarray(ds.features).nbytes
    assert fs["cold_rows_read"] == store.cold_rows_read
    assert "hot_rows" not in fs and "hit_rate" not in fs
    assert {
        "repro_feature_store_cold_rows_read_total",
        "repro_feature_store_updates_total",
        "repro_feature_store_bytes_mapped",
    } <= families
    # there is no hot tier to report on
    assert not {"repro_feature_store_hot_rows", "repro_feature_store_hit_rate"} & families


def test_metrics_carry_resident_feature_store_gauges(checkpoint, ds):
    snap, _ = _snapshot(checkpoint, ds, None)
    fs = snap["feature_store"]
    assert fs["tier"] == "resident"
    assert fs["bytes_mapped"] == 0
