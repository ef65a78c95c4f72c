"""InferenceEngine: precompute bit-identity, lookups, checkpoint rebuild."""

import numpy as np
import pytest

from repro.core import TrainConfig
from repro.nn import RGCN
from repro.nn.tensor import Tensor, no_grad
from repro.serving import InferenceEngine, full_graph_forward
from repro.serving.engine import model_kind


def assert_matches_model_call(served: np.ndarray, model_call: np.ndarray, model):
    """Served logits against ``model(graph, features, norm)``: identical
    where no layer after the first narrows, else within the float32 bound
    of reassociating ``W`` (and the same predictions)."""
    if any(l.linear.out_features < l.linear.in_features for l in model.layers[1:]):
        np.testing.assert_allclose(served, model_call, rtol=1e-5, atol=1e-6)
        assert np.array_equal(served.argmax(axis=1), model_call.argmax(axis=1))
    else:
        assert np.array_equal(served, model_call)


def _direct_logits(trained):
    ds, trainer, cfg = trained
    trainer.model.eval()
    with no_grad():
        logits = trainer.model(ds.graph, Tensor(ds.features), trainer.norm)
    trainer.model.train()
    return logits.data


def _layerwise_logits(trained):
    """The aggregate -> combine forward every serving path shares."""
    ds, trainer, _ = trained
    return full_graph_forward(trainer.model, ds.graph, ds.features)


def test_predict_bit_identical_to_direct_forward(trained, engine):
    ds, trainer, _ = trained
    ids = np.array([0, 3, 17, ds.num_vertices - 1])
    assert np.array_equal(engine.predict(ids), engine.logits[ids])
    # the full table is the layer-by-layer forward, bit for bit ...
    assert np.array_equal(engine.logits, _layerwise_logits(trained))
    # ... and the training stack's forward, up to where W is applied
    assert_matches_model_call(engine.logits, _direct_logits(trained), trainer.model)


def test_full_graph_forward_matches_model_call(trained):
    _, trainer, _ = trained
    assert_matches_model_call(
        _layerwise_logits(trained), _direct_logits(trained), trainer.model
    )


def test_capture_inputs_layout(trained, engine):
    ds, _, cfg = trained
    assert len(engine.layer_inputs) == cfg.num_layers
    # layer 0 input IS the engine's feature matrix (refresh writes there)
    assert engine.layer_inputs[0] is engine.features
    assert engine.layer_inputs[1].shape == (ds.num_vertices, cfg.hidden_features)
    assert engine.logits.shape == (ds.num_vertices, ds.num_classes)


def test_from_checkpoint_rebuilds_architecture(trained, checkpoint_path):
    ds, trainer, cfg = trained
    eng = InferenceEngine.from_checkpoint(checkpoint_path, ds)
    assert eng.model_kind == cfg.model
    assert eng.checkpoint_epoch == 3
    eng.precompute()
    assert np.array_equal(eng.logits, _layerwise_logits(trained))
    assert_matches_model_call(eng.logits, _direct_logits(trained), eng.model)


def test_threaded_precompute_bit_identical(trained, checkpoint_path):
    """num_threads routes the layer-wise precompute pass through the
    parallel engine without changing a bit of the tables."""
    ds, _, _ = trained
    eng = InferenceEngine.from_checkpoint(checkpoint_path, ds, num_threads=2)
    assert all(layer.num_threads == 2 for layer in eng.model.layers)
    eng.precompute()
    assert np.array_equal(eng.logits, _layerwise_logits(trained))
    assert eng.stats()["num_threads"] == 2


def test_from_checkpoint_config_override(trained, checkpoint_path):
    """An explicit config is still overlaid by the checkpoint's meta,
    so the model shape always matches the stored weights."""
    ds, _, cfg = trained
    base = TrainConfig(num_layers=3, hidden_features=64, model="sage")
    eng = InferenceEngine.from_checkpoint(checkpoint_path, ds, config=base)
    assert eng.model.parameters()
    assert eng.config.num_layers == cfg.num_layers
    assert eng.config.hidden_features == cfg.hidden_features


@pytest.mark.parametrize("recorded", ["reordered", "baseline"])
def test_checkpoint_kernel_entry_is_ignored(trained, tmp_path, recorded):
    """A checkpoint carries architecture, not an execution choice: an
    ``extra/kernel`` entry — a preset name that no longer exists, or the
    Fig. 2 per-vertex baseline the model was trained with — neither fails
    the load nor picks the serving kernel."""
    from repro.core.checkpoint import save_checkpoint, training_meta

    ds, trainer, cfg = trained
    assert "kernel" not in training_meta(cfg)
    path = str(tmp_path / "legacy.npz")
    extra = {**training_meta(cfg), "kernel": np.asarray(recorded)}
    save_checkpoint(path, trainer.model, epoch=3, extra=extra)
    eng = InferenceEngine.from_checkpoint(path, ds)
    assert not hasattr(eng.config, "kernel")
    fresh = full_graph_forward(trainer.model, ds.graph, ds.features)
    assert np.array_equal(eng.precompute().logits, fresh)


def test_predict_labels_and_topk(engine):
    ids = np.arange(10)
    rows = engine.predict(ids)
    assert np.array_equal(engine.predict_labels(ids), np.argmax(rows, axis=1))
    classes, scores = engine.topk(ids, k=3)
    assert classes.shape == scores.shape == (10, 3)
    # descending scores, first column is the argmax
    assert np.all(np.diff(scores, axis=1) <= 0)
    assert np.array_equal(classes[:, 0], np.argmax(rows, axis=1))
    # exact rows: top-3 == argsort head
    for row, crow in zip(rows, classes):
        expected = np.argsort(-row, kind="stable")[:3]
        assert set(crow) == set(expected)


def test_topk_k_clamped_to_num_classes(engine):
    classes, _ = engine.topk([0], k=10_000)
    assert classes.shape[1] == engine.dataset.num_classes


def test_vertex_id_validation(engine):
    with pytest.raises(ValueError, match="vertex ids"):
        engine.predict([engine.num_vertices])
    with pytest.raises(ValueError, match="vertex ids"):
        engine.predict([-1])


def test_lazy_precompute(trained):
    ds, trainer, cfg = trained
    eng = InferenceEngine(ds, trainer.model, cfg)
    assert eng.logits is None and not eng.stats()["ready"]
    eng.predict([0])  # ensure_ready triggers the pass
    assert eng.num_precomputes == 1 and eng.stats()["ready"]


def test_unsupported_model_rejected(reddit_mini):
    rgcn = RGCN(reddit_mini.feature_dim, 8, reddit_mini.num_classes, ["rel"])
    with pytest.raises(TypeError, match="serving supports .* got RGCN"):
        model_kind(rgcn)


def test_engine_owns_feature_copy(trained, engine):
    ds, _, _ = trained
    engine.features[0, 0] += 1.0
    assert ds.features[0, 0] != engine.features[0, 0]
