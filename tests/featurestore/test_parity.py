"""Bit-identical parity: every consumer, mmap+hotset vs resident.

The acceptance bar for the feature-store subsystem is *exactness*, not
closeness: training losses, final parameters, and serving outputs must
be byte-for-byte identical whichever tier backs the features — including
after live feature and edge updates.
"""

import os

import numpy as np
import pytest

from repro.core import TrainConfig, Trainer, save_checkpoint
from repro.core.checkpoint import training_meta
from repro.core.dist_trainer import DistributedTrainer
from repro.featurestore import FeatureStore
from repro.graph.datasets import load_dataset
from repro.sampling import DistMiniBatchTrainer, MiniBatchTrainer
from repro.serving import (
    IncrementalRefresher,
    InferenceEngine,
    PredictionService,
)


@pytest.fixture(scope="module")
def ds():
    return load_dataset("ogbn-products", scale=0.02, seed=3)


def _cfg(seed=0, **kw):
    return TrainConfig(
        num_layers=2, hidden_features=8, eval_every=0, seed=seed, **kw
    )


def _mmap_store(tmp_path, ds, policy="auto", hot_fraction=0.15):
    return FeatureStore.create(
        str(tmp_path / "store"),
        ds.features,
        degrees=ds.graph.in_degrees(),
        hot_fraction=hot_fraction,
        policy=policy,
    )


def _params(model):
    return [p.data.copy() for p in model.parameters()]


def _assert_full_batch_parity(tmp_path, ds, cfg):
    a = Trainer(ds, cfg)
    ra = a.fit(num_epochs=4)
    b = Trainer(ds, cfg, feature_store=_mmap_store(tmp_path, ds))
    rb = b.fit(num_epochs=4)
    assert [e.loss for e in ra.epochs] == [e.loss for e in rb.epochs]
    for pa, pb in zip(_params(a.model), _params(b.model)):
        np.testing.assert_array_equal(pa, pb)
    assert ra.final_test_acc == rb.final_test_acc


def test_full_batch_training_is_bit_identical(tmp_path, ds):
    _assert_full_batch_parity(tmp_path, ds, _cfg())


def test_full_batch_training_is_bit_identical_where_a_later_layer_narrows(tmp_path, ds):
    """3 x 64 ends 64 -> num_classes: that layer aggregates ``h @ W``."""
    assert ds.num_classes < 64
    cfg = TrainConfig(num_layers=3, hidden_features=64, eval_every=0, seed=0)
    _assert_full_batch_parity(tmp_path, ds, cfg)


@pytest.mark.parametrize("policy", ["static", "lru"])
def test_minibatch_training_is_bit_identical(tmp_path, ds, policy):
    a = MiniBatchTrainer(ds, fanouts=[5, 5], batch_size=64, config=_cfg())
    ra = a.fit(num_epochs=2)
    b = MiniBatchTrainer(
        ds, fanouts=[5, 5], batch_size=64, config=_cfg(),
        feature_store=_mmap_store(tmp_path, ds, policy=policy),
    )
    rb = b.fit(num_epochs=2)
    assert [e.loss for e in ra.epochs] == [e.loss for e in rb.epochs]
    for pa, pb in zip(_params(a.model), _params(b.model)):
        np.testing.assert_array_equal(pa, pb)


def test_dist_minibatch_training_is_bit_identical(tmp_path, ds):
    kw = dict(fanouts=[5, 5], batch_size=64, config=_cfg())
    a = DistMiniBatchTrainer(ds, 2, **kw)
    ra = a.fit(num_epochs=2)
    b = DistMiniBatchTrainer(ds, 2, feature_store=_mmap_store(tmp_path, ds), **kw)
    rb = b.fit(num_epochs=2)
    assert [e.loss for e in ra.epochs] == [e.loss for e in rb.epochs]
    assert [e.comm_bytes for e in ra.epochs] == [e.comm_bytes for e in rb.epochs]
    for pa, pb in zip(_params(a.models[0]), _params(b.models[0])):
        np.testing.assert_array_equal(pa, pb)
    assert (ra.final_test_acc, ra.best_val_acc) == (rb.final_test_acc, rb.best_val_acc)
    assert a.evaluate() == b.evaluate()


def test_dist_minibatch_evaluate_reads_through_the_store(ds):
    """evaluate() sees the store's rows, not ``dataset.features``: with
    the same weights, a store of shuffled rows scores like a direct
    forward over the shuffled matrix — and unlike the dataset's own."""
    from repro.core.trainer import split_accuracy
    from repro.serving import full_graph_forward

    kw = dict(fanouts=[5, 5], batch_size=64, config=_cfg())
    trained = DistMiniBatchTrainer(ds, 2, **kw)
    trained.fit(num_epochs=2)
    shuffled = ds.features[np.random.default_rng(0).permutation(ds.num_vertices)]
    other = DistMiniBatchTrainer(
        ds, 2, feature_store=FeatureStore.resident(shuffled), **kw
    )
    other.models[0].load_state_dict(trained.models[0].state_dict())
    expected = split_accuracy(
        full_graph_forward(other.models[0], ds.graph, shuffled), ds
    )
    assert other.evaluate() == expected
    assert other.evaluate() != trained.evaluate()


@pytest.mark.parametrize("backend", ["sim", "shm"])
def test_distributed_training_is_bit_identical(tmp_path, ds, backend):
    kw = dict(algorithm="cd-0", config=_cfg())
    a = DistributedTrainer(ds, 2, backend=backend, **kw)
    ra = a.fit(num_epochs=2)
    b = DistributedTrainer(
        ds, 2, backend=backend, feature_store=_mmap_store(tmp_path, ds), **kw
    )
    rb = b.fit(num_epochs=2)
    assert [e.loss for e in ra.epochs] == [e.loss for e in rb.epochs]
    assert a.evaluate() == b.evaluate()


def test_shm_defers_feature_slices_to_workers(tmp_path, ds):
    """With a non-resident store the parent never materializes per-rank
    feature copies; evaluate() gathers them on demand afterwards."""
    t = DistributedTrainer(
        ds, 2, algorithm="cd-0", config=_cfg(), backend="shm",
        feature_store=_mmap_store(tmp_path, ds),
    )
    assert all(state.features is None for state in t.ranks)
    t.fit(num_epochs=1)
    assert t.evaluate()["test"] >= 0.0
    for state in t.ranks:
        np.testing.assert_array_equal(
            state.features, ds.features[state.global_ids]
        )


# -- serving -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def checkpoint(ds, tmp_path_factory):
    trainer = Trainer(ds, _cfg())
    trainer.fit(num_epochs=3)
    path = os.path.join(str(tmp_path_factory.mktemp("ckpt")), "parity.npz")
    save_checkpoint(
        path, trainer.model, trainer.optimizer, epoch=3, extra=training_meta(_cfg())
    )
    return path


def _engine(checkpoint, ds, store=None):
    eng = InferenceEngine.from_checkpoint(checkpoint, ds, feature_store=store)
    eng.precompute()
    return eng


def test_serving_outputs_identical_and_survive_updates(tmp_path, ds, checkpoint):
    res = _engine(checkpoint, ds)
    mm = _engine(checkpoint, ds, store=_mmap_store(tmp_path, ds))
    rng = np.random.default_rng(7)
    ids = rng.integers(0, ds.num_vertices, size=64)
    np.testing.assert_array_equal(res.predict(ids), mm.predict(ids))
    for a, b in zip(res.topk(ids, k=3), mm.topk(ids, k=3)):
        np.testing.assert_array_equal(a, b)

    with PredictionService(res, refresher=IncrementalRefresher(res)) as sa, \
         PredictionService(mm, refresher=IncrementalRefresher(mm)) as sb:
        # live feature update: both tiers apply it, outputs stay identical
        changed = rng.integers(0, ds.num_vertices, size=9)
        rows = rng.standard_normal((9, ds.feature_dim)).astype(
            np.asarray(ds.features).dtype
        )
        sa.update_features(changed, rows)
        sb.update_features(changed, rows)
        np.testing.assert_array_equal(
            sa.predict_logits(ids), sb.predict_logits(ids)
        )
        # live topology update on top of the feature update
        add = rng.integers(0, ds.num_vertices, size=(6, 2))
        sa.update_edges(add=add)
        sb.update_edges(add=add)
        np.testing.assert_array_equal(
            sa.predict_logits(ids), sb.predict_logits(ids)
        )
    # the mmap store patched privately; the resident engine wrote its copy
    assert mm.feature_store.stats()["patched"] is True
    np.testing.assert_array_equal(
        np.asarray(mm.feature_store.matrix()), res.features
    )


def test_engine_feature_store_gauges_flow_to_stats(tmp_path, ds, checkpoint):
    mm = _engine(checkpoint, ds, store=_mmap_store(tmp_path, ds))
    s = mm.stats()
    assert s["feature_store"]["tier"] == "mmap"
    assert s["feature_store"]["bytes_mapped"] > 0
