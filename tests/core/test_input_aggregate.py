"""The memoised layer-0 aggregate (``nn.InputAggregate``).

``A @ X`` on the input features is a product of two constants, so the
full-batch trainers compute it once.  Pinned here: the exact AP counts,
that the arithmetic is untouched (``==`` against an un-memoised forward
written out below), and the two ways a memo keyed on object identity
could serve a stale product — DRPA syncing its aggregate in place, and
serving rewriting feature rows in place.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import DistributedTrainer, TrainConfig, Trainer
from repro.core.models import build_model, make_optimizer, norm_from_degrees
from repro.featurestore import FeatureStore
from repro.graph.csr import CSRGraph
from repro.kernels.instrumentation import AP_TIMER
from repro.nn import Tensor, masked_cross_entropy
from repro.sampling import MiniBatchTrainer
from repro.serving import IncrementalRefresher, InferenceEngine

MODELS = ["sage", "gcn"]


def _cfg(model="sage", shape=(2, 16), **kw):
    """``shape`` is (num_layers, hidden): 64 -> 16 -> 16, where only layer
    0 narrows (and layer 0 never projects: the memo holds ``A @ X``), or
    (3, 64): 64 -> 64 -> 64 -> 16, whose last layer aggregates ``h @ W``."""
    return TrainConfig(
        num_layers=shape[0], hidden_features=shape[1], learning_rate=0.01,
        eval_every=0, seed=0, model=model, **kw,
    )


def _ap_calls(fn, *args):
    before = AP_TIMER.read()[1]
    out = fn(*args)
    return AP_TIMER.read()[1] - before, out


# -- single socket ---------------------------------------------------------------


@pytest.mark.parametrize("model", MODELS)
def test_single_socket_ap_counts_and_untouched_losses(reddit_mini, model):
    _check_single_socket(reddit_mini, _cfg(model))


@pytest.mark.parametrize("model", MODELS)
def test_single_socket_where_a_later_layer_narrows(reddit_mini, model):
    _check_single_socket(reddit_mini, _cfg(model, shape=(3, 64)))


def _check_single_socket(ds, cfg):
    L, model = cfg.num_layers, cfg.model
    trainer = Trainer(ds, cfg)
    counted = [_ap_calls(trainer.train_epoch, e) for e in range(6)]
    # L forward + L - 1 backward in epoch 0, then layer 0's forward is
    # reused; projecting first adds no pass
    assert [calls for calls, _ in counted] == [2 * L - 1] + [2 * L - 2] * 5
    assert _ap_calls(trainer.evaluate)[0] == L - 1  # not L
    # the bare model call (the benchmark's decomposed epoch) sees it too
    bare = (ds.graph, trainer.features, trainer.norm)
    assert _ap_calls(trainer.model, *bare)[0] == L - 1
    # what is kept is A @ X at the features' width, whatever layer 0's W does
    assert trainer.model.input_aggregate._value.shape == ds.features.shape

    # the same six epochs, layer by layer, with nothing memoised
    ref = build_model(cfg, ds.feature_dim, ds.num_classes)
    optimizer = make_optimizer(ref, cfg)
    x = Tensor(ds.features)
    norm = norm_from_degrees(model, ds.graph.in_degrees())
    want = []
    for _ in range(6):
        ref.zero_grad()
        h = x
        for i, layer in enumerate(ref.layers):
            inner = layer.project(h) if i else h
            h = layer.combine(layer.aggregate(ds.graph, inner, norm), inner, norm)
        loss = masked_cross_entropy(h, ds.labels, ds.train_mask)
        loss.backward()
        optimizer.step()
        want.append(float(loss.data))
    assert [stats.loss for _, stats in counted] == want


def test_other_objects_recompute_and_take_the_one_slot(reddit_mini):
    ds = reddit_mini
    trainer = Trainer(ds, _cfg())
    trainer.train_epoch(0)
    assert _ap_calls(trainer.evaluate)[0] == 1
    # equal values, different object: identity is the key
    trainer.features = Tensor(trainer.features.data.copy())
    assert _ap_calls(trainer.evaluate)[0] == 2
    assert _ap_calls(trainer.evaluate)[0] == 1
    trainer.dataset = replace(
        ds, graph=CSRGraph(ds.graph.indptr, ds.graph.indices, num_src=ds.num_vertices)
    )
    assert _ap_calls(trainer.train_epoch, 1)[0] == 3
    assert _ap_calls(trainer.train_epoch, 2)[0] == 2
    memo = trainer.model.input_aggregate
    assert memo._key[0] is trainer.dataset.graph  # the old graph was let go
    assert not memo._value.data.flags.writeable
    # a tracked input is not a constant: never memoised
    x = Tensor(trainer.features.data, requires_grad=True)
    args = (trainer.dataset.graph, x, trainer.norm)
    assert [_ap_calls(trainer.model, *args)[0] for _ in range(2)] == [2, 2]


def test_only_an_aggregate_at_the_features_width_is_memoised(reddit_mini):
    """Were ``aggregate`` ever to project, the memo would hold a product
    with ``W`` in it — stale after one optimizer step."""
    from repro.nn import InputAggregate, SageConvGCN

    class Projecting(SageConvGCN):
        def aggregate(self, graph, h, norm=None):
            return super().aggregate(graph, self.project(h), norm)

    ds = reddit_mini
    args = (ds.graph, Tensor(ds.features), norm_from_degrees("sage", ds.graph.in_degrees()))
    with pytest.raises(AssertionError, match="W-free"):
        InputAggregate(Projecting(ds.feature_dim, 16))(*args)
    assert InputAggregate(SageConvGCN(ds.feature_dim, 16))(*args).shape == ds.features.shape


def test_nothing_is_retained_for_minibatch_blocks(reddit_mini):
    trainer = MiniBatchTrainer(reddit_mini, (5, 5), batch_size=256, config=_cfg())
    trainer.train_epoch(0)
    assert trainer.model.input_aggregate is None


# -- trap 1: DRPA writes its aggregate in place ----------------------------------


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("algorithm", ["cd-0", "cd-5"])
def test_drpa_rounds_never_touch_the_memoised_partial(reddit_mini, algorithm, model):
    P, L, epochs = 2, 2, 12
    trainer = DistributedTrainer(
        reddit_mini, P, algorithm=algorithm, config=_cfg(model), partitioner="libra"
    )
    calls = [_ap_calls(trainer.train_epoch, e)[0] for e in range(epochs)]
    assert calls == [P * (2 * L - 1)] + [P * (2 * L - 2)] * (epochs - 1)
    assert _ap_calls(trainer.evaluate)[0] == P * (L - 1)
    for program in trainer.programs:
        state = program.state
        layer = state.model.layers[0]
        h = Tensor(state.features)
        calls, kept = _ap_calls(program.input_aggregate, program.graph, h, state.norm)
        assert calls == 0
        fresh = layer.aggregate(program.graph, h, state.norm)
        assert np.array_equal(kept.data, fresh.data)
        # what the rounds get is a private, writable copy
        handed = program.aggregate(0, layer, h)
        assert handed.data.flags.writeable
        assert not np.shares_memory(handed.data, kept.data)


# -- trap 2: serving rewrites feature rows in place ------------------------------


@pytest.mark.parametrize("tier", ["resident", "mmap"])
@pytest.mark.parametrize("model", MODELS)
def test_serving_never_reads_the_memo(reddit_mini, tmp_path, model, tier):
    """The engine serves the very model object a trainer armed."""
    ds, cfg = reddit_mini, _cfg(model)
    trainer = Trainer(ds, cfg)
    trainer.fit(3)
    assert trainer.model.input_aggregate._value is not None

    def store():
        if tier == "resident":
            return None  # the engine's own writable copy
        return FeatureStore.create(str(tmp_path / "store"), ds.features)

    engine = InferenceEngine(ds, trainer.model, cfg, feature_store=store())
    engine.precompute()
    refresher = IncrementalRefresher(engine)
    rng = np.random.default_rng(5)
    features = np.array(ds.features)
    for _ in range(2):  # the mmap tier patches a private copy on the first
        ids = rng.choice(ds.num_vertices, size=7, replace=False)
        rows = rng.standard_normal((7, ds.feature_dim)).astype(np.float32)
        matrix = engine.feature_store.matrix()
        refresher.update_features(ids, rows)
        features[ids] = rows
    # the second write was in place: same buffer, new contents
    assert np.shares_memory(engine.feature_store.matrix(), matrix)
    incremental = engine.logits.copy()
    engine.precompute()

    fresh_model = build_model(cfg, ds.feature_dim, ds.num_classes)
    fresh_model.load_state_dict(trainer.model.state_dict())
    fresh = InferenceEngine(replace(ds, features=features), fresh_model, cfg)
    fresh.precompute()
    assert np.array_equal(engine.logits, fresh.logits)
    assert np.array_equal(incremental, fresh.logits)
    for got, want in zip(engine.layer_inputs, fresh.layer_inputs):
        assert np.array_equal(got, want)
    # ... and the trainer's memo still answers for *its* features
    kept = trainer.model.input_aggregate._value.data
    layer = trainer.model.layers[0]
    want = layer.aggregate(ds.graph, trainer.features, trainer.norm).data
    assert np.array_equal(kept, want)
