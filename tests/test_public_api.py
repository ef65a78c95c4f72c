"""Public API stability: the documented entry points import and work."""

import numpy as np
import pytest


def test_top_level_imports():
    import repro

    assert repro.__version__
    assert callable(repro.load_dataset)
    assert callable(repro.aggregate)
    assert callable(repro.libra_partition)


def test_readme_quickstart_flow():
    """The README's quickstart snippet, verbatim in miniature."""
    from repro import load_dataset
    from repro.core import DistributedTrainer, Trainer, TrainConfig

    ds = load_dataset("ogbn-products", scale=0.04)
    cfg = TrainConfig(learning_rate=0.01, eval_every=0).for_dataset(ds.name)
    cfg.num_layers, cfg.hidden_features = 2, 8  # CI-sized
    result = Trainer(ds, cfg).fit(num_epochs=3)
    assert result.final_test_acc is not None

    dist = DistributedTrainer(ds, 2, algorithm="cd-5", config=cfg).fit(3)
    assert dist.final_test_acc is not None
    assert dist.total_comm_bytes >= 0


def test_all_subpackages_import():
    import repro.analysis
    import repro.cachesim
    import repro.comm
    import repro.core
    import repro.dyngraph
    import repro.featurestore
    import repro.graph
    import repro.kernels
    import repro.nn
    import repro.partition
    import repro.perf
    import repro.sampling
    import repro.serving

    for pkg in (
        repro.analysis,
        repro.graph,
        repro.dyngraph,
        repro.featurestore,
        repro.kernels,
        repro.cachesim,
        repro.partition,
        repro.comm,
        repro.nn,
        repro.core,
        repro.perf,
        repro.sampling,
        repro.serving,
    ):
        assert pkg.__doc__, f"{pkg.__name__} missing package docstring"
        for name in getattr(pkg, "__all__", []):
            assert hasattr(pkg, name), f"{pkg.__name__}.{name} missing"


def test_core_exports_checkpointing():
    """Satellite of PR 3: checkpoint helpers are part of the core API."""
    from repro.core import load_checkpoint, peek_checkpoint, save_checkpoint
    from repro.nn import GraphSAGE

    assert callable(save_checkpoint) and callable(load_checkpoint)
    import tempfile, os

    model = GraphSAGE(4, 8, 2, seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "api.npz")
        save_checkpoint(path, model, epoch=5)
        assert peek_checkpoint(path)[0] == 5
        epoch, _ = load_checkpoint(path, GraphSAGE(4, 8, 2, seed=1))
        assert epoch == 5


def test_serving_public_surface():
    from repro.serving import EdgeUpdateStats, InferenceEngine, PredictionService

    assert callable(InferenceEngine.from_checkpoint)
    assert hasattr(PredictionService, "predict")
    assert hasattr(PredictionService, "update_edges")
    assert hasattr(PredictionService, "update_features")
    assert hasattr(EdgeUpdateStats, "to_json")


def test_serving_frontend_public_surface():
    """Satellite of PR 6: the traffic-hardening layer's documented names."""
    from repro.serving import (
        RequestRejected,
        RequestTimeout,
        ServingFrontend,
        ServingMetrics,
        ServingUnavailable,
        build_schedule,
        bursty_arrivals,
        poisson_arrivals,
        run_open_loop,
    )

    for exc in (RequestRejected, RequestTimeout):
        assert issubclass(exc, ServingUnavailable)
        assert exc.status in (429, 503)
    assert hasattr(ServingFrontend, "call") and hasattr(ServingFrontend, "update_edges")
    assert hasattr(ServingMetrics, "snapshot")
    for fn in (poisson_arrivals, bursty_arrivals, build_schedule, run_open_loop):
        assert callable(fn)


def test_dyngraph_public_surface():
    """Satellite of PR 5: the streaming subsystem's documented names."""
    import numpy as np

    from repro.dyngraph import DynamicGraph, LibraState, streaming_libra_partition
    # re-exported where users look for them
    from repro.graph import DynamicGraph as FromGraph
    from repro.partition import LibraState as FromPartition

    assert FromGraph is DynamicGraph and FromPartition is LibraState
    from repro.graph import from_edge_list

    dyn = DynamicGraph(from_edge_list([(0, 1), (1, 2)], num_vertices=3))
    dyn.add_edge(2, 0)
    assert dyn.num_edges == 3
    state = LibraState(3, 2, seed=0)
    assert state.assign([0, 1], [1, 2]).shape == (2,)
    assert callable(streaming_libra_partition)
    assert np.array_equal(dyn.csr().in_degrees(), dyn.in_degrees())


def test_featurestore_public_surface():
    """Satellite of PR 7: the feature-store subsystem's documented names."""
    import tempfile

    import repro.featurestore as featurestore
    from repro.featurestore import (
        FeatureLayoutError,
        FeatureStore,
        open_feature_layout,
        write_feature_layout,
    )
    # layout persistence re-exported next to save_graph/load_graph
    from repro.graph import load_feature_layout, save_feature_layout

    assert issubclass(FeatureLayoutError, ValueError)
    for fn in (
        write_feature_layout, open_feature_layout,
        save_feature_layout, load_feature_layout,
    ):
        assert callable(fn)
    # the hot-set tier is gone: the page cache keeps the hot rows
    for gone in ("HotSetCache", "PolicyDecision", "choose_policy",
                 "predict_static_hit_rate", "predict_lru_hit_rate",
                 "top_rows_by_weight"):
        assert not hasattr(featurestore, gone)

    X = np.arange(12, dtype=np.float32).reshape(6, 2)
    assert FeatureStore.resident(X).matrix() is X
    with tempfile.TemporaryDirectory() as tmp:
        save_feature_layout(tmp, X)
        loaded, manifest = load_feature_layout(tmp)
        np.testing.assert_array_equal(np.asarray(loaded), X)
        assert manifest["shape"] == (6, 2)
        store = FeatureStore.open(tmp)
        np.testing.assert_array_equal(store.gather([5, 0]), X[[5, 0]])


def test_nn_exports_all_models():
    from repro import nn

    for model in ("GraphSAGE", "RGCN", "GCN", "GAT"):
        assert hasattr(nn, model)


def test_dataclasses_reprs():
    """Key result objects stringify without error (logging paths)."""
    from repro import load_dataset
    from repro.partition import build_partitions, libra_partition, partition_stats

    ds = load_dataset("reddit", scale=0.04)
    parted = build_partitions(ds.graph, libra_partition(ds.graph, 2), 2)
    assert "rf=" in partition_stats(parted).row()
    assert "CSRGraph" in repr(ds.graph)
