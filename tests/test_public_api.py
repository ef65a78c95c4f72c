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
    """The traffic-hardening layer's documented names.  The open-loop
    load generator is test code (tests/serving/harness.py)."""
    import repro.serving
    from repro.serving import (
        RequestRejected,
        RequestTimeout,
        ServingFrontend,
        ServingMetrics,
        ServingUnavailable,
    )

    for exc in (RequestRejected, RequestTimeout):
        assert issubclass(exc, ServingUnavailable)
        assert exc.status in (429, 503)
    assert hasattr(ServingFrontend, "call") and hasattr(ServingFrontend, "update_edges")
    assert hasattr(ServingMetrics, "snapshot")
    for name in ("build_schedule", "bursty_arrivals", "poisson_arrivals", "run_open_loop"):
        assert not hasattr(repro.serving, name), name


def test_dyngraph_public_surface():
    """Satellite of PR 5: the streaming subsystem's documented names."""
    from repro.dyngraph import DynamicGraph, LibraState, streaming_libra_partition
    # re-exported where users look for them
    from repro.graph import DynamicGraph as FromGraph
    from repro.partition import LibraState as FromPartition

    assert FromGraph is DynamicGraph and FromPartition is LibraState
    from repro.graph import from_edge_list

    dyn = DynamicGraph(from_edge_list([(0, 1), (1, 2)], num_vertices=3))
    dyn.update(add=([2], [0]))
    assert dyn.csr().num_edges == 3
    state = LibraState(3, 2, seed=0)
    assert state.assign([0, 1], [1, 2]).shape == (2,)
    assert callable(streaming_libra_partition)
    assert dyn.csr().in_degrees().tolist() == [1, 1, 1]


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

    assert issubclass(FeatureLayoutError, ValueError)
    for fn in (write_feature_layout, open_feature_layout):
        assert callable(fn)
    # the hot-set tier is gone: the page cache keeps the hot rows
    for gone in ("HotSetCache", "PolicyDecision", "choose_policy",
                 "predict_static_hit_rate", "predict_lru_hit_rate",
                 "top_rows_by_weight"):
        assert not hasattr(featurestore, gone)

    X = np.arange(12, dtype=np.float32).reshape(6, 2)
    assert FeatureStore.resident(X).matrix() is X
    with tempfile.TemporaryDirectory() as tmp:
        write_feature_layout(tmp, X)
        loaded, manifest = open_feature_layout(tmp)
        np.testing.assert_array_equal(np.asarray(loaded), X)
        assert manifest["shape"] == (6, 2)
        store = FeatureStore.open(tmp)
        np.testing.assert_array_equal(store.gather([5, 0]), X[[5, 0]])


def test_nn_exports_all_models():
    from repro import nn

    for model in ("GraphSAGE", "RGCN", "GCN"):
        assert hasattr(nn, model)


def test_dataclasses_reprs():
    """Key result objects stringify without error (logging paths)."""
    from repro import load_dataset
    from repro.partition import build_partitions, libra_partition, partition_stats

    ds = load_dataset("reddit", scale=0.04)
    parted = build_partitions(ds.graph, libra_partition(ds.graph, 2), 2)
    assert "replication_factor=" in repr(partition_stats(parted))
    assert "CSRGraph" in repr(ds.graph)


def _csr():
    from repro.graph import from_edge_list

    return from_edge_list([(0, 1), (1, 2), (2, 0)], num_vertices=3)


def _dynamic():
    from repro.dyngraph import DynamicGraph

    dyn = DynamicGraph(_csr())
    dyn.update(add=([0], [2]), remove=([1], [2]))
    return dyn


def _libra_state():
    from repro.dyngraph import LibraState

    state = LibraState(3, 2, seed=0)
    state.assign([0, 1], [1, 2])
    return state


def _feature_store():
    from repro.featurestore import FeatureStore

    return FeatureStore.resident(np.zeros((4, 2), dtype=np.float32))


def _tensor():
    from repro.nn import Tensor

    return Tensor(np.zeros((2, 3)), requires_grad=True, name="h")


def _sanitized_lock():
    from repro.analysis.sanitizers import SanitizedLock

    return SanitizedLock("engine.publish")


@pytest.mark.parametrize(
    "make, expected",
    [
        (_csr, "CSRGraph(num_vertices=3, num_src=3, num_edges=3)"),
        (_dynamic, "DynamicGraph(num_vertices=3, num_edges=3)"),
        (_libra_state, "LibraState(p=2, assigned=2, rf="),
        (_feature_store, "FeatureStore(tier='resident', shape=(4, 2), dtype=float32)"),
        (_tensor, "Tensor(shape=(2, 3), requires_grad=True name='h')"),
        (_sanitized_lock, "<SanitizedLock 'engine.publish' locked=False>"),
    ],
    ids=["csr", "dynamic", "libra_state", "feature_store", "tensor", "sanitized_lock"],
)
def test_repr_states_type_and_size(make, expected):
    """The one-line ``repr`` each logging and debugging path prints."""
    assert repr(make()).startswith(expected)


def test_unreached_names_stay_deleted():
    """Names a reachability audit found no entry point or oracle using
    (``docs/reachability.md``) are not re-exported."""
    from repro import analysis, core, graph, nn, partition, perf

    for module, gone in (
        (nn, ("GAT", "GATConv", "kaiming_uniform", "SGD", "Dropout", "Optimizer")),
        (nn.functional, ("dropout",)),
        (core, ("ALGORITHMS",)),
        (analysis, ("load_baseline", "write_baseline", "split_baselined")),
        (graph, ("save_graph", "load_graph", "save_feature_layout",
                 "load_feature_layout", "preferential_attachment_graph")),
        (partition, ("save_partitioning", "load_partitioning")),
        (perf, ("scheduling_gain",)),
    ):
        for name in gone:
            assert not hasattr(module, name), name
