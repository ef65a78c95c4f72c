"""Incremental refresh: affected sets, and exactness vs a from-scratch
precompute for every update size, up to one that reaches every vertex."""

import dataclasses

import numpy as np
import pytest

from repro.featurestore import FeatureStore
from repro.graph.builders import from_edge_list
from repro.serving import IncrementalRefresher, InferenceEngine, affected_sets
from repro.serving.refresh import out_neighbors, row_subgraph


def _updated_copy_engine(trained, ids, rows):
    """Fresh engine over the same model with features updated up front —
    the ground truth a refresh must match exactly."""
    ds, trainer, cfg = trained
    eng = InferenceEngine(ds, trainer.model, cfg)
    eng.features[ids] = rows
    return eng.precompute()


def _every_vertex_update(ds, seed=0):
    """New feature rows for every vertex: every layer's affected set is
    the whole graph."""
    rng = np.random.default_rng(seed)
    ids = np.arange(ds.num_vertices)
    return ids, rng.standard_normal((ids.size, ds.feature_dim)).astype(np.float32)


def assert_tables_equal(engine, truth):
    assert np.array_equal(engine.logits, truth.logits)
    for got, want in zip(engine.layer_inputs, truth.layer_inputs):
        assert np.array_equal(got, want)


@pytest.fixture(params=["resident", "mmap"])
def tier_engine(request, trained, tmp_path):
    """Fresh engine on each feature tier (mmap answers bit-identically
    to resident, so one ground truth serves both)."""
    ds, trainer, cfg = trained
    store = None
    if request.param == "mmap":
        store = FeatureStore.create(
            str(tmp_path / "features"), ds.features, hot_fraction=0.25
        )
    return InferenceEngine(ds, trainer.model, cfg, feature_store=store).precompute()


def _rand_update(ds, n=3, seed=0):
    rng = np.random.default_rng(seed)
    ids = rng.choice(ds.num_vertices, size=n, replace=False)
    rows = rng.standard_normal((n, ds.feature_dim)).astype(np.float32)
    return ids, rows


# -- structure helpers -----------------------------------------------------------


def test_affected_sets_on_chain():
    # 0 -> 1 -> 2 -> 3: changing 0 reaches one extra hop per layer
    g = from_edge_list([(0, 1), (1, 2), (2, 3)], num_vertices=4)
    affected = affected_sets(g, np.array([0]), num_layers=2)
    assert affected[0].tolist() == [0, 1]
    assert affected[1].tolist() == [0, 1, 2]


def test_out_neighbors_matches_reverse_edges():
    g = from_edge_list([(0, 1), (0, 2), (3, 0), (2, 1)], num_vertices=4)
    assert out_neighbors(g, np.array([0])).tolist() == [1, 2]
    assert out_neighbors(g, np.array([3])).tolist() == [0]
    assert out_neighbors(g, np.array([1])).tolist() == []


def test_row_subgraph_preserves_rows(tiny_graph):
    rows = np.array([1, 3])
    sub = row_subgraph(tiny_graph, rows)
    assert sub.num_vertices == 2
    assert sub.num_src == tiny_graph.num_src
    for local, v in enumerate(rows):
        assert sub.neighbors(local).tolist() == tiny_graph.neighbors(v).tolist()
        assert sub.edge_ids_of(local).tolist() == tiny_graph.edge_ids_of(v).tolist()


# -- exactness -------------------------------------------------------------------


def test_incremental_refresh_matches_full_recompute(trained, tier_engine):
    ds, _, _ = trained
    ids, rows = _rand_update(ds)
    stats = IncrementalRefresher(tier_engine).update_features(ids, rows)
    assert stats.affected_per_layer[0] < tier_engine.num_vertices
    assert_tables_equal(tier_engine, _updated_copy_engine(trained, ids, rows))


def test_every_vertex_update_matches_full_recompute(trained, tier_engine):
    """The degenerate input: every layer's affected set is the whole
    graph, so the refresh is the full pass, bit for bit, and the stats
    count every row of every layer."""
    ds, _, _ = trained
    engine = tier_engine
    ids, rows = _every_vertex_update(ds, seed=1)
    ref = IncrementalRefresher(engine)
    stats = ref.update_features(ids, rows)
    n, layers = engine.num_vertices, engine.num_layers
    assert stats.affected_per_layer == (n,) * layers
    assert stats.affected_fraction == 1.0
    assert stats.rows_recomputed == n * layers
    assert ref.stats()["incremental"] == 1 and ref.stats()["full"] == 0
    assert_tables_equal(engine, _updated_copy_engine(trained, ids, rows))


def test_whole_graph_edge_update_matches_full_recompute(trained, tier_engine):
    """An edge update with an edge out of every vertex seeds the whole
    graph: the refresh is the full pass over the mutated graph."""
    ds, trainer, cfg = trained
    engine = tier_engine
    n = engine.num_vertices
    stats = IncrementalRefresher(engine).update_edges(
        add=[(v, (7 * v + 1) % n) for v in range(n)]
    )
    assert stats.affected_per_layer == (n,) * engine.num_layers
    assert stats.rows_recomputed == n * engine.num_layers
    truth = InferenceEngine(
        dataclasses.replace(ds, graph=engine.dynamic.csr()), trainer.model, cfg
    )
    assert_tables_equal(engine, truth.precompute())


def test_refresh_stats_accounting(trained, engine):
    ds, _, _ = trained
    ids, rows = _rand_update(ds, seed=2)
    stats = IncrementalRefresher(engine).update_features(ids, rows)
    assert stats.num_updated == ids.size
    assert len(stats.affected_per_layer) == engine.num_layers
    # affected sets grow monotonically and bound the recompute
    assert list(stats.affected_per_layer) == sorted(stats.affected_per_layer)
    assert stats.rows_recomputed == sum(stats.affected_per_layer)
    assert 0 < stats.affected_fraction <= 1.0


def test_duplicate_ids_in_batch_dedupe_last_wins(trained, engine):
    """Repeated vertex ids within one batch collapse to one write (the
    last row, matching NumPy fancy-assignment) and one refresh."""
    ds, _, _ = trained
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((3, ds.feature_dim)).astype(np.float32)
    ids = np.array([5, 9, 5])  # 5 appears twice; rows[2] must win
    stats = IncrementalRefresher(engine).update_features(ids, rows)
    assert stats.num_updated == 2  # distinct vertices only
    assert np.array_equal(engine.features[5], rows[2])
    assert np.array_equal(engine.features[9], rows[1])
    truth = _updated_copy_engine(trained, np.array([5, 9]), rows[[2, 1]])
    assert np.array_equal(engine.logits, truth.logits)


def test_update_of_already_updated_vertex(trained, engine):
    """A second update of the same vertices refreshes from the tables
    the first one left: the latest rows win, exactly."""
    ds, _, _ = trained
    ref = IncrementalRefresher(engine)
    rng = np.random.default_rng(9)
    ids = np.array([3, 6])
    rows_a = rng.standard_normal((2, ds.feature_dim)).astype(np.float32)
    rows_b = rng.standard_normal((2, ds.feature_dim)).astype(np.float32)
    ref.update_features(ids, rows_a)
    ref.update_features(ids, rows_b)
    assert ref.num_incremental == 2
    assert_tables_equal(engine, _updated_copy_engine(trained, ids, rows_b))


def test_small_update_after_whole_graph_update_composes(trained, engine):
    """A whole-graph refresh replaces the hidden tables; the next small
    update recomputes its rows against those, and the two compose
    exactly."""
    ds, _, _ = trained
    ref = IncrementalRefresher(engine)
    ids_a, rows_a = _every_vertex_update(ds, seed=6)
    assert ref.update_features(ids_a, rows_a).affected_fraction == 1.0
    ids_b, rows_b = _rand_update(ds, seed=7)
    # layer 0 recomputes a row subset (later layers may reach everything)
    assert ref.update_features(ids_b, rows_b).affected_per_layer[0] < ds.num_vertices
    truth = _updated_copy_engine(trained, ids_a, rows_a)
    truth.features[ids_b] = rows_b
    assert_tables_equal(engine, truth.precompute())


@pytest.mark.parametrize("whole", [True, False], ids=["whole-graph", "row-subset"])
def test_publish_leaves_a_held_table_untouched(trained, engine, whole):
    """Readers hold ``engine.logits`` without a lock: a refresh of every
    size publishes a new table and writes into none a reader holds."""
    ds, _, _ = trained
    held = engine.logits
    before = held.copy()
    ids, rows = (_every_vertex_update if whole else _rand_update)(ds, seed=10)
    IncrementalRefresher(engine).update_features(ids, rows)
    assert engine.logits is not held
    assert np.array_equal(held, before)
    assert np.array_equal(engine.logits, _updated_copy_engine(trained, ids, rows).logits)


def test_failed_update_leaves_tables_untouched(trained, engine):
    """An out-of-range id or a misshapen row block raises before any
    write: features, logits and the version stay as they were."""
    ds, _, _ = trained
    ref = IncrementalRefresher(engine)
    logits, features, version = engine.logits, engine.features.copy(), engine.version
    rows = np.ones((2, ds.feature_dim), dtype=np.float32)
    with pytest.raises(ValueError, match="vertex ids"):
        ref.update_features([0, engine.num_vertices], rows)
    with pytest.raises(ValueError, match="new_rows shape"):
        ref.update_features([0, 1, 2], rows)
    assert engine.logits is logits and engine.version == version
    assert np.array_equal(engine.features, features)
    assert ref.stats()["incremental"] == ref.stats()["full"] == 0


def test_full_threshold_is_accepted_and_unused(trained, engine):
    """The older signature still constructs, at any value, and every
    update is the one row-subset path whatever it says."""
    ds, _, _ = trained
    for value in (-0.1, 0.0, 1.5):
        IncrementalRefresher(engine, full_threshold=value)
    ref = IncrementalRefresher(engine, full_threshold=0.0)
    ids, rows = _rand_update(ds, seed=3)
    ref.update_features(ids, rows)
    assert ref.stats() == {
        "incremental": 1, "full": 0, "deferred": 0, "topology_updates": 0
    }
    assert_tables_equal(engine, _updated_copy_engine(trained, ids, rows))


def test_update_shape_validation(engine):
    with pytest.raises(ValueError, match="new_rows shape"):
        IncrementalRefresher(engine).update_features(
            [0, 1], np.zeros((3, engine.features.shape[1]), dtype=np.float32)
        )


def test_refresh_bumps_engine_version(trained, engine):
    ds, _, _ = trained
    v0 = engine.version
    ids, rows = _rand_update(ds, seed=8)
    IncrementalRefresher(engine).update_features(ids, rows)
    assert engine.version > v0


def test_stats_surface(engine):
    ref = IncrementalRefresher(engine)
    s = ref.stats()
    assert {"incremental", "full", "deferred", "topology_updates"} <= set(s)
    assert s["deferred"] == 0  # no update leaves tables stale
