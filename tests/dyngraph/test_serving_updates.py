"""Topology-aware serving refresh: update_edges exactness vs a full
precompute on the compacted graph, for every update size up to one that
reaches every vertex; service composition; HTTP endpoint."""

import dataclasses
import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.dyngraph.serving_updates import EdgeUpdateStats, as_edge_pairs
from repro.featurestore import FeatureStore
from repro.serving import (
    IncrementalRefresher,
    InferenceEngine,
    PredictionServer,
    PredictionService,
)


def _mutations(ds, num_add=4, num_remove=3, seed=0):
    """A few random additions plus removals of real edges."""
    rng = np.random.default_rng(seed)
    n = ds.num_vertices
    add = [
        (int(rng.integers(n)), int(rng.integers(n))) for _ in range(num_add)
    ]
    src, dst, _ = ds.graph.to_coo()
    idx = rng.choice(src.size, size=num_remove, replace=False)
    # a graph edge may have parallel copies; dedupe the pairs so strict
    # removal never targets the same pair twice
    remove = list({(int(src[i]), int(dst[i])) for i in idx})
    return add, remove


def _whole_graph_add(ds):
    """One added edge out of every vertex: every vertex is a seed, so
    every layer's affected set is the whole graph."""
    n = ds.num_vertices
    return [(v, (7 * v + 1) % n) for v in range(n)]


def _truth_engine(ds, trainer, cfg, engine):
    """Fresh engine over the engine's *compacted* graph — the ground
    truth every refresh must match exactly."""
    ds2 = dataclasses.replace(ds, graph=engine.dynamic.csr())
    truth = InferenceEngine(ds2, trainer.model, cfg)
    truth.features[:] = engine.features
    return truth.precompute()


def assert_tables_equal(engine, truth):
    assert np.array_equal(engine.logits, truth.logits)
    for got, want in zip(engine.layer_inputs, truth.layer_inputs):
        assert np.array_equal(got, want)


# -- pair parsing -----------------------------------------------------------------


def test_as_edge_pairs_contract():
    src, dst = as_edge_pairs([(0, 1), (2, 3)], "add")
    assert src.tolist() == [0, 2] and dst.tolist() == [1, 3]
    for empty in (None, []):
        src, dst = as_edge_pairs(empty, "add")
        assert src.size == 0 and dst.size == 0
    with pytest.raises(ValueError, match="pairs"):
        as_edge_pairs([0, 1, 2], "add")
    with pytest.raises(ValueError, match="pairs"):
        as_edge_pairs([[0, 1, 2]], "add")


# -- exactness: incremental == full precompute on the compacted graph --------------


def test_incremental_add_matches_compacted_precompute(dyn_trained, dyn_engine):
    ds, trainer, cfg = dyn_trained
    ref = IncrementalRefresher(dyn_engine)
    add, _ = _mutations(ds)
    stats = ref.update_edges(add=add)
    assert stats.num_added == len(add) and stats.num_removed == 0
    assert_tables_equal(dyn_engine, _truth_engine(ds, trainer, cfg, dyn_engine))


def test_incremental_remove_matches_compacted_precompute(dyn_trained, dyn_engine):
    ds, trainer, cfg = dyn_trained
    ref = IncrementalRefresher(dyn_engine)
    _, remove = _mutations(ds, seed=1)
    ref.update_edges(remove=remove)
    assert dyn_engine.graph.num_edges < ds.graph.num_edges
    assert_tables_equal(dyn_engine, _truth_engine(ds, trainer, cfg, dyn_engine))


def test_incremental_mixed_update_matches_compacted_precompute(
    dyn_trained, dyn_engine
):
    ds, trainer, cfg = dyn_trained
    ref = IncrementalRefresher(dyn_engine)
    add, remove = _mutations(ds, seed=2)
    stats = ref.update_edges(add=add, remove=remove)
    assert stats.num_seeds <= 2 * (len(add) + len(remove))
    assert_tables_equal(dyn_engine, _truth_engine(ds, trainer, cfg, dyn_engine))


def test_sequential_updates_reuse_dynamic_shadow(dyn_trained, dyn_engine):
    ds, trainer, cfg = dyn_trained
    ref = IncrementalRefresher(dyn_engine)
    ref.update_edges(add=[(0, 1)])
    dyn = dyn_engine.dynamic
    assert dyn is not None
    ref.update_edges(add=[(1, 2)], remove=[(0, 1)])
    assert dyn_engine.dynamic is dyn  # one shadow graph for the lifetime
    assert ref.num_topology_updates == 2
    assert_tables_equal(dyn_engine, _truth_engine(ds, trainer, cfg, dyn_engine))


def test_update_through_auto_compaction_stays_exact(dyn_trained, dyn_engine):
    """A batch large enough to trip auto-compaction mid-update must land
    on exactly the same tables."""
    ds, trainer, cfg = dyn_trained
    ref = IncrementalRefresher(dyn_engine)
    rng = np.random.default_rng(3)
    n = ds.num_vertices
    budget = int(ds.graph.num_edges * 0.3)  # > default 0.25 threshold
    add = list(zip(rng.integers(0, n, budget).tolist(),
                   rng.integers(0, n, budget).tolist()))
    stats = ref.update_edges(add=add)
    assert stats.compacted
    assert dyn_engine.dynamic.num_delta_edges == 0
    assert_tables_equal(dyn_engine, _truth_engine(ds, trainer, cfg, dyn_engine))


@pytest.mark.parametrize("tier", ["resident", "mmap"])
def test_whole_graph_update_matches_compacted_precompute(
    dyn_trained, tmp_path, tier
):
    """The degenerate input: an edge update whose affected set covers
    the whole graph is the full pass over the mutated graph, bit for
    bit, on either feature tier."""
    ds, trainer, cfg = dyn_trained
    store = None
    if tier == "mmap":
        store = FeatureStore.create(str(tmp_path / "features"), ds.features)
    engine = InferenceEngine(ds, trainer.model, cfg, feature_store=store).precompute()
    ref = IncrementalRefresher(engine)
    _, remove = _mutations(ds, seed=4)
    stats = ref.update_edges(add=_whole_graph_add(ds), remove=remove)
    n, layers = engine.num_vertices, engine.num_layers
    assert stats.affected_per_layer == (n,) * layers
    assert stats.rows_recomputed == n * layers
    assert ref.stats()["incremental"] == 1 and ref.stats()["full"] == 0
    assert_tables_equal(engine, _truth_engine(ds, trainer, cfg, engine))


def test_feature_update_after_topology_update_is_exact(dyn_trained, dyn_engine):
    """A feature refresh after an edge update runs over the mutated
    graph and its new norms: the tables still equal a full precompute
    on the compacted graph."""
    ds, trainer, cfg = dyn_trained
    ref = IncrementalRefresher(dyn_engine)
    add, remove = _mutations(ds, seed=5)
    ref.update_edges(add=add, remove=remove)
    rng = np.random.default_rng(5)
    ids = np.array([add[0][1], 2])  # one endpoint of a new edge
    rows = rng.standard_normal((2, ds.feature_dim)).astype(np.float32)
    ref.update_features(ids, rows)
    assert ref.num_incremental == 2
    assert_tables_equal(dyn_engine, _truth_engine(ds, trainer, cfg, dyn_engine))


@pytest.mark.parametrize("whole", [True, False], ids=["whole-graph", "row-subset"])
def test_topology_publish_leaves_a_held_table_untouched(
    dyn_trained, dyn_engine, whole
):
    """An edge update of every size publishes a new logits table; the
    one a reader holds keeps its pre-update rows."""
    ds, trainer, cfg = dyn_trained
    held = dyn_engine.logits
    before = held.copy()
    add, remove = _mutations(ds, seed=6)
    IncrementalRefresher(dyn_engine).update_edges(
        add=_whole_graph_add(ds) if whole else add, remove=remove
    )
    assert dyn_engine.logits is not held
    assert np.array_equal(held, before)
    assert_tables_equal(dyn_engine, _truth_engine(ds, trainer, cfg, dyn_engine))


def test_norm_tracks_new_degrees(dyn_trained, dyn_engine):
    """Degree normalizers are topology state and must follow the update."""
    from repro.core.models import norm_from_degrees

    ds, _, _ = dyn_trained
    ref = IncrementalRefresher(dyn_engine)
    ref.update_edges(add=[(0, 1), (2, 1)])
    want = norm_from_degrees(
        dyn_engine.model_kind, dyn_engine.graph.in_degrees()
    )
    assert np.array_equal(dyn_engine.norm.data, want.data)


def test_update_edges_bumps_version_and_stats(dyn_trained, dyn_engine):
    v0 = dyn_engine.version
    ref = IncrementalRefresher(dyn_engine)
    stats = ref.update_edges(add=[(3, 4)])
    assert isinstance(stats, EdgeUpdateStats)
    assert dyn_engine.version > v0
    assert stats.num_edges == dyn_engine.graph.num_edges
    assert len(stats.affected_per_layer) == dyn_engine.num_layers
    assert ref.stats()["topology_updates"] == 1
    # stats payload is JSON-serializable (the HTTP response body)
    json.dumps(stats.to_json())


def test_failed_update_is_atomic(dyn_trained, dyn_engine):
    """A batch that fails validation (bad add range, missing removal)
    must leave the shadow graph untouched — half-applied removals would
    be published by the *next* update without seeding their endpoints,
    silently breaking the incremental == compacted-precompute contract."""
    ds, trainer, cfg = dyn_trained
    ref = IncrementalRefresher(dyn_engine)
    src0, dst0, _ = ds.graph.to_coo()
    live_pair = (int(src0[0]), int(dst0[0]))
    into_0 = set(ds.graph.neighbors(0).tolist())
    absent_pair = next(
        (u, 0) for u in range(ds.num_vertices) if u not in into_0
    )
    bad_batches = [
        # removals valid, add out of range
        {"add": [(0, ds.num_vertices + 5)], "remove": [live_pair]},
        # adds valid, removal of a non-existent edge
        {"add": [(0, 1)], "remove": [absent_pair]},
    ]
    for batch in bad_batches:
        with pytest.raises(ValueError):
            ref.update_edges(add=batch["add"], remove=batch["remove"])
        dyn = dyn_engine.dynamic
        assert dyn is None or (dyn.num_removed == 0 and dyn.num_added == 0)
    # a subsequent valid incremental update still matches ground truth
    ref.update_edges(add=[(0, 1)])
    assert_tables_equal(dyn_engine, _truth_engine(ds, trainer, cfg, dyn_engine))


def test_empty_update_rejected(dyn_engine):
    ref = IncrementalRefresher(dyn_engine)
    with pytest.raises(ValueError, match="at least one edge"):
        ref.update_edges()
    with pytest.raises(ValueError, match="at least one edge"):
        ref.update_edges(add=[], remove=[])


# -- service composition -----------------------------------------------------------


def test_service_without_refresher_refreshes_incrementally(
    dyn_trained, dyn_engine
):
    """A service built without a refresher builds its own: its updates
    count as ``refresher.incremental`` and none as ``full``."""
    ds, trainer, cfg = dyn_trained
    with PredictionService(dyn_engine) as svc:
        ids = np.array([0, 1, 2])
        before = svc.predict_logits(ids)
        add, remove = _mutations(ds, seed=7)
        svc.update_edges(add=add, remove=remove)
        refresher = svc.stats()["refresher"]
        assert (refresher["incremental"], refresher["full"]) == (1, 0)
        assert refresher["topology_updates"] == 1
        truth = _truth_engine(ds, trainer, cfg, dyn_engine)
        after = svc.predict_logits(ids)  # the published table
        assert np.array_equal(after, truth.logits[ids])
        assert not np.array_equal(after, before)


def test_service_update_routes_through_refresher(dyn_trained, dyn_engine):
    ds, trainer, cfg = dyn_trained
    ref = IncrementalRefresher(dyn_engine)
    with PredictionService(dyn_engine, refresher=ref) as svc:
        svc.update_edges(add=[(1, 3)])
        assert ref.num_topology_updates == 1
        truth = _truth_engine(ds, trainer, cfg, dyn_engine)
        ids = np.array([1, 3, 5])
        assert np.array_equal(svc.predict_logits(ids), truth.logits[ids])


# -- HTTP endpoint -----------------------------------------------------------------


def _post(url, payload):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=10) as resp:
        return resp.status, json.load(resp)


@pytest.fixture
def live_update_server(dyn_engine):
    ref = IncrementalRefresher(dyn_engine)
    svc = PredictionService(dyn_engine, refresher=ref)
    server = PredictionServer(svc, port=0).start_background()
    host, port = server.address
    yield dyn_engine, f"http://{host}:{port}"
    server.shutdown()


def test_http_update_edges(live_update_server):
    engine, base = live_update_server
    before = np.array(engine.logits, copy=True)
    status, resp = _post(
        f"{base}/update_edges", {"add": [[0, 1], [2, 1]], "remove": []}
    )
    assert status == 200
    assert resp["status"] == "ok" and "mode" not in resp
    assert resp["num_added"] == 2 and resp["num_removed"] == 0
    assert resp["num_edges"] == engine.graph.num_edges
    assert not np.array_equal(engine.logits, before)
    # served predictions reflect the mutated topology
    status, pred = _post(f"{base}/predict", {"vertices": [1]})
    assert status == 200
    assert pred["labels"] == [int(np.argmax(engine.logits[1]))]
    # and the engine stats now expose the dynamic shadow
    with urllib.request.urlopen(f"{base}/stats", timeout=10) as resp:
        stats = json.load(resp)
    assert stats["engine"]["dynamic"]["num_added"] == 2
    assert stats["refresher"]["topology_updates"] == 1


def test_http_update_edges_validation(live_update_server):
    engine, base = live_update_server
    cases = [
        {},  # nothing to do
        {"add": [[0]]},  # not a pair
        {"add": [[0, 1, 2]]},  # not a pair
        {"add": "0,1"},  # not a list
        {"add": [[0, 1.5]]},  # non-integer endpoint
        {"add": [[0, engine.num_vertices]]},  # out of range
        {"remove": [[0, 1], [0, 1], [0, 1], [0, 1], [0, 1], [0, 1]]},  # over-remove
        {"edges": [[0, 1]]},  # unknown key
    ]
    for body in cases:
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(f"{base}/update_edges", body)
        assert err.value.code == 400, body
        assert "error" in json.load(err.value)
