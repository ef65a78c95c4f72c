"""The one gather path: ``backing[ids]``, frozen on the mmap tier.

With no row cache in front of the features, every read is a plain
fancy-index of the backing — the read-only map, or the private patched
copy once an update has landed.  These tests pin that path's contract:
rows equal ``features[ids]`` for every id pattern, a batch is a
snapshot that later updates do not reach, counters count exactly what
was read, and a traced gather charges its time to the request.
"""

import threading

import numpy as np
import pytest

from repro.featurestore import FeatureStore
from repro.obs.trace import Tracer, activate

TIERS = ("resident", "mmap")


@pytest.fixture
def X():
    return np.random.default_rng(5).standard_normal((40, 3)).astype(np.float32)


def _store(tier, tmp_path, X):
    if tier == "resident":
        return FeatureStore.resident(X)
    return FeatureStore.create(str(tmp_path / "s"), X)


# -- fidelity ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "ids",
    [[7], [2, 2, 2, 9], list(range(39, -1, -1)), list(range(40))],
    ids=["single", "repeats", "reversed", "all"],
)
def test_mmap_gather_matches_direct_slicing(tmp_path, X, ids):
    store = _store("mmap", tmp_path, X)
    rows = store.gather(ids)
    np.testing.assert_array_equal(rows, X[ids])
    assert rows.dtype == X.dtype and rows.shape == (len(ids), 3)
    assert store.cold_rows_read == len(ids)


@pytest.mark.parametrize("tier", TIERS)
def test_empty_gather_returns_no_rows_and_counts_nothing(tmp_path, X, tier):
    store = _store(tier, tmp_path, X)
    rows = store.gather([])
    assert rows.shape == (0, 3) and rows.dtype == X.dtype
    assert store.cold_rows_read == 0


def test_gather_accepts_any_integer_id_container(tmp_path, X):
    store = _store("mmap", tmp_path, X)
    want = X[[4, 1, 4]]
    for ids in ([4, 1, 4], (4, 1, 4), np.array([4, 1, 4], dtype=np.int32),
                np.array([4, 1, 4], dtype=np.uint16)):
        np.testing.assert_array_equal(store.gather(ids), want)
    assert store.cold_rows_read == 4 * 3


@pytest.mark.parametrize("tier", TIERS)
def test_out_of_range_id_raises_and_counts_nothing(tmp_path, X, tier):
    store = _store(tier, tmp_path, X)
    with pytest.raises(IndexError):
        store.gather([0, 40])
    assert store.cold_rows_read == 0


@pytest.mark.parametrize("tier", TIERS)
def test_shape_gauges_describe_the_matrix(tmp_path, X, tier):
    store = _store(tier, tmp_path, X)
    assert store.num_rows == 40 and store.dim == 3
    assert store.dtype == X.dtype


def test_open_serves_the_layout_create_wrote(tmp_path, X):
    d = str(tmp_path / "s")
    FeatureStore.create(d, X)
    store = FeatureStore.open(d)
    assert store.tier == "mmap" and store.path == d
    ids = np.array([39, 0, 17])
    np.testing.assert_array_equal(store.gather(ids), X[ids])


# -- snapshots and the patched copy ----------------------------------------------


def test_resident_gather_is_a_copy_not_a_view(X):
    store = FeatureStore.resident(X)
    before = X.copy()
    rows = store.gather([3, 4])
    rows[:] = 123.0
    np.testing.assert_array_equal(X, before)


def test_gathered_batch_is_not_reached_by_a_later_update(tmp_path, X):
    store = _store("mmap", tmp_path, X)
    old = store.gather([6, 8])
    store.update_rows([6], np.full((1, 3), 7.0, dtype=np.float32))
    np.testing.assert_array_equal(old, X[[6, 8]])
    np.testing.assert_array_equal(store.gather([6])[0], np.full(3, 7.0))


def test_gather_after_update_matches_slicing_the_patched_matrix(tmp_path, X):
    store = _store("mmap", tmp_path, X)
    expected = X.copy()
    rng = np.random.default_rng(9)
    for _ in range(3):
        ids = rng.integers(0, 40, size=5)
        rows = rng.standard_normal((5, 3)).astype(np.float32)
        store.update_rows(ids, rows)
        expected[ids] = rows
        probe = rng.integers(0, 40, size=25)
        np.testing.assert_array_equal(store.gather(probe), expected[probe])
    np.testing.assert_array_equal(np.asarray(store.matrix()), expected)


def test_later_updates_land_in_the_one_patched_copy(tmp_path, X):
    store = _store("mmap", tmp_path, X)
    store.update_rows([1], np.zeros((1, 3), dtype=np.float32))
    first = store.matrix()
    store.update_rows([2], np.ones((1, 3), dtype=np.float32))
    second = store.matrix()
    assert np.shares_memory(first, second)  # not copied a second time
    np.testing.assert_array_equal(second[[1, 2]], [[0, 0, 0], [1, 1, 1]])
    assert store.num_updates == 2


def test_update_rows_casts_to_the_store_dtype(tmp_path, X):
    store = _store("mmap", tmp_path, X)
    rows = np.array([[0.1, 0.2, 0.3]], dtype=np.float64)
    store.update_rows([5], rows)
    got = store.gather([5])
    assert got.dtype == np.float32
    np.testing.assert_array_equal(got, rows.astype(np.float32))


def test_two_stores_on_one_layout_keep_private_updates(tmp_path, X):
    d = str(tmp_path / "s")
    a = FeatureStore.create(d, X)
    b = FeatureStore.open(d)
    a.update_rows([0], np.full((1, 3), 5.0, dtype=np.float32))
    np.testing.assert_array_equal(b.gather([0]), X[[0]])
    assert b.stats()["patched"] is False and b.bytes_mapped == X.nbytes


def test_resident_duplicate_update_ids_last_wins(X):
    store = FeatureStore.resident(X)
    rows = np.stack([np.full(3, 1.0), np.full(3, 2.0)]).astype(np.float32)
    store.update_rows([11, 11], rows)
    np.testing.assert_array_equal(store.gather([11]), np.full((1, 3), 2.0))


# -- counters and tracing ----------------------------------------------------------


def test_resident_counters_are_exact_under_concurrent_gathers(X):
    store = FeatureStore.resident(X)

    def reader(seed):
        rng = np.random.default_rng(seed)
        for _ in range(30):
            store.gather(rng.integers(0, 40, size=8))

    threads = [threading.Thread(target=reader, args=(s,)) for s in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert store.stats()["cold_rows_read"] == 4 * 30 * 8


def test_traced_gather_records_a_feature_span(tmp_path, X):
    store = _store("mmap", tmp_path, X)
    tracer = Tracer(enabled=True)
    root = tracer.root("predict")
    with activate(root):
        store.gather([1, 2, 3, 3])
    assert root.component_seconds("feature") > 0.0
    root.end("ok")
    (child,) = [r for r in tracer.export() if r["name"] == "feature.gather"]
    assert child["parent_id"] == root.span_id
    assert child["cat"] == "featurestore" and child["args"] == {"rows": 4}


def test_untraced_gather_records_nothing(tmp_path, X):
    store = _store("mmap", tmp_path, X)
    tracer = Tracer(enabled=True)
    root = tracer.root("predict")
    store.gather([1, 2])  # no span activated on this thread
    root.end("ok")
    assert [r["name"] for r in tracer.export()] == ["predict"]
    assert root.component_seconds("feature") == 0.0
