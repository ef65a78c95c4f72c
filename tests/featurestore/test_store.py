"""FeatureStore tiers: resident identity, mmap fidelity, update semantics."""

import json
import os

import numpy as np
import pytest

from repro.featurestore import FeatureStore, FeatureLayoutError
from repro.featurestore.storage import data_path


@pytest.fixture
def X():
    return np.random.default_rng(0).standard_normal((60, 5)).astype(np.float32)


# -- resident tier -----------------------------------------------------------------


def test_resident_matrix_is_the_wrapped_array(X):
    store = FeatureStore.resident(X)
    assert store.matrix() is X
    assert store.tier == "resident"
    assert store.bytes_mapped == 0


def test_resident_gather_is_direct_slicing(X):
    store = FeatureStore.resident(X)
    ids = np.array([3, 3, 59, 0])
    np.testing.assert_array_equal(store.gather(ids), X[ids])


def test_resident_update_writes_in_place(X):
    store = FeatureStore.resident(X)
    rows = np.full((2, 5), 9.0, dtype=np.float32)
    store.update_rows([4, 7], rows)
    np.testing.assert_array_equal(X[[4, 7]], rows)  # caller's array mutated
    assert store.num_updates == 1


# -- mmap tier ---------------------------------------------------------------------


def test_mmap_gather_and_matrix_match_source(tmp_path, X):
    store = FeatureStore.create(str(tmp_path / "s"), X)
    assert store.tier == "mmap"
    assert store.bytes_mapped == X.nbytes
    np.testing.assert_array_equal(np.asarray(store.matrix()), X)
    rng = np.random.default_rng(2)
    for _ in range(4):
        ids = rng.integers(0, 60, size=17)
        np.testing.assert_array_equal(store.gather(ids), X[ids])
    assert store.cold_rows_read == 4 * 17


def test_mmap_update_materializes_patched_copy(tmp_path, X):
    d = str(tmp_path / "s")
    store = FeatureStore.create(d, X)
    before = open(data_path(d), "rb").read()
    expected = X.copy()
    rows = np.full((2, 5), -1.5, dtype=np.float32)
    expected[[0, 30]] = rows
    store.update_rows([0, 30], rows)
    # reads see the update, through both paths
    np.testing.assert_array_equal(np.asarray(store.matrix()), expected)
    ids = np.arange(60)
    np.testing.assert_array_equal(store.gather(ids), expected[ids])
    # the file is never written; the map is no longer the backing
    assert open(data_path(d), "rb").read() == before
    assert store.bytes_mapped == 0
    assert store.stats()["patched"] is True


def test_mmap_duplicate_update_ids_last_wins(tmp_path, X):
    store = FeatureStore.create(str(tmp_path / "s"), X)
    rows = np.stack([np.full(5, 1.0), np.full(5, 2.0)]).astype(np.float32)
    store.update_rows([11, 11], rows)
    np.testing.assert_array_equal(
        store.gather([11]), np.full((1, 5), 2.0, dtype=np.float32)
    )


def test_create_reuses_matching_layout_and_rejects_mismatch(tmp_path, X):
    d = str(tmp_path / "s")
    FeatureStore.create(d, X)
    mtime = os.path.getmtime(data_path(d))
    store = FeatureStore.create(d, X.copy())  # equal matrix: reuse, no rewrite
    assert os.path.getmtime(data_path(d)) == mtime
    np.testing.assert_array_equal(store.gather([1, 2]), X[[1, 2]])
    with pytest.raises(FeatureLayoutError, match="refusing to reuse"):
        FeatureStore.create(d, X[:10])
    with pytest.raises(FeatureLayoutError, match="refusing to reuse"):
        FeatureStore.create(d, X.astype(np.float64))


def test_create_rejects_same_shape_layout_holding_another_matrix(tmp_path, X):
    """Equal shape and dtype are not enough: a layout written from one
    matrix must not serve its rows to a caller that asked for another
    (two seeds of one dataset at one scale have equal shapes)."""
    d = str(tmp_path / "s")
    FeatureStore.create(d, X)
    mtime = os.path.getmtime(data_path(d))
    other = X.copy()
    other[37, 2] += 1.0
    with pytest.raises(FeatureLayoutError, match="different"):
        FeatureStore.create(d, other)
    # the refused layout is left as it was
    assert os.path.getmtime(data_path(d)) == mtime
    np.testing.assert_array_equal(np.asarray(FeatureStore.open(d).matrix()), X)


def test_unknown_tier_rejected(X):
    with pytest.raises(ValueError, match="unknown tier"):
        FeatureStore("ssd", X)


def test_stats_json_safe_with_expected_gauges(tmp_path, X):
    store = FeatureStore.create(str(tmp_path / "s"), X)
    store.gather(np.arange(20))
    s = store.stats()
    json.dumps(s)  # every gauge must be JSON-serializable
    assert s["tier"] == "mmap"
    assert s["bytes_mapped"] == X.nbytes
    assert s["cold_rows_read"] == 20 and s["num_updates"] == 0
    for gone in ("hot_rows", "hit_rate", "decision"):
        assert gone not in s

    r = FeatureStore.resident(X).stats()
    json.dumps(r)
    assert r["tier"] == "resident" and r["bytes_mapped"] == 0
