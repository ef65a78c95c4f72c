"""Read-only hand-out parity: every mmap row batch is frozen.

The CSR arrays (``graph/csr.py``) already hand out ``writeable=False``
arrays; these tests pin the same contract onto the feature store's mmap tier —
gathers through the map, gathers through the patched copy after an
update, and the full-matrix view after an update must all raise on
caller mutation.  The resident tier stays writable: it is the
behavior-preserving drop-in for code that owned the matrix outright.
"""

import numpy as np
import pytest

from repro.featurestore import FeatureStore


@pytest.fixture
def X():
    return np.random.default_rng(0).standard_normal((48, 6)).astype(np.float32)


def assert_frozen(rows):
    assert rows.flags.writeable is False
    with pytest.raises((ValueError, RuntimeError)):
        rows[0] = 0.0


# -- resident tier keeps the legacy writable contract ------------------------


def test_resident_gather_stays_writable(X):
    store = FeatureStore.resident(X)
    rows = store.gather([1, 2])
    assert rows.flags.writeable is True
    assert store.matrix().flags.writeable is True


# -- mmap tier freezes every hand-out ----------------------------------------


def test_mmap_gather_is_frozen(tmp_path, X):
    store = FeatureStore.create(str(tmp_path / "f"), X)
    ids = np.array([0, 5, 5, 47])
    for _ in range(2):  # a repeat read of the same rows is frozen too
        rows = store.gather(ids)
        np.testing.assert_array_equal(rows, X[ids])
        assert_frozen(rows)


def test_mmap_matrix_is_read_only_before_and_after_update(tmp_path, X):
    store = FeatureStore.create(str(tmp_path / "f"), X)
    with pytest.raises((ValueError, RuntimeError)):
        store.matrix()[0, 0] = 1.0  # the zero-copy map is mode="r"
    store.update_rows([3], np.ones((1, 6), dtype=np.float32))
    patched = store.matrix()
    assert patched.flags.writeable is False
    with pytest.raises((ValueError, RuntimeError)):
        patched[0, 0] = 1.0


def test_updates_still_land_after_freezing(tmp_path, X):
    """Freezing hand-outs must not freeze the store's own write path."""
    store = FeatureStore.create(str(tmp_path / "f"), X)
    row_id = 13
    before = store.gather([row_id])
    new = np.full((1, 6), 42.0, dtype=np.float32)
    store.update_rows([row_id], new)
    after = store.gather([row_id])  # read through the patched copy
    np.testing.assert_array_equal(after, new)
    assert not np.array_equal(before, after)
    assert_frozen(after)
    # A second update through the already-patched matrix also lands.
    store.update_rows([row_id], new * 2)
    np.testing.assert_array_equal(store.gather([row_id]), new * 2)


def test_frozen_gather_feeds_tensor_math(tmp_path, X):
    """Downstream consumers only read: a frozen batch must flow through
    the same ops the trainers/engine apply to gathered features."""
    from repro.nn.tensor import Tensor

    store = FeatureStore.create(str(tmp_path / "f"), X)
    rows = store.gather([0, 1, 2])
    t = Tensor(rows)
    out = np.asarray(rows).sum(axis=1) + t.data.mean()
    assert out.shape == (3,)
