"""The feature-store calls the frozen benchmark suite makes still work.

``benchmarks/suite/suite_train.py`` (``train_minibatch``) was written
against a hot-set row cache that no longer exists.  It cannot change, so
the store keeps accepting its arguments and answering its reads.  These
tests make exactly its calls and pin the values, which are the honest
ones for a store without a hot tier: nothing is predicted hot, nothing
hits, every gathered row is a cold read.
"""

import numpy as np
import pytest

from repro.featurestore import FeatureStore
from repro.graph.datasets import load_dataset


@pytest.fixture(scope="module")
def ds():
    return load_dataset("ogbn-papers", scale=0.05, seed=7)


def test_suite_train_minibatch_calls_and_reads(tmp_path, ds):
    # build(): the create call, verbatim
    store = FeatureStore.create(
        str(tmp_path / "features"), ds.features, degrees=ds.graph.in_degrees(),
        hot_fraction=0.1, policy="auto",
    )
    assert store.tier == "mmap"
    # before the timed ops
    hot0 = dict(store.stats()["hot"])
    cold0 = store.stats()["cold_rows_read"]
    assert hot0 == {"hits": 0, "misses": 0, "lookups": 0} and cold0 == 0

    ids = np.random.default_rng(0).integers(0, ds.num_vertices, size=300)
    np.testing.assert_array_equal(store.gather(ids), ds.features[ids])
    np.testing.assert_array_equal(store.gather(ids[:50]), ds.features[ids[:50]])

    # after the timed ops
    stats = store.stats()
    hot = stats["hot"]
    lookups = hot["lookups"] - hot0["lookups"]
    assert stats["policy"] is None  # recorded as detail["hot_policy"]
    assert stats["cold_rows_read"] - cold0 == 350
    assert hot == {"hits": 0, "misses": 350, "lookups": 350}
    # the traced per-layer metrics
    assert (hot["hits"] - hot0["hits"]) / max(lookups, 1) == 0.0
    assert store.decision.predicted_hit_rate == 0.0


def test_ignored_arguments_change_nothing(tmp_path, ds):
    """``degrees`` / ``hot_fraction`` / ``policy`` are keyword-only and
    unused: any values give the same store as none."""
    a = FeatureStore.create(str(tmp_path / "a"), ds.features)
    b = FeatureStore.create(
        str(tmp_path / "b"), ds.features, degrees=np.zeros(3),
        hot_fraction=7.0, policy="no-such-policy",
    )
    ids = np.arange(0, ds.num_vertices, 3)
    np.testing.assert_array_equal(a.gather(ids), b.gather(ids))
    assert a.stats() == b.stats()
    with pytest.raises(TypeError):
        FeatureStore.create(str(tmp_path / "c"), ds.features, ds.graph.in_degrees())
