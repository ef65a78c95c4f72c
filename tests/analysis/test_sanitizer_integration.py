"""Sanitizer over the real serving/feature-store stack.

These tests force the sanitizer on (private recorder), build the actual
production objects — an mmap feature store patched while it is read,
bounded serving frontend over table reads and published updates — drive them
from thread herds, and then
assert the lock-order graph is (a) non-trivial (the instrumentation is
really wired in) and (b) free of cycles and held-lock blocking calls
(the hierarchy the code claims is the one it executes).

The CI job runs the concurrency and publish-machine suites under
``REPRO_SANITIZE=1`` and gates on the exit report; the subprocess test
here pins the same contract from inside the tier-1 suite.
"""

import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.analysis import sanitizers
from repro.analysis.sanitizers import scoped_recorder, set_force
from repro.core import TrainConfig
from repro.core.models import build_model
from repro.featurestore import FeatureStore
from repro.serving import (
    IncrementalRefresher,
    InferenceEngine,
    PredictionService,
    ServingFrontend,
)

JOIN_TIMEOUT_S = 30.0


@pytest.fixture
def forced(monkeypatch):
    """Sanitizer forced on with a private recorder; probes restored."""
    set_force(True)
    try:
        with scoped_recorder() as rec:
            yield rec
    finally:
        set_force(None)
        sanitizers.uninstall_probes()


def join_all(threads):
    for t in threads:
        t.join(timeout=JOIN_TIMEOUT_S)
        assert not t.is_alive(), "thread outlived the deadline: deadlock?"


def edge_pairs(rec):
    return {(e["before"], e["after"]) for e in rec.edges()}


def test_feature_store_stack_is_cycle_free(forced, tmp_path):
    """Readers gather and poll stats on an mmap store while one writer
    patches it: the first update materializes the private copy that
    every later gather reads through."""
    rng = np.random.default_rng(0)
    features = rng.standard_normal((256, 8)).astype(np.float32)
    store = FeatureStore.create(str(tmp_path / "feat"), features)
    assert isinstance(store._stats_lock, sanitizers.SanitizedLock)
    written = np.arange(32)  # the writer's rows; readers check the rest
    last = {}

    def writer():
        local = np.random.default_rng(99)
        for step in range(40):
            ids = local.choice(written, size=4, replace=False)
            rows = np.full((4, 8), float(step), dtype=np.float32)
            store.update_rows(ids, rows)
            last.update(zip(ids.tolist(), rows))

    errors = []

    def reader(seed):
        local = np.random.default_rng(seed)
        for _ in range(50):
            ids = local.integers(0, 256, size=16)
            rows = store.gather(ids)
            kept = ids >= written.size
            if rows.flags.writeable or not np.array_equal(
                rows[kept], features[ids[kept]]
            ):
                errors.append(ids)
            store.stats()

    threads = [threading.Thread(target=writer)]
    threads += [threading.Thread(target=reader, args=(s,)) for s in range(4)]
    for t in threads:
        t.start()
    join_all(threads)

    assert errors == []
    stats = store.stats()
    assert stats["patched"] is True and stats["num_updates"] == 40
    assert stats["cold_rows_read"] == 4 * 50 * 16
    for key, row in last.items():
        np.testing.assert_array_equal(store.gather([key])[0], row)
    # nothing anywhere in the stack may close a cycle or block
    assert forced.findings() == {"cycles": [], "blocking": []}


def test_frontend_stack_is_cycle_free(forced, reddit_mini):
    """Table readers through the pool beside an updater that publishes
    under the service's update lock."""
    ds = reddit_mini
    cfg = TrainConfig(num_layers=2, hidden_features=8, seed=0)
    engine = InferenceEngine(ds, build_model(cfg, ds.feature_dim, ds.num_classes))
    service = PredictionService(
        engine.precompute(), refresher=IncrementalRefresher(engine)
    )
    frontend = ServingFrontend(service, num_workers=3, max_queue=32,
                               default_timeout_s=10.0)
    errors = []

    def client(seed):
        rng = np.random.default_rng(seed)
        for _ in range(20):
            ids = rng.integers(0, ds.num_vertices, size=4)
            try:
                frontend.call("predict", lambda: service.predict_logits(ids))
            except Exception as exc:  # pragma: no cover - debugging aid
                errors.append(exc)

    def updater():
        rng = np.random.default_rng(99)
        for k in range(3):
            rows = rng.standard_normal((1, ds.feature_dim)).astype(np.float32)
            frontend.update_features([k], rows)
            frontend.metrics_snapshot()

    threads = [threading.Thread(target=client, args=(s,)) for s in range(4)]
    threads.append(threading.Thread(target=updater))
    for t in threads:
        t.start()
    join_all(threads)
    frontend.close()
    service.close()

    assert not errors
    # an update writes feature rows through the store under the update
    # lock; a table read takes no lock at all
    assert ("serving.service.update", "featurestore.store.stats") in edge_pairs(forced)
    assert forced.findings() == {"cycles": [], "blocking": []}


def test_concurrency_suite_clean_under_sanitizer(tmp_path):
    """Re-run the serving concurrency suite with ``REPRO_SANITIZE=1`` and
    assert the exit report records real instrumentation and no findings."""
    report = tmp_path / "sanitize-report.json"
    env = dict(os.environ)
    root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["REPRO_SANITIZE"] = "1"
    env["REPRO_SANITIZE_REPORT"] = str(report)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "tests/serving/test_concurrency.py"],
        cwd=root, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    data = json.loads(report.read_text())
    assert data["enabled"] is True
    assert data["num_edges"] > 0
    assert data["cycles"] == []
    assert data["blocking"] == []
