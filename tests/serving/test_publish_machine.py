"""The publish contract, as a state machine over the serving stack.

Updates publish table versions; readers never block on them.  The
contract is the single-writer atomic register of Hadzilacos, Hu &
Toueg (arXiv:1906.00298): a read returns the value of the latest
publish that completed before the read began, or of a publish that
overlaps it.

The machine interleaves ``predict``, ``topk``, ``update_features``,
``update_edges``, ``dynamic.compact()`` and one update applied while
three reader threads hammer the service, over the {resident, mmap}
feature tiers.  The oracle is a from-scratch
full-graph forward over the current features and graph:

- after every update the served rows equal it bit for bit;
- every concurrent response equals the rows of *some* published version
  (:class:`~harness.SnapshotChecker`), never a pre/post mix;
- no reader thread sees versions go backwards, and a read that begins
  after an update returned sees that update.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core import TrainConfig
from repro.core.models import build_model
from repro.featurestore import FeatureStore
from repro.graph.datasets import load_dataset
from repro.serving import InferenceEngine, full_graph_forward
from repro.serving.engine import topk_rows

from harness import JOIN_TIMEOUT_S, SnapshotChecker, join_all, make_service

NUM_READERS = 3
READ_GAP_S = 2e-4
MACHINE_SETTINGS = settings(
    max_examples=20,
    stateful_step_count=12,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="module")
def papers():
    """655 vertices, mean in-degree ~7: a one-vertex update's 2-hop
    affected set is 10 % of the graph at the median, so updates range
    from a small row subset to most of the graph."""
    return load_dataset("ogbn-papers", scale=0.02, seed=1)


@pytest.fixture(scope="module")
def model(papers):
    cfg = TrainConfig(num_layers=2, hidden_features=16, model="sage", seed=0)
    return build_model(cfg, papers.feature_dim, papers.num_classes)


def _oracle(engine) -> np.ndarray:
    """A from-scratch precompute: current features and graph, a norm
    derived afresh from the graph's degrees, no table reused."""
    return full_graph_forward(engine.model, engine.graph, engine.features)


def _live_edges(graph) -> np.ndarray:
    """``(src, dst)`` of every edge (row = destination in this CSR)."""
    dst = np.repeat(np.arange(graph.num_vertices), np.diff(graph.indptr))
    return np.stack([graph.indices, dst], axis=1)


def _machine(ds, model, make_store):
    n = ds.num_vertices
    ids = st.lists(st.integers(0, n - 1), max_size=8)

    class PublishMachine(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            self.engine = InferenceEngine(ds, model, feature_store=make_store())
            self.engine.precompute()
            self.svc = make_service(self.engine)
            self.published = SnapshotChecker()
            self._publish()

        def teardown(self):
            self.svc.close()

        # -- helpers -----------------------------------------------------------

        def _publish(self) -> None:
            """Register the oracle as the newest version and check the
            service serves exactly it, every vertex, bit for bit."""
            self.oracle = _oracle(self.engine)
            self.published.register(self.oracle)
            served = self.svc.predict_logits(np.arange(n))
            assert np.array_equal(served, self.oracle)

        def _draw_update(self, data, kind: str):
            if kind == "features":
                vertices = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
                seed = data.draw(st.integers(0, 2**16))
                rows = np.random.default_rng(seed).standard_normal(
                    (len(vertices), ds.feature_dim)
                ).astype(np.float32)
                return lambda: self.svc.update_features(vertices, rows)
            pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            add = data.draw(st.lists(pair, max_size=3))
            live = _live_edges(self.engine.graph)
            picks = data.draw(st.lists(st.integers(0, len(live) - 1), max_size=2, unique=True))
            remove = sorted({tuple(live[i]) for i in picks})
            if not add and not remove:
                add = [data.draw(pair)]
            return lambda: self.svc.update_edges(add=add or None, remove=remove or None)

        # -- rules -------------------------------------------------------------

        @rule(vertices=ids)
        def predict(self, vertices):
            want = self.oracle[np.asarray(vertices, dtype=np.int64)]
            assert np.array_equal(self.svc.predict_logits(vertices), want)
            assert np.array_equal(self.svc.predict(vertices), np.argmax(want, axis=1))

        @rule(vertices=ids.filter(bool), k=st.integers(1, ds.num_classes + 1))
        def topk(self, vertices, k):
            classes, scores = self.svc.topk(vertices, k=k)
            want_classes, want_scores = topk_rows(self.oracle[vertices], k)
            assert np.array_equal(classes, want_classes)
            assert np.array_equal(scores, want_scores)

        @rule(data=st.data())
        def update_features(self, data):
            self._draw_update(data, "features")()
            self._publish()

        @rule(data=st.data())
        def update_edges(self, data):
            self._draw_update(data, "edges")()
            self._publish()

        @precondition(lambda self: self.engine.dynamic is not None)
        @rule()
        def compact(self):
            self.engine.dynamic.compact()
            # folding the delta into the base changes no edge and no row
            assert np.array_equal(_oracle(self.engine), self.oracle)
            assert np.array_equal(self.svc.predict_logits(np.arange(n)), self.oracle)

        @rule(data=st.data(), kind=st.sampled_from(["features", "edges"]))
        def update_under_readers(self, data, kind):
            apply = self._draw_update(data, kind)
            before = self.published.num_snapshots - 1
            updated = threading.Event()
            reads = [[] for _ in range(NUM_READERS)]
            errors = []

            def reader(idx: int) -> None:
                rng = np.random.default_rng(idx)
                try:
                    while True:
                        after = updated.is_set()
                        vertices = rng.integers(0, n, size=6)
                        rows = self.svc.predict_logits(vertices)
                        reads[idx].append((after, vertices, rows))
                        if after:
                            return
                        # yield the GIL to the update between reads
                        updated.wait(READ_GAP_S)
                except BaseException as exc:  # noqa: BLE001 — asserted below
                    errors.append(exc)

            threads = [
                threading.Thread(target=reader, args=(i,), name=f"machine-reader-{i}")
                for i in range(NUM_READERS)
            ]
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)  # switch threads far more often
            try:
                for t in threads:
                    t.start()
                apply()
            finally:
                updated.set()
                join_all(threads)
                sys.setswitchinterval(interval)
            assert not errors, errors
            self._publish()
            latest = self.published.num_snapshots - 1
            for per_thread in reads:
                low = before
                for after, vertices, rows in per_thread:
                    seen = [v for v in self.published.versions(vertices, rows) if v >= low]
                    assert seen, (
                        f"read of {vertices.tolist()} matches no version in "
                        f"[{low}, {latest}]: torn, stale or gone backwards"
                    )
                    low = seen[0]
                    if after:
                        assert latest in seen, "a read after the update missed it"

    return PublishMachine


@pytest.mark.parametrize("tier", ["resident", "mmap"])
def test_publish_machine(papers, model, tmp_path, tier):
    if tier == "resident":
        def make_store():
            return None  # the engine's private resident copy
    else:
        path = str(tmp_path / "features")

        def make_store():
            # the layout is written once and never modified: each store
            # patches a private copy
            return FeatureStore.create(path, papers.features)

    machine = _machine(papers, model, make_store)
    run_state_machine_as_test(machine, settings=MACHINE_SETTINGS)


def test_update_publishes_while_a_table_read_is_parked(papers, model):
    """The register, deterministically: a table read parked after
    its gather does not hold up an update, still answers the
    version it read, and the next read answers the new one.  The update
    wrote into no array a reader could hold."""
    engine = InferenceEngine(papers, model).precompute()
    svc = make_service(engine)
    held = engine.logits
    old = np.array(held, copy=True)
    release, gathered = threading.Event(), threading.Event()

    def park_after_gather(lookup):
        def parked(ids):
            rows = lookup(ids)
            gathered.set()
            release.wait(JOIN_TIMEOUT_S)
            return rows

        return parked

    svc.wrap_lookup(park_after_gather)
    answers = []
    reader = threading.Thread(
        target=lambda: answers.append(svc.predict_logits(np.arange(8))), daemon=True
    )
    reader.start()
    try:
        assert gathered.wait(JOIN_TIMEOUT_S)
        rows = np.random.default_rng(0).standard_normal((2, papers.feature_dim))
        svc.update_features([0, 5], rows.astype(np.float32))
        assert not answers  # the update finished while the read was parked
    finally:
        release.set()
        join_all([reader])
    new = _oracle(engine)
    assert engine.logits is not held and np.array_equal(held, old)
    assert not np.array_equal(new[:8], old[:8])
    assert np.array_equal(answers[0], old[:8])
    gathered.clear()
    release.set()
    assert np.array_equal(svc.predict_logits(np.arange(8)), new[:8])
    svc.close()
