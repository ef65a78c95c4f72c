"""Concurrency stress: readers hammering a service under live updates.

The contract pinned here is the serving tier's memory model:

- **no torn reads** — every served response equals the corresponding
  rows of exactly one full-precompute table version (pre- or post-
  update), never a mix: updates publish a new logits table instead of
  rewriting the one readers hold;
- **reads are never shed for an update** — every read is served on its
  first try while updates land;
- **no deadlocks** — reader herds + updater threads always join
  (enforced by the harness's deadline joins).
"""

import threading

import numpy as np
import pytest

from repro.serving import PredictionService, full_graph_forward

from harness import (
    JOIN_TIMEOUT_S,
    SnapshotChecker,
    hammer,
    join_all,
    make_frontend,
    make_service,
)

NUM_READERS = 4
READS_PER_THREAD = 25


@pytest.fixture
def serving(engine):
    svc = make_service(engine)
    fe = make_frontend(svc)
    yield svc, fe
    fe.close()
    svc.close()


def _collecting_reader(svc, fe, responses, responses_lock):
    """Reader body: predict a seeded batch, collect (ids, rows) for
    post-hoc snapshot validation.  No retry: a read shed while an update
    lands fails the test."""

    def read(idx: int) -> None:
        rng = np.random.default_rng(1000 + idx + len(responses))
        ids = rng.integers(0, svc.engine.num_vertices, size=6)
        rows = fe.call("predict", lambda: svc.predict_logits(ids))
        with responses_lock:
            responses.append((ids, np.array(rows, copy=True)))

    return read


def _run_stress(svc, fe, engine, apply_update, num_updates):
    """Readers hammer while a writer applies ``num_updates`` updates;
    returns (responses, checker) for post-hoc torn-read validation."""
    every = np.arange(engine.num_vertices)
    checker = SnapshotChecker()
    checker.register(svc.predict_logits(every))  # version 0
    responses, responses_lock = [], threading.Lock()
    writer_err = []

    def writer() -> None:
        try:
            for k in range(num_updates):
                apply_update(k)
                # the update has returned, so its version is published
                checker.register(svc.predict_logits(every))
        except BaseException as exc:  # noqa: BLE001 — surfaced below
            writer_err.append(exc)

    w = threading.Thread(target=writer, name="stress-writer", daemon=True)
    w.start()
    hammer(
        _collecting_reader(svc, fe, responses, responses_lock),
        num_threads=NUM_READERS,
        iterations=READS_PER_THREAD,
    )
    join_all([w])
    if writer_err:
        raise writer_err[0]
    assert checker.num_snapshots == num_updates + 1
    return responses, checker


def test_no_torn_reads_under_feature_updates(trained, serving):
    ds, _, _ = trained
    svc, fe = serving
    engine = svc.engine
    rng = np.random.default_rng(42)
    updates = [
        (
            rng.choice(engine.num_vertices, size=3, replace=False),
            rng.standard_normal((3, ds.feature_dim)).astype(np.float32),
        )
        for _ in range(4)
    ]

    responses, checker = _run_stress(
        svc, fe, engine,
        lambda k: fe.update_features(*updates[k]),
        num_updates=len(updates),
    )
    assert responses, "stress run served nothing"
    for ids, rows in responses:
        checker.assert_consistent(ids, rows)


def test_no_torn_reads_under_edge_updates(serving):
    svc, fe = serving
    engine = svc.engine
    rng = np.random.default_rng(43)
    batches = [
        rng.integers(0, engine.num_vertices, size=(4, 2)) for _ in range(4)
    ]

    responses, checker = _run_stress(
        svc, fe, engine,
        lambda k: fe.update_edges(add=batches[k]),
        num_updates=len(batches),
    )
    assert responses, "stress run served nothing"
    for ids, rows in responses:
        checker.assert_consistent(ids, rows)


def _feature_updates(ds, engine, seed, num=3, size=2):
    rng = np.random.default_rng(seed)
    return [
        (
            rng.choice(engine.num_vertices, size=size, replace=False)
            if size < engine.num_vertices else np.arange(size),
            rng.standard_normal((size, ds.feature_dim)).astype(np.float32),
        )
        for _ in range(num)
    ]


def test_no_torn_reads_under_whole_graph_updates(trained, engine):
    """Every update rewrites every vertex, so each refresh is the full
    pass and publishes its table at the end: readers see the old
    version or the new one, never a pass in progress."""
    ds, _, _ = trained
    svc = make_service(engine)
    fe = make_frontend(svc)
    updates = _feature_updates(ds, engine, seed=44, size=engine.num_vertices)
    try:
        responses, checker = _run_stress(
            svc, fe, engine,
            lambda k: fe.update_features(*updates[k]),
            num_updates=len(updates),
        )
    finally:
        fe.close()
        svc.close()
    assert svc.refresher.num_incremental == len(updates)
    assert responses, "stress run served nothing"
    for ids, rows in responses:
        checker.assert_consistent(ids, rows)


def test_no_torn_reads_without_a_refresher(trained, engine):
    """A service built with no refresher builds its own and refreshes
    under its update lock; reads still never see a mix."""
    ds, _, _ = trained
    svc = PredictionService(engine)
    fe = make_frontend(svc)
    updates = _feature_updates(ds, engine, seed=45)
    try:
        responses, checker = _run_stress(
            svc, fe, engine,
            lambda k: fe.update_features(*updates[k]),
            num_updates=len(updates),
        )
    finally:
        fe.close()
        svc.close()
    assert responses, "stress run served nothing"
    for ids, rows in responses:
        checker.assert_consistent(ids, rows)


def test_concurrent_reads_match_a_lone_reader(trained, serving):
    """Reads share no mutable state: after an update, every concurrent
    response is the lone reader's, bit for bit."""
    ds, _, _ = trained
    svc, fe = serving
    fe.update_features(*_feature_updates(ds, svc.engine, seed=4, num=1, size=3)[0])
    rng = np.random.default_rng(4)
    probes = [
        rng.integers(0, svc.engine.num_vertices, size=5) for _ in range(NUM_READERS)
    ]
    want = [svc.predict_logits(p) for p in probes]

    def read(idx: int) -> None:
        got = fe.call("predict", lambda: svc.predict_logits(probes[idx]))
        assert np.array_equal(got, want[idx])

    hammer(read, num_threads=NUM_READERS, iterations=READS_PER_THREAD)


def test_concurrent_updates_serialize(serving):
    """Multiple updater threads racing each other: every update lands
    (they serialise on the service's update lock), none deadlocks, and
    the final table equals a fresh full precompute of the final state."""
    svc, fe = serving
    engine = svc.engine
    rng = np.random.default_rng(9)
    edges = [rng.integers(0, engine.num_vertices, size=(2, 2)) for _ in range(6)]
    errors = []

    def updater(idx: int) -> None:
        try:
            fe.update_edges(add=edges[idx])
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [
        threading.Thread(target=updater, args=(i,), name=f"upd-{i}", daemon=True)
        for i in range(len(edges))
    ]
    for t in threads:
        t.start()
    join_all(threads, timeout_s=JOIN_TIMEOUT_S)
    assert not errors, errors
    assert fe.metrics_snapshot()["endpoints"]["update_edges"]["ok"] == len(edges)
    # the incremental path's contract: identical to a from-scratch
    # precompute of the final topology
    fresh = full_graph_forward(engine.model, engine.graph, engine.features)
    assert np.array_equal(svc.predict_logits(np.arange(engine.num_vertices)), fresh)

