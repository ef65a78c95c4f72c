"""The frozen serving benchmark's wire contract.

``benchmarks/suite/suite_serve.py`` does not change with the server, so
what it reads must keep existing: the ``/metrics`` and ``/stats`` keys
``_server_counters`` takes apart, and the traced replay's
``PredictionService`` composition with its ``service.cache``.  A
missing key there would fail the benchmark run rather than a test, so
this test reads a live server with the suite's own code.
"""

import os
import sys

import numpy as np

from repro.serving import (
    IncrementalRefresher,
    PredictionServer,
    PredictionService,
    ResultCache,
)

SUITE_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks", "suite")
sys.path.insert(0, os.path.abspath(SUITE_DIR))
import suite_serve  # noqa: E402
from suite_harness import HttpClient, json_bytes  # noqa: E402

REFRESH_KEYS = ("incremental", "full", "deferred", "topology_updates")


def test_suite_reads_the_server_and_builds_the_replay(engine):
    d = suite_serve.CLI_DEFAULTS
    # composed as `repro serve` composes it (cli._build_service)
    service = PredictionService(
        engine,
        refresher=IncrementalRefresher(engine, full_threshold=d["full_threshold"]),
    )
    server = PredictionServer(service, port=0).start_background()
    client = HttpClient(server.address[1])
    rows = np.ones((1, engine.features.shape[1]), dtype=np.float32)
    try:
        before = suite_serve._server_counters(client)
        for path, body in (
            ("/update_edges", {"add": [[0, 1]]}),
            ("/update_features", {"vertices": [2], "features": rows.tolist()}),
            ("/predict", {"vertices": [0, 2], "k": 2}),
        ):
            status, _ = client.request("POST", path, json_bytes(body))
            assert status == 200, path
        after = suite_serve._server_counters(client)
    finally:
        client.close()
        server.shutdown()
    for key in suite_serve._COUNTER_KEYS:
        assert after[key] == 0.0, key
    assert after["serving.cache_hit_rate"] == after["serving.batch_mean_rows"] == 0.0
    endpoints = after["metrics"]["endpoints"]
    assert endpoints["update_edges"]["ok"] == endpoints["update_features"]["ok"] == 1
    moved = {
        k: after["stats"]["refresher"][k] - before["stats"]["refresher"][k]
        for k in REFRESH_KEYS
    }
    assert moved["incremental"] + moved["full"] + moved["deferred"] == 2
    assert moved["topology_updates"] == 1

    # the traced replay's composition: a table-mode service that still
    # carries the cache the replay resets between boundaries
    replay = PredictionService(
        engine,
        cache=ResultCache(d["cache_size"]),
        batch=True, max_batch=d["max_batch"], max_wait_ms=d["max_wait_ms"],
        refresher=IncrementalRefresher(engine, full_threshold=d["full_threshold"]),
    )
    with replay:
        ids = np.array([0, 2, 2])
        assert suite_serve.answer(replay, ids, 3) == suite_serve.answer(engine, ids, 3)
        replay.cache.reset()


def test_suite_compact_call_returns_the_served_graph(engine):
    """``_inproc_updates`` times ``engine.dynamic.compact()`` after its
    edge updates: after an HTTP ``update_edges`` the call must still
    exist and return the graph the engine serves, the added edge in it."""
    service = PredictionService(engine, refresher=IncrementalRefresher(engine))
    server = PredictionServer(service, port=0).start_background()
    client = HttpClient(server.address[1])
    edges = engine.graph.num_edges
    try:
        status, _ = client.request("POST", "/update_edges", json_bytes({"add": [[3, 0]]}))
        assert status == 200
    finally:
        client.close()
        server.shutdown()
    assert engine.dynamic.compact() is engine.graph
    assert engine.graph.num_edges == edges + 1
    assert engine.graph.neighbors(0).tolist()[-1] == 3
