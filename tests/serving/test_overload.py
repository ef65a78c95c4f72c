"""Overload: bursty open-loop traffic at twice saturation is shed, not queued.

A live in-process server with one run slot and four waiting ones
(``num_workers=1, max_queue=4``) sees Markov-modulated Poisson (MMPP)
arrivals at about twice the rate it can serve.  The admission gate must
hold goodput near saturation — shedding the excess with 429 rather than
letting every request slow down — count every request in exactly one
outcome bucket, and leave no handler thread behind.  The MMPP's
burstiness is checked on the generated arrivals themselves: its
inter-arrival SCV, and its counts' variance over their mean, exceed 1.
"""

import http.client
import json
import queue
import threading
import time

import numpy as np
import pytest

from repro.core import TrainConfig, Trainer
from repro.serving import (
    InferenceEngine,
    PredictionServer,
    PredictionService,
    RequestRejected,
    RequestTimeout,
    ServingFrontend,
)
from repro.serving.metrics import OUTCOMES

from harness import (
    JOIN_TIMEOUT_S,
    bursty_arrivals,
    build_schedule,
    run_open_loop,
    slow_lookup,
)

#: injected lookup time: the gated section dominates each request, so
#: saturation is set by the one run slot, not by HTTP parsing.
SERVICE_S = 0.004
NUM_CLIENTS = 16
SATURATION_S = 1.0
OVERLOAD_S = 3.0
#: goodput under 2x overload stays above this fraction of saturation
#: (the MMPP's slow state offers 0.8x saturation half the time).
GOODPUT_FLOOR = 0.5


@pytest.fixture(scope="module")
def engine(reddit_mini):
    cfg = TrainConfig(num_layers=2, hidden_features=16, eval_every=0, seed=0)
    trainer = Trainer(reddit_mini, cfg)
    trainer.fit(1)
    return InferenceEngine(reddit_mini, trainer.model, cfg).precompute()


def _handler_threads():
    return {t for t in threading.enumerate() if "process_request_thread" in t.name}


class KeepAliveTarget:
    """``run_open_loop`` target over a pool of kept-alive connections,
    each opened and answered once up front (no connect storm in a burst)."""

    def __init__(self, address, size: int):
        self.pool: "queue.Queue" = queue.Queue()
        for _ in range(size):
            conn = http.client.HTTPConnection(*address, timeout=JOIN_TIMEOUT_S)
            conn.request("GET", "/healthz")
            conn.getresponse().read()
            self.pool.put(conn)

    def post(self, ids) -> int:
        conn = self.pool.get()
        try:
            conn.request("POST", "/predict", body=json.dumps({"vertices": ids}),
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            resp.read()
            return resp.status
        finally:
            self.pool.put(conn)

    def __call__(self, req):
        status = self.post(req.vertices.tolist())
        if status != 200:  # run_open_loop buckets a failure by its class
            raise {429: RequestRejected, 503: RequestTimeout}.get(
                status, RuntimeError)(f"HTTP {status}")

    def close(self) -> None:
        while not self.pool.empty():
            self.pool.get().close()


def _saturation_rps(target: KeepAliveTarget, clients: int) -> float:
    """Closed loop, ``clients`` callers back to back: the slot never idles
    and nobody is shed (``clients`` <= run + waiting slots)."""
    done, stop = [], time.perf_counter() + SATURATION_S

    def loop():
        n = 0
        while time.perf_counter() < stop:
            assert target.post([1, 2, 3]) == 200
            n += 1
        done.append(n)

    t0 = time.perf_counter()
    threads = [threading.Thread(target=loop, daemon=True) for _ in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(JOIN_TIMEOUT_S)
    return sum(done) / (time.perf_counter() - t0)


def test_bursty_overload_is_shed_at_the_gate(engine):
    before = _handler_threads()
    svc = PredictionService(engine)
    svc.wrap_lookup(slow_lookup(SERVICE_S))
    fe = ServingFrontend(svc, num_workers=1, max_queue=4, default_timeout_s=10.0)
    server = PredictionServer(svc, port=0, frontend=fe).start_background()
    target = KeepAliveTarget(server.address, NUM_CLIENTS)
    try:
        saturation = _saturation_rps(target, clients=4)
        counted_before = dict(fe.metrics_snapshot()["endpoints"]["predict"])

        rng = np.random.default_rng(36)
        arrivals = bursty_arrivals(2.0 * saturation, OVERLOAD_S, rng)
        schedule = build_schedule(arrivals, engine.num_vertices, rng,
                                  mix={"predict": 1.0})

        report = run_open_loop(target, schedule, num_clients=NUM_CLIENTS)
        counted = fe.metrics_snapshot()["endpoints"]["predict"]
        # every handler thread ends with its connection (the idle
        # timeout is 30 s and shutdown has not run yet)
        target.close()
        deadline = time.monotonic() + 5.0
        while _handler_threads() - before and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _handler_threads() - before == set()
    finally:
        target.close()
        server.shutdown()

    # the arrivals are bursty: inter-arrival SCV > 1, and so is the
    # counts' variance over mean (50 ms windows)
    gaps = np.diff(arrivals)
    assert gaps.var() / gaps.mean() ** 2 > 1.0
    counts = np.bincount((arrivals / 0.05).astype(int))
    assert counts.var() / counts.mean() > 1.0

    # goodput holds near saturation, and one slot serialises the served
    # lookups; the excess is shed, nothing fails
    goodput = report.count("ok") / report.elapsed_s
    assert goodput >= GOODPUT_FLOOR * saturation, (goodput, saturation)
    assert report.count("ok") * SERVICE_S <= report.elapsed_s
    assert report.count("rejected_queue_full") > 0
    assert report.count("error") == report.count("timeout") == 0

    # every request in exactly one outcome bucket, client and server agree
    client = {o: report.count(o) for o in OUTCOMES}
    server_side = {o: counted[o] - counted_before.get(o, 0) for o in OUTCOMES}
    assert sum(client.values()) == report.offered == len(schedule)
    assert server_side == client
