"""Persistent HTTP/1.1 connections.

The server answers HTTP/1.1 and keeps a connection open across
requests, so one client socket carries every outcome in turn: each
request body is consumed before the reply (or the reply ends the
connection), each response is one write, an idle connection is dropped
after the handler's ``timeout``, and shutdown ends every kept-alive
connection and its handler thread.
"""

import http.client
import json
import socket
import socketserver
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.serving import PredictionServer, PredictionService, ServingFrontend
from repro.serving.server import _PredictionHandler

from harness import JOIN_TIMEOUT_S, join_all

JSON = {"Content-Type": "application/json"}


@pytest.fixture
def serve(engine):
    """``serve(svc=None, **frontend_kwargs)`` starts a live server over
    ``engine``; every server started is shut down after the test."""
    servers = []

    def start(svc=None, **kwargs):
        svc = svc if svc is not None else PredictionService(engine)
        kwargs.setdefault("default_timeout_s", 10.0)
        fe = ServingFrontend(svc, **kwargs)
        servers.append(PredictionServer(svc, port=0, frontend=fe).start_background())
        return servers[-1]

    yield start
    for server in servers:
        server.shutdown()


def _handler_threads():
    return {t for t in threading.enumerate() if "process_request_thread" in t.name}


def _wait_gone(threads, within_s: float) -> None:
    deadline = time.monotonic() + within_s
    while any(t.is_alive() for t in threads) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not any(t.is_alive() for t in threads), "a handler thread outlived its connection"


def _post(conn, path, body, headers=JSON):
    data = body if isinstance(body, bytes) else json.dumps(body).encode()
    conn.request("POST", path, body=data, headers=headers)
    resp = conn.getresponse()
    return resp, json.loads(resp.read())


def _labels(engine, ids):
    return np.argmax(engine.logits[ids], axis=1).tolist()


def _raw_exchange(server, request: bytes, half_close: bool = False) -> bytes:
    """Send ``request`` on a fresh socket (then close the write side, if
    ``half_close``) and read until the server closes it — a server that
    keeps it open raises ``socket.timeout``."""
    with socket.create_connection(server.address, timeout=5) as sock:
        sock.sendall(request)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
        reply = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return reply
            reply += chunk


# -- one connection, every outcome -----------------------------------------------


def test_one_connection_carries_every_outcome(engine, serve):
    """404, 400, 429, 503, 500 and 200 replies interleave on one socket:
    every reply parses, every 200 equals the engine, and the socket is
    never replaced."""
    n = engine.num_vertices
    block, slow, fail = n - 1, n - 2, n - 3
    gate, started = threading.Event(), threading.Event()
    svc = PredictionService(engine)

    def faults(lookup):
        def read(ids):
            if block in ids:
                started.set()
                assert gate.wait(JOIN_TIMEOUT_S)
            elif slow in ids:
                time.sleep(0.5)
            elif fail in ids:
                raise RuntimeError("injected engine failure")
            return lookup(ids)

        return read

    svc.wrap_lookup(faults)
    server = serve(svc, num_workers=1, max_queue=1, timeouts={"topk": 0.2})
    conn = http.client.HTTPConnection(*server.address, timeout=JOIN_TIMEOUT_S)
    conn.connect()
    sock, statuses = conn.sock, []

    def check(resp, status):
        assert resp.status == status and resp.version == 11
        assert conn.sock is sock, "the client had to reconnect"
        statuses.append(status)

    ids = [0, 7, 9]
    resp, out = _post(conn, "/predict", {"vertices": ids})
    check(resp, 200)
    assert out["labels"] == _labels(engine, ids)
    resp, out = _post(conn, "/no_such_path", {"vertices": ids})
    check(resp, 404)
    assert "unknown path" in out["error"]
    resp, out = _post(conn, "/predict", {"vertices": [3]})
    check(resp, 200)
    assert out["labels"] == _labels(engine, [3])
    resp, out = _post(conn, "/predict", b"{not json")
    check(resp, 400)
    assert "error" in out

    # fill the pool from two other connections: one read on the only
    # worker, one in the only queue slot; this one is shed
    blockers = [
        threading.Thread(
            target=lambda: _post(
                http.client.HTTPConnection(*server.address, timeout=JOIN_TIMEOUT_S),
                "/predict", {"vertices": [block]},
            ),
            daemon=True,
        )
        for _ in range(2)
    ]
    blockers[0].start()
    assert started.wait(JOIN_TIMEOUT_S)
    blockers[1].start()
    deadline = time.monotonic() + JOIN_TIMEOUT_S
    while server.frontend.queue_depth < 1 and time.monotonic() < deadline:
        time.sleep(0.005)
    resp, out = _post(conn, "/predict", {"vertices": ids})
    check(resp, 429)
    assert int(resp.getheader("Retry-After")) >= 1 and "queue full" in out["error"]
    gate.set()
    join_all(blockers)

    resp, out = _post(conn, "/predict", {"vertices": ids, "k": 2})
    check(resp, 200)
    classes, scores = engine.topk(np.array(ids), k=2)
    assert [[e["class"] for e in row] for row in out["topk"]] == classes.tolist()
    assert [[e["score"] for e in row] for row in out["topk"]] == scores.tolist()
    resp, out = _post(conn, "/predict", {"vertices": [slow], "k": 1})  # topk deadline
    check(resp, 503)
    assert int(resp.getheader("Retry-After")) >= 1 and "timed out" in out["error"]
    resp, out = _post(conn, "/predict", {"vertices": [fail]})
    check(resp, 500)
    assert "injected engine failure" in out["error"]
    resp, out = _post(conn, "/predict", {"vertices": ids})
    check(resp, 200)
    assert out["labels"] == _labels(engine, ids)
    resp, out = _post(conn, "/update_edges", {"add": [[0, 1]]})
    check(resp, 200)
    resp, out = _post(conn, "/predict", {"vertices": ids})
    check(resp, 200)
    assert out["labels"] == _labels(engine, ids)  # the published table
    assert sorted(set(statuses)) == [200, 400, 404, 429, 500, 503]
    conn.close()


@pytest.mark.parametrize("length", [
    None,   # no Content-Length
    "-1",   # rfile.read(-1) would wait for EOF
    "abc",
    "1_0",  # int() would read it as 10
    "12",   # cut short: 2 bytes sent, then the client stops writing
])
def test_an_unreadable_body_answers_400_and_closes(engine, serve, length):
    """A body that cannot be consumed whole answers 400 with
    ``Connection: close``, and the server closes the socket — on a 404
    path too."""
    server = serve()
    header = b"" if length is None else f"Content-Length: {length}\r\n".encode()
    for path in ("/predict", "/no_such_path"):
        reply = _raw_exchange(
            server,
            f"POST {path} HTTP/1.1\r\nHost: test\r\n".encode() + header + b"\r\n{}",
            half_close=length == "12",
        )
        head, _, payload = reply.partition(b"\r\n\r\n")
        assert head.split(b"\r\n", 1)[0].split()[1] == b"400", head
        assert b"Connection: close" in head.split(b"\r\n")
        assert "Content-Length" in json.loads(payload)["error"]


def test_each_response_is_one_write(engine, serve, monkeypatch):
    """Headers and body leave in one ``sendall``: a body written apart
    would wait on Nagle's algorithm plus the client's delayed ACK."""
    writes = []
    write = socketserver._SocketWriter.write

    def counting(self, b):
        writes.append(bytes(b))
        return write(self, b)

    monkeypatch.setattr(socketserver._SocketWriter, "write", counting)
    server = serve()
    conn = http.client.HTTPConnection(*server.address, timeout=JOIN_TIMEOUT_S)
    requests = [
        ("POST", "/predict", json.dumps({"vertices": [1, 2]}).encode()),
        ("POST", "/predict", b"[1]"),
        ("POST", "/nope", b"{}"),
        ("GET", "/healthz", None),
        ("GET", "/metrics?format=prom", None),
        ("GET", "/nope", None),
    ]
    for method, path, body in requests:
        conn.request(method, path, body=body, headers=JSON)
        resp = conn.getresponse()
        payload = resp.read()
        assert writes[-1].startswith(b"HTTP/1.1 ") and writes[-1].endswith(payload)
    assert len(writes) == len(requests)
    conn.close()


# -- connection lifecycle ---------------------------------------------------------


def test_many_reads_reuse_one_socket(engine, serve):
    server = serve()
    conn = http.client.HTTPConnection(*server.address, timeout=JOIN_TIMEOUT_S)
    conn.connect()
    sock = conn.sock
    for i in range(100):
        ids = [i % engine.num_vertices, (7 * i) % engine.num_vertices]
        resp, out = _post(conn, "/predict", {"vertices": ids})
        assert resp.status == 200 and resp.version == 11
        assert out["labels"] == _labels(engine, ids)
        assert conn.sock is sock
    conn.close()


def test_connection_close_client_gets_a_closed_socket(engine, serve):
    """urllib (``repro loadgen --url``, ``repro trace --url``) sends
    ``Connection: close``: the reply says so and the server closes."""
    server = serve()
    before = _handler_threads()
    req = urllib.request.Request(
        "http://%s:%d/predict" % server.address,
        data=json.dumps({"vertices": [2]}).encode(), headers=JSON, method="POST",
    )
    with urllib.request.urlopen(req, timeout=JOIN_TIMEOUT_S) as resp:
        assert resp.headers["Connection"] == "close"
        assert json.load(resp)["labels"] == _labels(engine, [2])
    reply = _raw_exchange(
        server, b"GET /healthz HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    assert reply.startswith(b"HTTP/1.1 200") and reply.endswith(b'{"status": "ok"}')
    _wait_gone(_handler_threads() - before, within_s=1.0)


def test_idle_connection_is_dropped_after_timeout(engine, serve, monkeypatch):
    """A silent client, and one gone quiet after a request, are dropped
    after the handler's idle ``timeout`` (lowered here from 30 s), and
    their handler threads exit."""
    monkeypatch.setattr(_PredictionHandler, "timeout", 1.0)
    server = serve()
    before = _handler_threads()
    silent = socket.create_connection(server.address, timeout=5)
    conn = http.client.HTTPConnection(*server.address, timeout=5)
    resp, _ = _post(conn, "/predict", {"vertices": [1]})
    assert resp.status == 200
    ours = _handler_threads() - before
    assert len(ours) == 2
    t0 = time.monotonic()
    assert silent.recv(1) == b""  # the server closed it
    assert conn.sock.recv(1) == b""
    assert time.monotonic() - t0 < 5.0
    _wait_gone(ours, within_s=1.0)
    silent.close()
    conn.close()


# -- shutdown ---------------------------------------------------------------------


def test_shutdown_ends_kept_alive_connections(engine, serve):
    server = serve()
    before = _handler_threads()
    conns = [http.client.HTTPConnection(*server.address, timeout=5) for _ in range(3)]
    for conn in conns:
        assert _post(conn, "/predict", {"vertices": [4]})[0].status == 200
    ours = _handler_threads() - before
    assert len(ours) == 3
    server.shutdown()  # the handler timeout is 30 s: only shutdown ends them
    _wait_gone(ours, within_s=1.0)
    for conn in conns:
        with pytest.raises((http.client.HTTPException, OSError)):
            _post(conn, "/predict", {"vertices": [4]})
        conn.close()


def test_closed_frontend_answers_503(engine, serve):
    server = serve()
    conn = http.client.HTTPConnection(*server.address, timeout=5)
    assert _post(conn, "/predict", {"vertices": [1]})[0].status == 200
    server.frontend.close()
    resp, out = _post(conn, "/predict", {"vertices": [1]})
    assert resp.status == 503 and int(resp.getheader("Retry-After")) >= 1
    assert "closed" in out["error"]
    conn.close()


def test_request_racing_shutdown_is_never_a_500(engine, serve):
    """Clients keep reading while the server shuts down: each request is
    answered 200 or 503, or finds its connection closed — never 500."""
    server = serve(num_workers=2)
    statuses, stop = [], threading.Event()

    def client():
        conn = http.client.HTTPConnection(*server.address, timeout=5)
        while not stop.is_set():
            try:
                statuses.append(_post(conn, "/predict", {"vertices": [5, 6]})[0].status)
            except (http.client.HTTPException, OSError):
                conn.close()
                if stop.wait(0.001):
                    return

    clients = [threading.Thread(target=client, daemon=True) for _ in range(3)]
    for t in clients:
        t.start()
    deadline = time.monotonic() + JOIN_TIMEOUT_S
    while len(statuses) < 30 and time.monotonic() < deadline:
        time.sleep(0.005)
    server.shutdown()
    time.sleep(0.1)  # requests keep coming at a shut server
    stop.set()
    join_all(clients)
    assert statuses.count(200) >= 30
    assert set(statuses) <= {200, 503}, sorted(set(statuses))
