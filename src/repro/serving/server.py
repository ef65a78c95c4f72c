"""JSON-over-HTTP prediction service (stdlib only).

:class:`PredictionService` puts engine lookups and the refresher's
update path behind one ``predict``/``topk``/``update`` surface, and
:class:`PredictionServer` exposes that surface over HTTP with a
:class:`~repro.serving.frontend.ServingFrontend` doing admission control
(a bounded gate, per-endpoint deadlines):

- ``POST /predict``          body ``{"vertices": [..], "k": 3?}`` ->
  ``{"vertices", "labels", "topk"?}``
- ``POST /update_edges``     body ``{"add": [[u, v], ..]?, "remove":
  [[u, v], ..]?}`` -> refresh outcome (affected rows, edge count)
- ``POST /update_features``  body ``{"vertices": [..], "features":
  [[..], ..]}`` -> refresh outcome
- ``GET /stats``             engine / refresher counters
- ``GET /metrics``           request-path metrics: per-endpoint outcome
  counters and p50/p99, queue depth, in-flight count (JSON);
  ``?format=prom`` renders the unified telemetry registry as Prometheus
  text exposition instead
- ``GET /trace``             buffered request spans as Chrome
  trace-event JSON (Perfetto-loadable; ``REPRO_TRACE=1`` to record)
- ``GET /healthz``           liveness; always ``200 {"status": "ok"}``

Request flow: each connection's handler thread parses a request and runs
it, a read behind the frontend's admission gate (no hand-off to another
thread).  A read is a row gather from the published logits table.
Updates run on the handler thread, beside the gate, through the
one refresh path (:class:`~repro.serving.refresh.IncrementalRefresher`,
built here when the caller brings none) and **publish**: the refresh
fills a new logits table and assigns it, so reads never wait for an
update and never see a torn mix of pre- and post-update rows.

Failure modes are all structured JSON, never a traceback: malformed
bodies answer ``400``; a full admission queue answers ``429`` with
``Retry-After``; missed deadlines and a closed frontend answer ``503``
with ``Retry-After``; engine failures answer ``500``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs

import numpy as np

from repro.analysis.sanitizers import make_lock
from repro.graph.csr import INDEX_DTYPE
from repro.obs.registry import render_prometheus, serving_registry
from repro.obs.trace import chrome_trace, current_span
from repro.serving.engine import InferenceEngine, topk_rows
from repro.serving.frontend import ServingFrontend, ServingUnavailable
from repro.serving.refresh import IncrementalRefresher, RefreshStats


def _int_field(value, what: str) -> int:
    """Strictly-integer JSON field (bools and floats are rejected —
    ``1.5`` silently truncating to vertex 1 is a served-wrong-row bug)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _vertex_ids(value) -> np.ndarray:
    if not isinstance(value, list):
        raise ValueError(
            f"vertices must be a list of integer vertex ids, got {value!r}"
        )
    return np.asarray(
        [_int_field(v, f"vertices[{i}]") for i, v in enumerate(value)],
        dtype=INDEX_DTYPE,
    )


def _edge_pairs(value, what: str):
    if value is None:
        return None
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list of [src, dst] pairs")
    pairs = []
    for i, pair in enumerate(value):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"{what}[{i}] must be a [src, dst] pair")
        pairs.append(
            (_int_field(pair[0], f"{what}[{i}][0]"),
             _int_field(pair[1], f"{what}[{i}][1]"))
        )
    return pairs


def _feature_rows(value, what: str = "features") -> np.ndarray:
    """2-D float feature rows from a JSON list-of-lists body."""
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list of feature rows")
    try:
        rows = np.asarray(value, dtype=np.float32)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{what} must be numeric rows: {exc}")
    rows = np.atleast_2d(rows)
    if rows.ndim != 2:
        raise ValueError(f"{what} must be 2-D (one row per vertex)")
    if not np.isfinite(rows).all():
        raise ValueError(f"{what} must be finite (no NaN/inf)")
    return rows


class ResultCache:
    """Accepted by :class:`PredictionService` and never consulted: a read
    is a row of the published logits table.  Kept so callers that build
    one beside the service, and reset it, keep working."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)

    def reset(self) -> None:
        """Nothing to clear."""


class PredictionService:
    """Front end over an :class:`InferenceEngine`.

    A read is a row gather from the published logits table,
    ``engine.logits[ids]``, with no lock.  Updates (``update_edges`` /
    ``update_features``) serialise on one lock and go through
    ``refresher`` (an :class:`IncrementalRefresher` over ``engine`` when
    none is given), which publishes: no code writes into a ``logits``
    array a reader can hold
    (:meth:`~repro.serving.refresh.IncrementalRefresher._recompute_rows`
    builds a new one and assigns it), so one attribute read is exactly
    one published version.  That is the single-writer atomic register of
    Hadzilacos, Hu & Toueg (arXiv:1906.00298): a read returns the latest
    completed publish or a concurrent one.
    ``tests/serving/test_publish_machine.py`` pins the contract.

    ``cache``, ``batch``, ``max_batch`` and ``max_wait_ms`` are accepted
    and unused — a table read needs neither a result cache nor a
    micro-batcher — so callers of the older signature keep working
    (``cache`` stays reachable as :attr:`cache`).
    """

    def __init__(
        self,
        engine: InferenceEngine,
        cache: Optional[ResultCache] = None,
        batch: bool = False,
        max_batch: int = 256,
        max_wait_ms: float = 2.0,
        refresher: Optional[IncrementalRefresher] = None,
    ):
        engine.ensure_ready()
        self.engine = engine
        self.cache = cache  # unused, see the class docstring
        self.refresher = (
            refresher if refresher is not None else IncrementalRefresher(engine)
        )
        self._lookup = engine.predict
        self._update_lock = make_lock("serving.service.update")

    # -- fault-injection seam ----------------------------------------------------------

    def wrap_lookup(self, wrapper) -> None:
        """Wrap the row lookup with ``wrapper(old) -> new`` — the
        supported seam the fault/stress harness uses to inject failures,
        latency, or instrumentation into the request path (every read
        calls it exactly once)."""
        self._lookup = wrapper(self._lookup)

    # -- request path ----------------------------------------------------------------

    def predict_logits(self, vertex_ids) -> np.ndarray:
        """One logit row per requested vertex (request order preserved),
        recorded as the ``compute`` component and an ``engine.predict``
        child span when the request is traced."""
        ids = self.engine._check_ids(vertex_ids)
        span = current_span()
        if span is None:
            return self._lookup(ids)
        feature_before = span.component_seconds("feature")
        t0 = time.perf_counter()
        rows = self._lookup(ids)
        elapsed = time.perf_counter() - t0
        # feature-gather time recorded inside this interval is its own
        # component; subtract it so components stay non-overlapping
        feature_during = span.component_seconds("feature") - feature_before
        span.add_component("compute", max(0.0, elapsed - feature_during))
        span.child_complete(
            "engine.predict", elapsed, cat="serving", rows=int(ids.size)
        )
        return rows

    def predict(self, vertex_ids) -> np.ndarray:
        """Argmax label per requested vertex."""
        return np.argmax(self.predict_logits(vertex_ids), axis=1)

    def topk(self, vertex_ids, k: int = 5) -> Tuple[np.ndarray, np.ndarray]:
        """Top-``k`` ``(classes, scores)`` per requested vertex."""
        return self.topk_of(self.predict_logits(vertex_ids), k)

    @staticmethod
    def topk_of(logits: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """Top-``k`` of logit rows already read, recorded as an
        ``engine.topk`` child span when the request is traced — so a
        response that carries labels and top-``k`` derives both from one
        read, and both answer the same published version."""
        span = current_span()
        if span is None:
            return topk_rows(logits, k)
        t0 = time.perf_counter()
        out = topk_rows(logits, k)
        span.child_complete(
            "engine.topk", time.perf_counter() - t0, cat="serving",
            k=int(k), rows=int(logits.shape[0]),
        )
        return out

    # -- updates ---------------------------------------------------------------

    def update_edges(self, add=None, remove=None):
        """Apply edge mutations (``(src, dst)`` pair sequences) and
        refresh the rows they invalidate.

        A new logits table is published and ``engine.version`` moves;
        reads in flight keep the version they started on.  Returns
        :class:`~repro.dyngraph.serving_updates.EdgeUpdateStats`.
        """
        with self._update_lock:
            return self.refresher.update_edges(add=add, remove=remove)

    def update_features(self, vertex_ids, new_rows) -> RefreshStats:
        """Apply a feature update (one row per vertex, last wins within
        the batch) and refresh; publishes like :meth:`update_edges`."""
        with self._update_lock:
            return self.refresher.update_features(vertex_ids, new_rows)

    # -- lifecycle / introspection ------------------------------------------------------

    def stats(self) -> dict:
        return {
            "engine": self.engine.stats(),
            "refresher": self.refresher.stats(),
        }

    def close(self) -> None:
        """Nothing to release (no worker thread behind a table read);
        kept so services compose with ``with`` and server shutdown."""

    def __enter__(self) -> "PredictionService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _PredictionHandler(BaseHTTPRequestHandler):
    """Parses requests and routes them through the server's frontend."""

    server_version = "repro-serve/2.0"
    protocol_version = "HTTP/1.1"  # keep-alive: no connect + thread per request
    timeout = 30.0  # idle seconds: a silent client cannot pin its thread

    @property
    def service(self) -> PredictionService:
        return self.server.service  # type: ignore[attr-defined]

    @property
    def frontend(self) -> ServingFrontend:
        return self.server.frontend  # type: ignore[attr-defined]

    def log_message(self, fmt, *args):  # quiet by default
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(fmt, *args)

    def _reply(self, status: int, payload, retry_after_s=None,
               content_type: str = "application/json") -> None:
        # one sendall: a body sent apart waits on Nagle + the delayed ACK
        body = (payload if isinstance(payload, str) else json.dumps(payload)).encode()
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if retry_after_s is not None:
            # Retry-After is whole seconds on the wire; round up so the
            # client never retries before the hint
            self.send_header("Retry-After", str(max(1, math.ceil(retry_after_s))))
        if self.close_connection:
            self.send_header("Connection", "close")
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()

    def do_GET(self) -> None:
        path, _, query = self.path.partition("?")
        if path == "/healthz":
            self._reply(200, {"status": "ok"})
        elif path == "/stats":
            self._reply(200, self.service.stats())
        elif path == "/metrics":
            fmt = parse_qs(query).get("format", ["json"])[0]
            if fmt == "prom":
                # the registry view; the JSON body below stays the
                # frontend snapshot bit-for-bit
                self._reply(
                    200,
                    render_prometheus(self.server.registry.collect()),  # type: ignore[attr-defined]
                    content_type="text/plain; version=0.0.4; charset=utf-8",
                )
            elif fmt == "json":
                self._reply(200, self.frontend.metrics_snapshot())
            else:
                self._reply(400, {"error": f"unknown metrics format {fmt!r}"})
        elif path == "/trace":
            self._reply(200, chrome_trace(self.frontend.tracer.export()))
        else:
            self._reply(404, {"error": f"unknown path {self.path}"})

    def _read_body(self) -> bytes:
        """The whole body (an unread byte would parse as the next request),
        or a 400 that ends the connection: no length, a bad one, cut short."""
        raw = self.headers.get("Content-Length", "")
        length = int(raw) if raw.isdecimal() else -1
        body = self.rfile.read(length) if length >= 0 else b""
        if len(body) != length:
            self.close_connection = True
            if self.server.closing:  # shutdown cut the read short
                raise ServingUnavailable("server is shutting down")
            raise ValueError(f"body must be Content-Length bytes, got {raw!r}")
        return body

    def _read_json(self, keys=None) -> dict:
        try:
            req = json.loads(self._read_body() or b"{}")
        except json.JSONDecodeError as exc:
            raise ValueError(f"body is not valid JSON: {exc}")
        if not isinstance(req, dict):
            raise ValueError(f"body must be a JSON object, got {type(req).__name__}")
        if keys is not None and set(req) - keys:
            raise ValueError(f"unknown keys {sorted(set(req) - keys)}")
        return req

    def do_POST(self) -> None:
        routes = {
            "/predict": self._post_predict,
            "/update_edges": self._post_update_edges,
            "/update_features": self._post_update_features,
        }
        route = routes.get(self.path, self._post_unknown)
        try:
            route()
        except ServingUnavailable as exc:
            # backpressure / deadline / closed: 429 or 503 + Retry-After
            body = {"error": str(exc), "retry_after_s": exc.retry_after_s}
            self._reply(exc.status, body, retry_after_s=exc.retry_after_s)
        except (ValueError, OverflowError) as exc:
            # malformed body / ids / k / pairs (OverflowError: an id too
            # large for the index dtype is out-of-range, not a 500)
            self._reply(400, {"error": f"bad request: {exc}"})
        # audit[broad-except]: answered as a JSON 500, never a traceback page
        except Exception as exc:  # noqa: BLE001
            self._reply(500, {"error": f"internal error: {type(exc).__name__}: {exc}"})

    def _post_unknown(self) -> None:
        self._read_body()  # consumed, so the next request parses
        self._reply(404, {"error": f"unknown path {self.path}"})

    def _post_predict(self) -> None:
        req = self._read_json()
        if "vertices" not in req:
            raise ValueError("missing required key 'vertices'")
        vertices = _vertex_ids(req["vertices"])
        k = req.get("k")
        if k is not None:
            k = _int_field(k, "k")
        svc = self.service

        def run() -> dict:
            # one read: labels and top-k answer the same published version
            logits = svc.predict_logits(vertices)
            resp = {
                "vertices": vertices.tolist(),
                "labels": np.argmax(logits, axis=1).tolist(),
            }
            if k is not None:
                classes, scores = svc.topk_of(logits, k)
                resp["topk"] = [
                    [
                        {"class": int(c), "score": float(s)}
                        for c, s in zip(crow, srow)
                    ]
                    for crow, srow in zip(classes, scores)
                ]
            return resp

        # `k` requests are the heavier class: meter them separately
        endpoint = "predict" if k is None else "topk"
        self._reply(200, self.frontend.call(endpoint, run))

    def _post_update_edges(self) -> None:
        req = self._read_json(keys={"add", "remove"})
        add = _edge_pairs(req.get("add"), "add")
        remove = _edge_pairs(req.get("remove"), "remove")
        stats = self.frontend.update_edges(add=add, remove=remove)
        self._reply(200, {"status": "ok", **stats.to_json()})

    def _post_update_features(self) -> None:
        req = self._read_json(keys={"vertices", "features"})
        if "vertices" not in req or "features" not in req:
            raise ValueError("missing required keys 'vertices' and 'features'")
        vertices = _vertex_ids(req["vertices"])
        rows = _feature_rows(req["features"])
        if rows.shape[0] != vertices.size:
            raise ValueError(
                f"features has {rows.shape[0]} rows for {vertices.size} vertices"
            )
        stats = self.frontend.update_features(vertices, rows)
        self._reply(200, {"status": "ok", **dataclasses.asdict(stats)})


class _HTTPServer(ThreadingHTTPServer):
    """Tracks open connections, so shutdown ends the kept-alive ones."""

    def __init__(self, address, owner: "PredictionServer", verbose: bool):
        super().__init__(address, _PredictionHandler)
        self.service, self.frontend = owner.service, owner.frontend
        self.registry, self.verbose = owner.registry, verbose
        self.closing = False
        self._lock = make_lock("serving.server.connections")
        self._open = set()  # guarded-by: _lock

    def process_request(self, request, client_address):
        with self._lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        with self._lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def shutdown(self) -> None:
        super().shutdown()  # accepts nothing more
        self.closing = True
        # SHUT_RD: an idle handler reads EOF and exits, a busy one replies
        with self._lock:  # held, so no handler closes a socket under us
            for sock in self._open:
                with contextlib.suppress(OSError):  # already gone
                    sock.shutdown(socket.SHUT_RD)


class PredictionServer:
    """``ThreadingHTTPServer`` + :class:`ServingFrontend` owning a service.

    Handler threads parse and execute; the frontend's admission gate
    bounds how many reads run and wait.  Pass a pre-built ``frontend`` to control
    admission limits and deadlines, or let the server build one with
    defaults.
    """

    def __init__(
        self,
        service: PredictionService,
        host: str = "127.0.0.1",
        port: int = 8080,
        verbose: bool = False,
        frontend: Optional[ServingFrontend] = None,
    ):
        self.service = service
        self.frontend = (
            frontend if frontend is not None else ServingFrontend(service)
        )
        if self.frontend.service is not service:
            raise ValueError("frontend must wrap the same service")
        # one unified registry behind GET /metrics?format=prom: serving
        # counters, feature store, tracer, AP timer, comm worlds
        self.registry = serving_registry(
            frontend=self.frontend, tracer=self.frontend.tracer
        )
        self.httpd = _HTTPServer((host, port), self, verbose)
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """Bound ``(host, port)`` — resolves port 0 to the real one."""
        return self.httpd.server_address[:2]

    def serve_forever(self) -> None:  # pragma: no cover - interactive path
        self.httpd.serve_forever()

    def start_background(self) -> "PredictionServer":
        """Serve on a daemon thread (tests, embedded use)."""
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    def shutdown(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self.frontend.close()
        self.service.close()
