"""CLI smoke tests (driven through main(), no subprocess)."""

import re

import pytest

from repro.cli import _build_service, build_parser, main


def test_info(capsys):
    assert main(["info", "--dataset", "reddit", "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "reddit" in out and "density" in out


def test_partition(capsys):
    assert (
        main(
            [
                "partition",
                "--dataset",
                "reddit",
                "--scale",
                "0.05",
                "--partitions",
                "3",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "replication factor" in out


def test_partition_baselines(capsys):
    for p in ("random", "hash"):
        assert (
            main(
                [
                    "partition",
                    "--dataset",
                    "reddit",
                    "--scale",
                    "0.05",
                    "--partitioner",
                    p,
                ]
            )
            == 0
        )


def test_train_single(capsys, tmp_path):
    ckpt = str(tmp_path / "m.npz")
    rc = main(
        [
            "train",
            "--dataset",
            "reddit",
            "--scale",
            "0.05",
            "--epochs",
            "3",
            "--checkpoint",
            ckpt,
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "final test accuracy" in out
    import os

    assert os.path.exists(ckpt)


def test_train_distributed(capsys):
    rc = main(
        [
            "train",
            "--dataset",
            "reddit",
            "--scale",
            "0.05",
            "--epochs",
            "3",
            "--partitions",
            "2",
            "--algorithm",
            "cd-2",
            "--compression",
            "bf16",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "replication factor" in out


def test_sample(capsys):
    rc = main(
        [
            "sample",
            "--dataset",
            "reddit",
            "--scale",
            "0.05",
            "--epochs",
            "2",
            "--batch-size",
            "64",
            "--fanouts",
            "5",
            "5",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "sampled work" in out
    # progress is fit_epochs' line at the constant eval_every=5
    assert re.search(r"^epoch +0 loss \S+ val \S+ test \S+$", out, re.M)


def test_train_resume(capsys, tmp_path):
    ckpt = str(tmp_path / "r.npz")
    base = ["--dataset", "reddit", "--scale", "0.05"]
    assert main(["train", *base, "--epochs", "2", "--checkpoint", ckpt]) == 0
    capsys.readouterr()
    rc = main(["train", *base, "--epochs", "4", "--resume", ckpt])
    assert rc == 0
    out = capsys.readouterr().out
    assert "resumed from epoch 2" in out
    assert "final test accuracy" in out


def test_train_resume_rejects_distributed(capsys, tmp_path):
    ckpt = str(tmp_path / "r.npz")
    base = ["--dataset", "reddit", "--scale", "0.05"]
    assert main(["train", *base, "--epochs", "2", "--checkpoint", ckpt]) == 0
    rc = main(
        ["train", *base, "--epochs", "4", "--resume", ckpt, "--partitions", "2"]
    )
    assert rc == 2
    assert "--resume" in capsys.readouterr().err


def test_predict_cli(capsys, tmp_path):
    ckpt = str(tmp_path / "p.npz")
    base = ["--dataset", "reddit", "--scale", "0.05"]
    assert main(["train", *base, "--epochs", "2", "--checkpoint", ckpt]) == 0
    capsys.readouterr()
    rc = main(
        ["predict", *base, "--checkpoint", ckpt, "--vertices", "0,5,9", "--k", "2"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("vertex") == 3 and "top2" in out


def test_predict_cli_bad_vertices(capsys, tmp_path):
    ckpt = str(tmp_path / "b.npz")
    base = ["--dataset", "reddit", "--scale", "0.05"]
    assert main(["train", *base, "--epochs", "1", "--checkpoint", ckpt]) == 0
    rc = main(["predict", *base, "--checkpoint", ckpt, "--vertices", "zero"])
    assert rc == 2


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_serve_parser_accepts_options():
    args = build_parser().parse_args(
        ["serve", "--checkpoint", "c.npz", "--port", "0",
         "--workers", "2", "--max-queue", "32", "--request-timeout", "5"]
    )
    assert args.command == "serve"
    assert args.workers == 2 and args.max_queue == 32
    assert args.request_timeout == 5.0
    # reads are table rows: there is no cache or batcher to configure;
    # every update is a row-subset refresh: there is no threshold either
    for flag in ("--cache-size", "--max-batch", "--max-wait-ms", "--full-threshold"):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--checkpoint", "c.npz", flag, "1"])


def test_feature_store_flags_have_no_hot_set_knob(capsys, tmp_path):
    """The mmap tier reads straight from the mapped file: there is no
    hot-set fraction to size, and a run prints the rows it read."""
    for command in ("train", "sample", "serve"):
        argv = [command, "--feature-store", "mmap"]
        if command == "serve":
            argv += ["--checkpoint", "c.npz"]
        assert build_parser().parse_args(argv).feature_store == "mmap"
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + ["--hot-fraction", "0.1"])
    capsys.readouterr()
    assert main(["sample", "--dataset", "reddit", "--scale", "0.05", "--epochs", "1",
                 "--feature-store", "mmap", "--store-dir", str(tmp_path / "f")]) == 0
    out = capsys.readouterr().out
    assert "mmap tier at" in out and "rows read from the mmap tier" in out
    assert "hot set" not in out and "hit rate" not in out


@pytest.fixture(scope="module")
def load_ckpt(tmp_path_factory):
    ckpt = str(tmp_path_factory.mktemp("load") / "lg.npz")
    assert main(["train", "--dataset", "reddit", "--scale", "0.05",
                 "--epochs", "1", "--checkpoint", ckpt]) == 0
    return ckpt


def _serve(load_ckpt, tracer=None):
    """The service ``repro serve`` builds from ``load_ckpt``, behind a
    frontend with ``tracer`` (the process default when ``None``), on a
    thread."""
    from repro.serving import PredictionServer, ServingFrontend

    args = build_parser().parse_args(
        ["serve", "--dataset", "reddit", "--scale", "0.05", "--checkpoint", load_ckpt]
    )
    _, service = _build_service(args)
    frontend = ServingFrontend(service, tracer=tracer)
    return PredictionServer(service, port=0, frontend=frontend).start_background()


@pytest.fixture
def cli_server(load_ckpt):
    server = _serve(load_ckpt)
    host, port = server.address
    yield f"http://{host}:{port}"
    server.shutdown()


def test_trace_url_saves_the_servers_trace(cli_server, tmp_path, capsys):
    import json

    from repro.obs.trace import validate_chrome_trace

    out_path = tmp_path / "server.json"
    assert main(["trace", "--url", cli_server, "--out", str(out_path)]) == 0
    with open(out_path) as fh:
        n = validate_chrome_trace(json.load(fh))
    assert f"{n} trace event(s) from {cli_server}/trace" in capsys.readouterr().out


def _drive(base, dim, endpoints):
    """One request per endpoint in ``endpoints``, three times over."""
    import json
    import urllib.request

    bodies = {
        "predict": ("/predict", {"vertices": [0, 5, 9]}),
        "topk": ("/predict", {"vertices": [3, 1], "k": 2}),
        "update_edges": ("/update_edges", {"add": [[0, 7]]}),
        "update_features": ("/update_features", {"vertices": [2], "features": [[0.5] * dim]}),
    }
    for _ in range(3):
        for endpoint in endpoints:
            path, body = bodies[endpoint]
            req = urllib.request.Request(
                base + path, data=json.dumps(body).encode(), method="POST",
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(req, timeout=10) as resp:
                assert resp.status == 200


_ROW = re.compile(
    r"^  (\S+)\s+e2e (\S+) ms \| (.*)  \[attributed (\S+), slack (\S+)\]$"
)


def _printed_decomposition(out):
    """``{endpoint: (e2e, {component: mean}, attributed, slack)}`` (ms)
    from the rows ``repro trace`` prints."""
    rows = {}
    for line in out.splitlines():
        match = _ROW.match(line)
        if match:
            name, e2e, parts, attributed, slack = match.groups()
            words = parts.split()
            comps = {c: float(v) for c, v in zip(words[::2], words[1::2])}
            rows[name] = (float(e2e), comps, float(attributed), float(slack))
    return rows


@pytest.mark.parametrize(
    "endpoints",
    [("predict",), ("topk",), ("update_edges",), ("update_features",),
     ("predict", "topk", "update_edges", "update_features")],
    ids=["predict", "topk", "update_edges", "update_features", "mixed"],
)
def test_trace_url_prints_the_servers_decomposition(endpoints, load_ckpt, tmp_path,
                                                    capsys):
    """Every endpoint's row is the server's own ``Tracer.decomposition()``:
    e2e mean, per-component means, attributed sum and slack."""
    from repro.obs.trace import Tracer

    server = _serve(load_ckpt, Tracer(enabled=True))
    host, port = server.address
    base = f"http://{host}:{port}"
    try:
        _drive(base, server.service.engine.features.shape[1], endpoints)
        capsys.readouterr()
        assert main(["trace", "--url", base, "--out", str(tmp_path / "t.json")]) == 0
        want = server.frontend.tracer.decomposition()
    finally:
        server.shutdown()
    got = _printed_decomposition(capsys.readouterr().out)
    assert set(got) == set(want) == set(endpoints)
    for name, dec in want.items():
        e2e, comps, attributed, slack = got[name]
        assert e2e == pytest.approx(dec["e2e"]["mean_ms"], rel=1e-9)
        assert set(comps) == set(dec["components"])
        for component, summary in dec["components"].items():
            assert comps[component] == pytest.approx(summary["mean_ms"], rel=1e-9)
        assert attributed == pytest.approx(dec["component_sum_mean_ms"], rel=1e-9)
        assert slack == pytest.approx(dec["unattributed_mean_ms"], rel=1e-9, abs=1e-12)


def test_trace_url_without_tracing_prints_no_rows(load_ckpt, tmp_path, capsys):
    from repro.obs.trace import Tracer

    server = _serve(load_ckpt, Tracer(enabled=False))
    host, port = server.address
    base = f"http://{host}:{port}"
    try:
        _drive(base, server.service.engine.features.shape[1], ("predict", "topk"))
        capsys.readouterr()
        assert main(["trace", "--url", base, "--out", str(tmp_path / "t.json")]) == 0
    finally:
        server.shutdown()
    out = capsys.readouterr().out
    assert out.startswith("0 trace event(s)")
    assert _printed_decomposition(out) == {} and len(out.splitlines()) == 1


@pytest.fixture
def stub_server():
    """A plain HTTP server answering 200 with ``replies[path]`` (404
    elsewhere); yields ``(base_url, replies)``."""
    import http.server
    import threading

    replies = {}

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_GET(self):
            body = replies.get(self.path)
            self.send_response(404 if body is None else 200)
            self.send_header("Content-Length", str(len(body or b"")))
            self.end_headers()
            self.wfile.write(body or b"")

        def log_message(self, *args):
            pass

    httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}", replies
    httpd.shutdown()
    httpd.server_close()
    thread.join(timeout=10)


@pytest.mark.parametrize(
    "trace, prom",
    [
        (b"not json", None),
        (b'{"hello": 1}', None),
        (b'{"traceEvents": []}', b"repro_requests_total not-a-number\n"),
        (b'{"traceEvents": []}', None),
        (b'{"traceEvents": []}',
         b'repro_request_component_seconds_total{endpoint="predict",component="e2e"} 0.0\n'
         b'repro_request_component_samples_total{endpoint="predict",component="e2e"} 0\n'),
    ],
    ids=["not-json", "not-a-trace", "bad-metrics", "no-metrics", "zero-count"],
)
def test_trace_url_rejects_a_reply_that_is_not_a_trace(trace, prom, stub_server,
                                                        tmp_path, capsys):
    """A 200 whose body is no Chrome trace, or metrics that are no
    exposition text, count zero samples or answer 404, are an ``error:``
    exit 2 and no ``--out`` file."""
    base, replies = stub_server
    replies["/trace"] = trace
    if prom is not None:
        replies["/metrics?format=prom"] = prom
    out_path = tmp_path / "t.json"
    assert main(["trace", "--url", base, "--out", str(out_path)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out_path.exists()


def test_trace_takes_only_url_and_out():
    sub = build_parser()._subparsers._group_actions[0].choices
    assert "loadgen" not in sub
    flags = {f for a in sub["trace"]._actions for f in a.option_strings}
    assert flags == {"-h", "--help", "--url", "--out"}
    with pytest.raises(SystemExit):
        build_parser().parse_args(["trace"])  # --url is required
    with pytest.raises(SystemExit):
        build_parser().parse_args(["loadgen", "--url", "http://x"])


def _closed_port():
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_trace_reports_an_unreachable_url(tmp_path, capsys):
    out_path = tmp_path / "t.json"
    argv = ["trace", "--url", f"http://127.0.0.1:{_closed_port()}", "--out", str(out_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out_path.exists()


def test_serve_lists_its_endpoints_and_stops_on_interrupt(load_ckpt, capsys,
                                                          monkeypatch):
    """``repro serve`` prints where it listens, serves, and shuts down on
    Ctrl-C (raised here from inside its serve loop)."""
    from repro.serving.server import _HTTPServer

    bound = []

    def interrupt(httpd):
        bound.append(httpd.server_address[:2])
        raise KeyboardInterrupt

    monkeypatch.setattr(_HTTPServer, "service_actions", interrupt, raising=False)
    rc = main(["serve", "--dataset", "reddit", "--scale", "0.05",
               "--checkpoint", load_ckpt, "--port", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    host, port = bound[0]
    for path in ("/predict", "/update_edges", "/update_features", "/stats",
                 "/metrics", "/healthz"):
        assert f"http://{host}:{port}{path}" in out
    assert out.startswith("serving reddit") and out.rstrip().endswith("shutting down")


def test_ingest(capsys, tmp_path):
    state = str(tmp_path / "libra_state.npz")
    argv = [
        "ingest", "--dataset", "reddit", "--scale", "0.05",
        "--partitions", "3", "--stream-fraction", "0.3",
        "--chunk-size", "1000", "--state", state,
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "merged view == from-scratch rebuild" in out
    assert "replication" in out and "state written" in out
    # resuming with the same seed picks up the assignment counter
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "resumed LibraState" in out
    assert "merged view == from-scratch rebuild" in out


def test_ingest_resume_rejects_mismatched_seed(capsys, tmp_path):
    state = str(tmp_path / "libra_state.npz")
    base = [
        "ingest", "--dataset", "reddit", "--scale", "0.05",
        "--stream-fraction", "0.3", "--state", state,
    ]
    assert main(base + ["--seed", "0"]) == 0
    capsys.readouterr()
    # a different seed shuffles a different arrival order: the saved
    # assignment counter would resume into the wrong sequence
    assert main(base + ["--seed", "1"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_ingest_reports_corrupt_state_file(capsys, tmp_path):
    state = tmp_path / "libra_state.npz"
    state.write_bytes(b"PK\x03\x04 not a complete archive")
    argv = [
        "ingest", "--dataset", "reddit", "--scale", "0.05", "--state", str(state),
    ]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "libra_state.npz" in err


def test_ingest_validates_arguments(capsys):
    assert main(["ingest", "--scale", "0.05", "--stream-fraction", "1.5"]) == 2
    assert "--stream-fraction" in capsys.readouterr().err
    assert main(["ingest", "--scale", "0.05", "--chunk-size", "0"]) == 2
    assert "--chunk-size" in capsys.readouterr().err
