"""CLI smoke tests (driven through main(), no subprocess)."""

import re

import pytest

from repro.cli import _build_service, _parse_mix, build_parser, main


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
    for command in ("train", "sample", "serve", "loadgen", "trace"):
        argv = [command, "--feature-store", "mmap"]
        if command in ("serve", "loadgen", "trace"):
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


def test_loadgen_cli(capsys, tmp_path):
    ckpt = str(tmp_path / "lg.npz")
    base = ["--dataset", "reddit", "--scale", "0.05"]
    assert main(["train", *base, "--epochs", "2", "--checkpoint", ckpt]) == 0
    capsys.readouterr()
    rc = main(
        ["loadgen", *base, "--checkpoint", ckpt, "--rate", "50",
         "--duration", "0.5", "--arrival", "bursty", "--clients", "4",
         "--mix", "predict=0.8,topk=0.2"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "offered" in out and "achieved" in out and "p99" in out
    assert "predict" in out and "topk" in out


def test_loadgen_cli_rejects_bad_mix(capsys, tmp_path):
    ckpt = str(tmp_path / "lgbad.npz")
    base = ["--dataset", "reddit", "--scale", "0.05"]
    rc = main(["loadgen", *base, "--checkpoint", ckpt, "--mix", "nonsense"])
    assert rc == 2
    assert "bad --mix" in capsys.readouterr().err


@pytest.fixture(scope="module")
def load_ckpt(tmp_path_factory):
    ckpt = str(tmp_path_factory.mktemp("load") / "lg.npz")
    assert main(["train", "--dataset", "reddit", "--scale", "0.05",
                 "--epochs", "1", "--checkpoint", ckpt]) == 0
    return ckpt


def _load_run(command, ckpt, tmp_path, *extra):
    argv = [command, "--dataset", "reddit", "--scale", "0.05",
            "--checkpoint", ckpt, "--rate", "40", "--duration", "0.3", *extra]
    if command == "trace":
        argv += ["--out", str(tmp_path / "t.json")]
    return main(argv)


@pytest.mark.parametrize("command", ["loadgen", "trace"])
def test_load_cli_drives_feature_updates(command, load_ckpt, tmp_path, capsys):
    """``update_features`` traffic gets the dataset's feature width."""
    rc = _load_run(command, load_ckpt, tmp_path, "--mix", "predict=1,update_features=1")
    assert rc == 0
    out = capsys.readouterr().out
    assert "requests over" in out
    if command == "loadgen":
        assert "update_features" in out


@pytest.mark.parametrize(
    "command, extra, message",
    [
        ("loadgen", ["--mix", "foo=1"], "unknown endpoints"),
        ("trace", ["--mix", "foo=1"], "unknown endpoints"),
        ("loadgen", ["--workers", "0"], "num_workers"),
        ("trace", ["--workers", "0"], "num_workers"),
        ("trace", ["--buffer", "0"], "capacity"),
    ],
)
def test_load_cli_rejects_bad_settings(command, extra, message, load_ckpt,
                                       tmp_path, capsys):
    assert _load_run(command, load_ckpt, tmp_path, *extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


def test_load_cli_mix_help_names_every_endpoint():
    for command in ("loadgen", "trace"):
        sub = build_parser()._subparsers._group_actions[0].choices[command]
        help_text = next(a.help for a in sub._actions if a.dest == "mix")
        for endpoint in ("predict", "topk", "update_edges", "update_features"):
            assert endpoint in help_text


@pytest.mark.parametrize("spec", ["nonsense", "=1", "predict=", "predict=x"])
def test_parse_mix_rejects_malformed_entries(spec):
    with pytest.raises(ValueError):
        _parse_mix(spec)


def test_parse_mix_reads_weights():
    assert _parse_mix(None) is None
    assert _parse_mix("predict=0.7, topk=0.3") == {"predict": 0.7, "topk": 0.3}


@pytest.fixture
def cli_server(load_ckpt):
    """The service ``repro serve`` builds from ``load_ckpt``, on a thread."""
    from repro.serving import PredictionServer

    args = build_parser().parse_args(
        ["serve", "--dataset", "reddit", "--scale", "0.05", "--checkpoint", load_ckpt]
    )
    _, service = _build_service(args)
    server = PredictionServer(service, port=0).start_background()
    host, port = server.address
    yield f"http://{host}:{port}"
    server.shutdown()


@pytest.mark.parametrize(
    "endpoint", ["predict", "topk", "update_edges", "update_features"]
)
def test_loadgen_url_drives_each_endpoint(endpoint, cli_server, capsys):
    """``--url`` traffic gets the server's vertex count and feature width
    from ``GET /stats``; every request is served."""
    rc = main(["loadgen", "--url", cli_server, "--rate", "40", "--duration", "0.3",
               "--mix", f"{endpoint}=1"])
    assert rc == 0
    out = capsys.readouterr().out
    row = next(line for line in out.splitlines() if line.split()[:1] == [endpoint])
    ok, requests = map(int, re.search(r"(\d+) ok /\s+(\d+)", row).groups())
    assert ok == requests > 0
    assert "errors: 0" in out and "bad requests: 0" in out


def test_trace_url_saves_the_servers_trace(cli_server, tmp_path, capsys):
    import json

    from repro.obs.trace import validate_chrome_trace

    out_path = tmp_path / "server.json"
    assert main(["trace", "--url", cli_server, "--out", str(out_path)]) == 0
    with open(out_path) as fh:
        n = validate_chrome_trace(json.load(fh))
    assert f"{n} trace event(s) from {cli_server}/trace" in capsys.readouterr().out


def _closed_port():
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


@pytest.mark.parametrize("command", ["loadgen", "trace"])
def test_load_cli_reports_an_unreachable_url(command, tmp_path, capsys):
    argv = [command, "--url", f"http://127.0.0.1:{_closed_port()}"]
    if command == "trace":
        argv += ["--out", str(tmp_path / "t.json")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", ["loadgen", "trace"])
def test_load_cli_reports_a_missing_checkpoint(command, tmp_path, capsys):
    missing = str(tmp_path / "absent.npz")
    assert _load_run(command, missing, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "absent.npz" in err


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


def test_loadgen_parser_requires_a_target():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["loadgen", "--rate", "10"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(
            ["loadgen", "--url", "http://x", "--checkpoint", "c.npz"]
        )


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
