"""CLI smoke tests (driven through main(), no subprocess)."""

import re

import pytest

from repro.cli import build_parser, main


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
