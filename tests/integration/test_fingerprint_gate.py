"""``benchmarks/trainer_fingerprint.py --compare``: the CI gate's rule.

One numerics epoch ⇒ byte for byte.  Across a ``NUMERICS_EPOCH`` bump ⇒
losses within ``LOSS_RTOL``, float digests may move, and everything else
— counters, accuracies, ``libra/*``, the dataset bytes ``graph/*``, the
float64-feature ``f64/*`` entries — is still exact.  A ``SAMPLER_EPOCH``
bump lets ``sampler/*`` and the four sampled trainers move, the trainers inside stated bounds,
and nothing else.  A numerics bump that moves fewer bytes on purpose may
lower the byte counts of ``narrow/*`` entries, and only those.  The rule
is exercised on small hand-made fingerprints; CI runs it on the real
ones.
"""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "benchmarks" / "trainer_fingerprint.py"


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("trainer_fingerprint", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _trainer_entry():
    return {
        "losses": ["2.5", "1.25"],
        "state": "aaa",
        "grads": "bbb",
        "accs": [["0.5", "0.5", "0.5"]],
        "comm_bytes": [1024, 1024],
        "rf": "1.5",
    }


BASE = {
    "numerics_epoch": 1,
    "cd-0/sage/sim/P2": _trainer_entry(),
    "f64/cd-0/sage/sim/P2": _trainer_entry(),
    "minibatch_default": ["3.0", "2.0"],
    "libra/P2": {"member": "ccc", "rf": "1.5"},
    "graph/reddit": {"graph": "ggg", "reverse": "rrr"},
}


def _verdict(gate, tmp_path, base, head, capsys):
    paths = []
    for name, doc in (("base", base), ("head", head)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(doc))
    status = gate.compare(*paths)
    return status, capsys.readouterr().out


def _nudged(loss, rel):
    return repr(float(loss) * (1 + rel))


def test_same_epoch_is_byte_for_byte(gate, tmp_path, capsys):
    assert _verdict(gate, tmp_path, BASE, BASE, capsys)[0] == 0
    head = copy.deepcopy(BASE)
    head["cd-0/sage/sim/P2"]["losses"][1] = _nudged("1.25", 1e-7)
    status, out = _verdict(gate, tmp_path, BASE, head, capsys)
    assert status == 1 and "FAILED cd-0/sage/sim/P2" in out
    # a fingerprint that records no epoch is epoch 1
    old = {k: v for k, v in BASE.items() if k != "numerics_epoch"}
    assert _verdict(gate, tmp_path, old, BASE, capsys)[0] == 0


def _bumped():
    head = copy.deepcopy(BASE)
    head["numerics_epoch"] = 2
    entry = head["cd-0/sage/sim/P2"]
    entry["losses"] = [_nudged(x, 2e-7) for x in entry["losses"]]
    entry["state"], entry["grads"] = "xxx", "yyy"
    head["minibatch_default"] = [_nudged(x, -2e-7) for x in head["minibatch_default"]]
    return head


def test_epoch_bump_bounds_losses_and_lists_moved_digests(gate, tmp_path, capsys):
    status, out = _verdict(gate, tmp_path, BASE, _bumped(), capsys)
    assert status == 0
    assert "numerics epoch 1 -> 2" in out
    assert "moved  cd-0/sage/sim/P2: grads" in out
    assert "moved  cd-0/sage/sim/P2: state" in out
    assert out.rstrip().endswith("ok")


@pytest.mark.parametrize(
    "where, edit",
    [
        ("cd-0/sage/sim/P2: losses", lambda h: h["cd-0/sage/sim/P2"].update(losses=["2.5", "1.2501"])),
        ("cd-0/sage/sim/P2: losses", lambda h: h["cd-0/sage/sim/P2"].update(losses=["2.5"])),
        ("cd-0/sage/sim/P2: comm_bytes", lambda h: h["cd-0/sage/sim/P2"].update(comm_bytes=[1024, 2048])),
        ("cd-0/sage/sim/P2: accs", lambda h: h["cd-0/sage/sim/P2"].update(accs=[["0.5", "0.5", "0.25"]])),
        ("cd-0/sage/sim/P2: rf", lambda h: h["cd-0/sage/sim/P2"].update(rf="1.75")),
        ("minibatch_default: losses", lambda h: h.update(minibatch_default=["3.0", "2.1"])),
        ("f64/cd-0/sage/sim/P2", lambda h: h["f64/cd-0/sage/sim/P2"].update(state="moved")),
        ("f64/cd-0/sage/sim/P2", lambda h: h["f64/cd-0/sage/sim/P2"].update(losses=["2.5", _nudged("1.25", 1e-7)])),
        ("libra/P2", lambda h: h["libra/P2"].update(member="moved")),
        ("libra/P2", lambda h: h.pop("libra/P2")),
        ("graph/reddit", lambda h: h["graph/reddit"].update(reverse="moved")),
        ("graph/reddit", lambda h: h.pop("graph/reddit")),
        ("brand/new", lambda h: h.update({"brand/new": _trainer_entry()})),
    ],
)
def test_epoch_bump_still_fails_everything_exact(gate, tmp_path, capsys, where, edit):
    head = _bumped()
    edit(head)
    status, out = _verdict(gate, tmp_path, BASE, head, capsys)
    assert status == 1 and f"FAILED {where}" in out


# -- narrow/*: a bump that moves fewer bytes on purpose ----------------------------


def _dist_entry():
    return {
        **_trainer_entry(),
        "total_comm_bytes": 4096,
        "peak_inflight": 512,
        "bytes_sent": [1024, 1024],
        "messages_sent": [6, 6],
        "collective_calls": {"all_reduce": 8},
        "final": ["0.5", "0.5"],
    }


NARROW_BASE = {
    **BASE,
    "cd-0/sage/sim/P2": _dist_entry(),
    "f64/cd-0/sage/sim/P2": _dist_entry(),
    "narrow/cd-0/sage/sim/P2": _dist_entry(),
}


def _narrowed():
    """What aggregating on the narrower side of W does to a fingerprint."""
    head = copy.deepcopy(NARROW_BASE)
    head["numerics_epoch"] = 2
    head["narrow/cd-0/sage/sim/P2"].update(
        losses=[_nudged("2.5", 2e-7), "1.25"], state="xxx", comm_bytes=[768, 768],
        total_comm_bytes=3072, peak_inflight=384, bytes_sent=[768, 1024],
    )
    return head


def test_narrow_entries_may_move_fewer_bytes_across_a_bump(gate, tmp_path, capsys):
    status, out = _verdict(gate, tmp_path, NARROW_BASE, _narrowed(), capsys)
    assert status == 0 and "FAILED" not in out
    assert "moved  narrow/cd-0/sage/sim/P2: comm_bytes [1024, 1024] -> [768, 768]" in out
    assert "moved  narrow/cd-0/sage/sim/P2: total_comm_bytes 4096 -> 3072" in out
    assert "moved  narrow/cd-0/sage/sim/P2: peak_inflight 512 -> 384" in out
    assert "moved  narrow/cd-0/sage/sim/P2: bytes_sent [1024, 1024] -> [768, 1024]" in out
    # at one epoch nothing may move, narrow/* or not
    head = _narrowed()
    head["numerics_epoch"] = 1
    status, out = _verdict(gate, tmp_path, NARROW_BASE, head, capsys)
    assert status == 1 and "FAILED narrow/cd-0/sage/sim/P2" in out


@pytest.mark.parametrize(
    "where, name, edit",
    [
        ("narrow/cd-0/sage/sim/P2: total_comm_bytes", "narrow/cd-0/sage/sim/P2", dict(total_comm_bytes=4097)),
        ("narrow/cd-0/sage/sim/P2: comm_bytes", "narrow/cd-0/sage/sim/P2", dict(comm_bytes=[768, 1025])),
        ("narrow/cd-0/sage/sim/P2: comm_bytes", "narrow/cd-0/sage/sim/P2", dict(comm_bytes=[768])),
        ("narrow/cd-0/sage/sim/P2: messages_sent", "narrow/cd-0/sage/sim/P2", dict(messages_sent=[6, 5])),
        ("narrow/cd-0/sage/sim/P2: collective_calls", "narrow/cd-0/sage/sim/P2", dict(collective_calls={"all_reduce": 7})),
        ("narrow/cd-0/sage/sim/P2: rf", "narrow/cd-0/sage/sim/P2", dict(rf="1.25")),
        ("narrow/cd-0/sage/sim/P2: accs", "narrow/cd-0/sage/sim/P2", dict(accs=[["0.5", "0.5", "0.25"]])),
        ("narrow/cd-0/sage/sim/P2: final", "narrow/cd-0/sage/sim/P2", dict(final=["0.5", "0.25"])),
        ("narrow/cd-0/sage/sim/P2: losses", "narrow/cd-0/sage/sim/P2", dict(losses=["2.5", "1.2501"])),
        ("cd-0/sage/sim/P2: total_comm_bytes", "cd-0/sage/sim/P2", dict(total_comm_bytes=3072)),
        ("cd-0/sage/sim/P2: bytes_sent", "cd-0/sage/sim/P2", dict(bytes_sent=[768, 1024])),
        ("f64/cd-0/sage/sim/P2", "f64/cd-0/sage/sim/P2", dict(comm_bytes=[768, 768])),
    ],
)
def test_narrow_rule_lets_nothing_else_move(gate, tmp_path, capsys, where, name, edit):
    head = _narrowed()
    head[name].update(edit)
    status, out = _verdict(gate, tmp_path, NARROW_BASE, head, capsys)
    assert status == 1 and f"FAILED {where}" in out


# -- the sampler epoch: which neighbours a seed draws ------------------------------

SAMPLED_BASE = {
    **BASE,
    "sampler_epoch": 1,
    "single/sage": {"losses": ["2.0", "1.0"], "state": "ddd", "final": ["0.5", "0.5"]},
    "libra/P4": {"member": "eee", "rf": "2.5"},
    "minibatch": {"losses": ["3.0", "2.0"], "state": "fff", "final": ["0.5", "0.6"],
                  "work": "1000.0"},
    "dist_minibatch": {"losses": ["3.0", "2.5"], "state": "ggg", "comm_bytes": [64, 64],
                       "final": ["0.4", "0.5"], "collective_calls": {"allreduce": 12}},
    "sampler/5-5/seeds0": "hhh",
}


def _resampled():
    """What a new sampler legitimately does to a fingerprint."""
    head = copy.deepcopy(SAMPLED_BASE)
    head["sampler_epoch"] = 2
    head["sampler/5-5/seeds0"] = "moved"
    head["minibatch"].update(losses=[_nudged("3.0", 0.01), _nudged("2.0", -0.015)],
                             state="moved", final=["0.55", "0.52"], work="990.0")
    head["dist_minibatch"].update(losses=[_nudged("3.0", -0.01), "2.5"], state="moved",
                                  comm_bytes=[60, 68])
    head["minibatch_default"] = [_nudged("3.0", 0.005), _nudged("2.0", 0.005)]
    return head


def test_same_sampler_epoch_is_byte_for_byte(gate, tmp_path, capsys):
    assert _verdict(gate, tmp_path, SAMPLED_BASE, SAMPLED_BASE, capsys)[0] == 0
    for name in ("sampler/5-5/seeds0", "minibatch", "minibatch_default"):
        head = _resampled()
        head["sampler_epoch"] = 1
        status, out = _verdict(gate, tmp_path, SAMPLED_BASE, head, capsys)
        assert status == 1 and f"FAILED {name}" in out
    # a fingerprint that records no sampler epoch is epoch 1
    old = {k: v for k, v in SAMPLED_BASE.items() if k != "sampler_epoch"}
    assert _verdict(gate, tmp_path, old, SAMPLED_BASE, capsys)[0] == 0


def test_sampler_bump_lists_the_moved_sampled_entries(gate, tmp_path, capsys):
    status, out = _verdict(gate, tmp_path, SAMPLED_BASE, _resampled(), capsys)
    assert status == 0
    assert "sampler epoch 1 -> 2" in out
    for name in ("sampler/5-5/seeds0", "minibatch", "dist_minibatch", "minibatch_default"):
        assert f"moved  {name}\n" in out
    assert "FAILED" not in out and out.rstrip().endswith("ok")


@pytest.mark.parametrize(
    "where, edit",
    [
        ("single/sage", lambda h: h["single/sage"].update(losses=["2.0", _nudged("1.0", 1e-7)])),
        ("libra/P4", lambda h: h["libra/P4"].update(member="moved")),
        ("graph/reddit", lambda h: h["graph/reddit"].update(graph="moved")),
        ("cd-0/sage/sim/P2", lambda h: h["cd-0/sage/sim/P2"].update(state="moved")),
        ("sampler/5-5/seeds0", lambda h: h.pop("sampler/5-5/seeds0")),
        ("minibatch: losses", lambda h: h["minibatch"].update(losses=["3.0", "2.05"])),
        ("minibatch: losses", lambda h: h["minibatch"].update(losses=["3.0"])),
        ("minibatch: losses", lambda h: h["minibatch"].update(losses=["3.0", "nan"])),
        ("minibatch: final", lambda h: h["minibatch"].update(final=["0.5", "0.45"])),
        ("minibatch: final", lambda h: h["minibatch"].update(final=["0.55"])),
        ("minibatch: fields", lambda h: h["minibatch"].pop("work")),
        ("dist_minibatch: collective_calls",
         lambda h: h["dist_minibatch"].update(collective_calls={"allreduce": 11})),
    ],
)
def test_sampler_bump_still_fails_everything_else(gate, tmp_path, capsys, where, edit):
    head = _resampled()
    edit(head)
    status, out = _verdict(gate, tmp_path, SAMPLED_BASE, head, capsys)
    assert status == 1 and f"FAILED {where}" in out


def test_sampled_curve_must_still_fall(gate):
    assert gate._sampled_failures(["3.0", "2.99"], ["2.99", "2.98"]) == []
    assert gate._sampled_failures(["3.0", "2.99"], ["2.98", "2.99"]) == ["losses"]
