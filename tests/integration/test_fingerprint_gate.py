"""``benchmarks/trainer_fingerprint.py --compare``: the CI gate's rule.

One numerics epoch ⇒ byte for byte.  Across a ``NUMERICS_EPOCH`` bump ⇒
losses within ``LOSS_RTOL``, float digests may move, and everything else
— counters, accuracies, ``libra/*``, the float64-feature ``f64/*``
entries — is still exact.  The rule is exercised on small hand-made
fingerprints; CI runs it on the real ones.
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
        ("brand/new", lambda h: h.update({"brand/new": _trainer_entry()})),
    ],
)
def test_epoch_bump_still_fails_everything_exact(gate, tmp_path, capsys, where, edit):
    head = _bumped()
    edit(head)
    status, out = _verdict(gate, tmp_path, BASE, head, capsys)
    assert status == 1 and f"FAILED {where}" in out
