"""Every ``TrainConfig`` field is a setting some caller uses.

A static scan of ``src/`` and ``benchmarks/`` (the frozen suite
included; ``tests/`` and ``examples/`` are not callers here) for the
sites that set a field: a keyword or a ``**{...}`` key of a
``TrainConfig(...)`` call, or ``cfg.<field> = value``.  A site sets a
field only with a value other than its default — a literal equal to the
default is no second value, any other expression is.  A field no site
sets is an option with one value in use: it becomes a constant, or the
table below names what owns it.  The options counterpart of
``test_module_owners.py``.
"""

import ast
import dataclasses
import os

import pytest

from repro.core import TrainConfig

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCANNED = ("src", "benchmarks")

#: field -> why it stays although no caller sets a second value
OWNERS = {}

DEFAULTS = {f.name: f.default for f in dataclasses.fields(TrainConfig)}


def _callee(func):
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _assignments(node):
    """``(field, value node)`` for each field ``node`` sets."""
    if isinstance(node, ast.Call) and _callee(node.func) == "TrainConfig":
        for kw in node.keywords:
            if kw.arg is not None:
                yield kw.arg, kw.value
            elif isinstance(kw.value, ast.Dict):
                for key, value in zip(kw.value.keys, kw.value.values):
                    if isinstance(key, ast.Constant):
                        yield key.value, value
    elif isinstance(node, ast.Assign):
        for target in node.targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id in ("cfg", "config")
            ):
                yield target.attr, node.value


def _second_values(node):
    """The fields ``node`` sets to a value other than their default."""
    for field, value in _assignments(node):
        if not (isinstance(value, ast.Constant) and value.value == DEFAULTS.get(field)):
            yield field


def _setters():
    """field -> ``path:line`` of every site that sets it to a second value."""
    found = {}
    for top in SCANNED:
        for dirpath, dirnames, files in os.walk(os.path.join(REPO, top)):
            dirnames[:] = [d for d in dirnames if d != "__pycache__"]
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                with open(path) as fh:
                    tree = ast.parse(fh.read(), path)
                for node in ast.walk(tree):
                    for field in _second_values(node):
                        site = f"{os.path.relpath(path, REPO)}:{node.lineno}"
                        found.setdefault(field, []).append(site)
    return found


SETTERS = _setters()


@pytest.mark.parametrize("field", sorted(DEFAULTS))
def test_field_has_a_second_value_or_an_owner(field):
    assert field in SETTERS or field in OWNERS, (
        f"TrainConfig.{field}: no caller outside tests/ and examples/ sets a "
        f"value other than {DEFAULTS[field]!r}; make it a constant or name its owner"
    )


def test_owner_table_names_live_fields_only():
    """An owner entry for a field that is gone, or that a caller now
    sets, is stale."""
    assert set(OWNERS) <= set(DEFAULTS)
    assert not set(OWNERS) & set(SETTERS), sorted(set(OWNERS) & set(SETTERS))


def test_a_default_literal_is_no_second_value():
    """A literal equal to the default sets nothing; any other literal or
    a run-time expression does, as a keyword or a ``**{...}`` key."""
    call = ast.parse(
        'TrainConfig(seed=0, eval_every=0, learning_rate=args.lr, **{"model": "gcn"})'
    ).body[0].value
    assert list(_second_values(call)) == ["eval_every", "learning_rate", "model"]


def test_scan_finds_the_known_setters():
    """The scan sees the three kinds of site: a CLI keyword, a
    benchmark keyword, and ``for_dataset``'s attribute assignment."""
    assert any(s.startswith("src/repro/cli.py:") for s in SETTERS["learning_rate"])
    assert any(s.startswith("benchmarks/") for s in SETTERS["compression"])
    assert any(s.startswith("src/repro/core/config.py:") for s in SETTERS["num_layers"])
