"""Every ``TrainConfig`` field and ``REPRO_*`` variable is a setting
some caller uses.

A static scan of ``src/`` and ``benchmarks/`` (the frozen suite
included; ``tests/`` and ``examples/`` are not callers here) for the
sites that set a field: a keyword or a ``**{...}`` key of a
``TrainConfig(...)`` call, or ``cfg.<field> = value``.  A site sets a
field only with a value other than its default — a literal equal to the
default is no second value, any other expression is.  A field no site
sets is an option with one value in use: it becomes a constant, or the
table below names what owns it.  The options counterpart of
``test_module_owners.py``.

The environment gets the same rule: every ``REPRO_*`` variable
``src/repro`` reads must be set to a value other than its default by
the CI workflow or by ``benchmarks/`` outside its tests, or be named in
the table.
"""

import ast
import dataclasses
import os
import re

import pytest

from repro.core import TrainConfig

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCANNED = ("src", "benchmarks")

#: field or variable -> why it stays although no caller sets a second value
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


def test_owner_table_names_live_settings_only():
    """An owner entry for a field or variable that is gone, or that a
    caller now sets, is stale."""
    assert set(OWNERS) <= set(DEFAULTS) | set(ENV_READS)
    stale = set(OWNERS) & (set(SETTERS) | set(ENV_SETTERS))
    assert not stale, sorted(stale)


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


# -- REPRO_* environment variables -------------------------------------------------

#: a string constant that is exactly a variable name is a read site
ENV_NAME = re.compile(r"REPRO_[A-Z0-9_]+")
#: ``NAME=value`` (shell, keyword) or ``"NAME": value`` (a dict entry)
ENV_ASSIGN = re.compile(r"\b(REPRO_[A-Z0-9_]+)[\"']?[ \t]*[=:][ \t]*[\"']?([^\"'\s,)}]*)")
#: a variable's default value other than empty or "0" (which leave every
#: variable at its default)
ENV_DEFAULTS = {"REPRO_NUM_THREADS": "1"}
CI = os.path.join(".github", "workflows", "ci.yml")


def _python_files(top):
    for dirpath, dirnames, files in os.walk(os.path.join(REPO, top)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _env_reads():
    """variable -> ``path:line`` of every ``src/repro`` site naming it
    as a string constant."""
    found = {}
    for path in _python_files(os.path.join("src", "repro")):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and ENV_NAME.fullmatch(node.value)
            ):
                site = f"{os.path.relpath(path, REPO)}:{node.lineno}"
                found.setdefault(node.value, []).append(site)
    return found


def _second_env_values(text):
    """The variables ``text`` sets to a value other than their default."""
    for match in ENV_ASSIGN.finditer(text):
        name, value = match.groups()
        if value not in ("", "0") and value != ENV_DEFAULTS.get(name):
            yield name


def _env_setters():
    """variable -> the non-test files that set it to a second value."""
    paths = [os.path.join(REPO, CI)] + [
        path for path in _python_files("benchmarks")
        if not os.path.basename(path).startswith(("test_", "conftest"))
    ]
    found = {}
    for path in paths:
        with open(path) as fh:
            for name in _second_env_values(fh.read()):
                found.setdefault(name, set()).add(os.path.relpath(path, REPO))
    return found


ENV_READS = _env_reads()
ENV_SETTERS = _env_setters()


@pytest.mark.parametrize("name", sorted(ENV_READS))
def test_env_variable_has_a_second_value_or_an_owner(name):
    assert name in ENV_SETTERS or name in OWNERS, (
        f"{name} (read at {', '.join(ENV_READS[name])}): neither CI nor "
        "benchmarks/ outside its tests sets a value other than its default; "
        "make it a constant or name its owner"
    )


def test_env_scan_parses_each_kind_of_site():
    """A shell assignment, a keyword and a dict entry set a variable; a
    default value, a bare mention or a name in a tuple sets nothing."""
    text = """
        PYTHONPATH=src REPRO_SANITIZE=1 REPRO_NUM_THREADS=${{ matrix.n }} \\
        env=dict(os.environ, REPRO_TRACE="1")
        {"REPRO_SANITIZE_REPORT": os.path.join(tmp, "r.json")}
        REPRO_NUM_THREADS=1 REPRO_TRACE=0 REPRO_X=
        # with REPRO_Y routing every pass
        ("REPRO_NUM_THREADS", "REPRO_TRACE")
    """
    assert sorted(_second_env_values(text)) == [
        "REPRO_NUM_THREADS", "REPRO_SANITIZE", "REPRO_SANITIZE_REPORT", "REPRO_TRACE",
    ]


def test_env_scan_finds_the_known_reads_and_setters():
    """The read side sees the tracer's, the engine's and the sanitizer's
    variables; the set side sees CI and the suite's traced server."""
    assert any(s.startswith("src/repro/obs/trace.py:") for s in ENV_READS["REPRO_TRACE"])
    assert any(s.startswith("src/repro/kernels/engine.py:")
               for s in ENV_READS["REPRO_NUM_THREADS"])
    assert {"REPRO_SANITIZE", "REPRO_SANITIZE_REPORT"} <= set(ENV_READS)
    assert {CI, os.path.join("benchmarks", "suite", "suite_serve.py")} <= ENV_SETTERS["REPRO_TRACE"]
