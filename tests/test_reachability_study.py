"""``benchmarks/studies.py reachability``: its profiler, its function
table, and the owner table it checks unreached functions against.

The study itself runs every entry point (minutes); these tests pin the
pieces it is built from, and keep ``REACHABILITY_OWNERS`` and the
audit's "deleted" rows in step with ``src/``.
"""

import importlib.util
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SCRIPT = REPO / "benchmarks" / "studies.py"
DOC = REPO / "docs" / "reachability.md"


@pytest.fixture(scope="module")
def studies():
    spec = importlib.util.spec_from_file_location("studies", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def functions(studies):
    """``(module, qualname)`` of every ``def`` under ``src/repro``."""
    return {(m, q) for (m, _), (q, _) in studies._reach_functions(str(REPO / "src")).items()}


SAMPLE = '''\
import functools


def plain(x):
    y = x + 1
    return y


@functools.lru_cache()
def decorated(x):
    return x


class Box:
    def method(self):
        def inner():
            return 1

        return inner()
'''


def _sample_tree(tmp_path):
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "sample.py").write_text(SAMPLE)
    return tmp_path / "src"


def test_function_table_counts_body_lines(studies, tmp_path):
    table = studies._reach_functions(str(_sample_tree(tmp_path)))
    assert table == {
        ("sample.py", 4): ("plain", 2),
        # keyed by the first decorator's line, as co_firstlineno is
        ("sample.py", 9): ("decorated", 1),
        # a nested def's lines count once, as its own function
        ("sample.py", 15): ("Box.method", 2),
        ("sample.py", 16): ("Box.method.inner", 1),
    }


def _profiled_run(studies, tmp_path, body):
    src = _sample_tree(tmp_path)
    (src / "sitecustomize.py").write_text(studies._REACH_SITE)
    out = tmp_path / "out"
    out.mkdir()
    env = dict(os.environ, PYTHONPATH=str(src), REACH_OUT=str(out),
               REACH_ROOT=os.path.join(os.path.realpath(src), "repro") + os.sep)
    code = "import repro.sample as s\n" + textwrap.dedent(body)
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
    (dump,) = out.iterdir()
    return {tuple(hit) for hit in json.loads(dump.read_text())}


def test_profiler_records_the_functions_a_run_enters(studies, tmp_path):
    hits = _profiled_run(studies, tmp_path, "s.Box().method()\n")
    # module and class bodies are code objects too; the function table
    # the study joins against has only the defs
    assert {("sample.py", 15), ("sample.py", 16)} <= hits
    assert not {("sample.py", 4), ("sample.py", 9)} & hits


def test_profiler_dumps_on_os_exit(studies, tmp_path):
    """A forked shm worker leaves through ``os._exit``, which skips
    ``atexit``: the profiler still writes what it saw."""
    hits = _profiled_run(studies, tmp_path, "s.plain(1)\nimport os\nos._exit(0)\n")
    assert ("sample.py", 4) in hits and ("sample.py", 15) not in hits


def test_owner_lookup_order(studies, monkeypatch):
    monkeypatch.setattr(studies, "REACHABILITY_OWNERS", {
        "m.py:Box.get": "exact",
        "m.py:Box.*": "class",
        "*.__repr__": "protocol",
    })
    assert studies._reach_owner("m.py", "Box.get") == "exact"
    assert studies._reach_owner("m.py", "Box.put") == "class"
    assert studies._reach_owner("m.py", "Box.__repr__") == "class"
    assert studies._reach_owner("n.py", "Other.__repr__") == "protocol"
    assert studies._reach_owner("n.py", "helper") is None


def test_every_owner_key_names_a_live_function(studies, functions):
    """An owner entry whose function was deleted or renamed is stale."""
    stale = []
    for key in studies.REACHABILITY_OWNERS:
        module, _, qualname = key.partition(":")
        if key.startswith("*."):
            found = any(q.rpartition(".")[2] == key[2:] for _, q in functions)
        elif qualname.endswith(".*"):
            found = any(m == module and q.startswith(qualname[:-1]) for m, q in functions)
        else:
            found = (module, qualname) in functions
        if not found:
            stale.append(key)
    assert not stale, f"owner entries naming no function in src/repro: {stale}"


def test_functions_the_audit_deleted_stay_deleted(functions):
    """The latest audit's "deleted" rows name nothing ``src/`` defines."""
    latest = DOC.read_text().split("\n## ")[-1]
    deleted = re.findall(r"^\| `([^`]+)::([^`]+)` \| \d+ \| deleted", latest, re.M)
    assert deleted
    back = [f"{m}::{q}" for m, q in deleted if (m, q) in functions]
    assert not back, f"deleted by the reachability audit but defined again: {back}"


def test_every_cli_command_has_an_entry_point_run(studies, tmp_path):
    """Each ``repro`` subcommand runs in the study: ``serve`` and ``trace``
    in the HTTP drives, the rest as CLI runs; no run names a command the
    CLI no longer has."""
    from repro.cli import COMMANDS

    ran = {argv[3] for _, argv, _, _ in studies._reach_runs(str(REPO), str(tmp_path))
           if argv[1:3] == ["-m", "repro"]}
    assert ran <= set(COMMANDS)
    assert ran | {"serve", "trace"} == set(COMMANDS)


def test_http_drives_cover_the_sanitizer_and_the_mmap_tier(studies, tmp_path):
    drives = studies._reach_http_drives(str(tmp_path))
    flags = [f for _, f, _ in drives]
    envs = [e for _, _, e in drives]
    assert [] in flags and any(f[:2] == ["--feature-store", "mmap"] for f in flags)
    sanitized = [e for e in envs if e.get("REPRO_SANITIZE") == "1"]
    assert len(sanitized) == 1
    assert sanitized[0]["REPRO_SANITIZE_REPORT"].startswith(str(tmp_path))
