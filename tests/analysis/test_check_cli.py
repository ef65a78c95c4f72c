"""``repro check`` CLI: output formats, exit codes, in-place audit markers."""

import json
import textwrap

import pytest

from repro.cli import main

CLEAN = """
    import threading

    class C:
        def __init__(self):
            self._lock = threading.Lock()
            self.count = 0  # guarded-by: _lock

        def bump(self):
            with self._lock:
                self.count += 1
"""

DIRTY = """
    import threading

    class C:
        def __init__(self):
            self._lock = threading.Lock()
            self.count = 0  # guarded-by: _lock

        def bump(self):
            self.count += 1

        def run(self, task):
            try:
                task()
            except Exception:
                pass
"""


@pytest.fixture
def tree(tmp_path, monkeypatch):
    """A tiny repo-shaped tree as the CLI's working directory."""
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "clean.py").write_text(textwrap.dedent(CLEAN))
    (pkg / "dirty.py").write_text(textwrap.dedent(DIRTY))
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_clean_file_exits_zero(tree, capsys):
    assert main(["check", "src/pkg/clean.py"]) == 0
    assert "0 violation(s)" in capsys.readouterr().out


def test_violations_exit_nonzero_with_rendered_lines(tree, capsys):
    assert main(["check", "src"]) == 1
    out = capsys.readouterr().out
    assert "src/pkg/dirty.py" in out
    assert "REP101" in out and "REP104" in out
    assert "2 violation(s)" in out


def test_json_output_schema(tree, capsys):
    assert main(["check", "--json", "src"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"violations", "count", "by_code"}
    assert data["count"] == 2
    assert data["by_code"] == {"REP101": 1, "REP104": 1}
    v = data["violations"][0]
    assert set(v) == {"code", "path", "line", "scope", "message"}


def test_rules_filter(tree, capsys):
    assert main(["check", "--rules", "REP104", "src"]) == 1
    data_out = capsys.readouterr().out
    assert "REP104" in data_out and "REP101" not in data_out


def test_unknown_rule_code_exits_two(tree, capsys):
    assert main(["check", "--rules", "REP999", "src"]) == 2
    assert "unknown rule code" in capsys.readouterr().err


def test_list_rules(tree, capsys):
    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("REP101", "REP102", "REP103", "REP104"):
        assert code in out


def test_audit_marker_accepts_a_finding_where_it_stands(tree, capsys):
    """An accepted finding is marked at its site; the run then reports
    and fails on the others only."""
    dirty = tree / "src" / "pkg" / "dirty.py"
    dirty.write_text(dirty.read_text().replace(
        "        except Exception:",
        "        # audit[broad-except]: the task reports its own failures\n"
        "        except Exception:",
    ))
    assert main(["check", "src"]) == 1
    out = capsys.readouterr().out
    assert "REP101" in out and "REP104" not in out
    assert "1 violation(s)" in out


@pytest.mark.parametrize("flag", ["--baseline=lint.json", "--write-baseline"])
def test_there_is_no_suppression_file(tree, capsys, flag):
    """Findings are accepted in place only: no baseline file flag."""
    with pytest.raises(SystemExit) as exc:
        main(["check", flag, "src"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
