"""Good/bad fixture pairs for every ``repro check`` lint rule.

Each rule gets at least one fixture that must lint clean and one that
must produce the documented violation — the pairs pin both halves of
the contract (no false positives on annotated code, no false negatives
on the bug the rule exists to catch).
"""

import textwrap

from repro.analysis import check_source
from repro.analysis.rules import RULES_BY_CODE


def lint(source, rules=None):
    picked = None
    if rules is not None:
        picked = [RULES_BY_CODE[code]() for code in rules]
    return check_source("src/repro/fake/module.py", textwrap.dedent(source), picked)


def codes(violations):
    return sorted(v.code for v in violations)


# -- REP101: guarded-by discipline -------------------------------------------


GUARDED_GOOD = """
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self.count = 0  # guarded-by: _lock
            self._idle = threading.Condition(self._lock)  # alias-of: _lock

        def bump(self):
            with self._lock:
                self.count += 1

        def bump_via_alias(self):
            with self._idle:
                self.count += 1

        def _bump_locked(self):  # requires-lock: _lock
            self.count += 1

        def peek(self):
            return self.count  # racy-ok: monitoring gauge, staleness fine
"""


GUARDED_BAD = """
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self.count = 0  # guarded-by: _lock

        def bump(self):
            self.count += 1

        def read(self):
            return self.count
"""


def test_guarded_by_clean_fixture():
    assert lint(GUARDED_GOOD, rules=["REP101"]) == []


def test_guarded_by_flags_unlocked_access():
    violations = lint(GUARDED_BAD, rules=["REP101"])
    assert codes(violations) == ["REP101", "REP101"]
    assert {v.scope for v in violations} == {"Counter.bump", "Counter.read"}
    assert all("without holding self._lock" in v.message for v in violations)


def test_guarded_by_marker_does_not_bleed_to_next_line():
    # The trailing marker on `count` must not annotate `other` below it.
    source = """
        import threading

        class C:
            def __init__(self):
                self._lock = threading.Lock()
                self.count = 0  # guarded-by: _lock
                self.other = 0

            def touch(self):
                self.other += 1
    """
    assert lint(source, rules=["REP101"]) == []


def test_guarded_by_prose_after_lock_name_is_ignored():
    source = """
        import threading

        class C:
            def __init__(self):
                self._lock = threading.Lock()
                self.depth = 0  # guarded-by: _lock — queued work items

            def bump(self):
                with self._lock:
                    self.depth += 1
    """
    assert lint(source, rules=["REP101"]) == []


def test_guarded_by_nested_function_does_not_inherit_lock():
    source = """
        import threading

        class C:
            def __init__(self):
                self._lock = threading.Lock()
                self.count = 0  # guarded-by: _lock

            def schedule(self):
                with self._lock:
                    def later():
                        self.count += 1
                    return later
    """
    violations = lint(source, rules=["REP101"])
    assert codes(violations) == ["REP101"]


def test_init_is_exempt():
    # __init__ publishes the object; its writes happen-before any reader.
    source = """
        import threading

        class C:
            def __init__(self):
                self._lock = threading.Lock()
                self.count = 0  # guarded-by: _lock
                self.count = 1
    """
    assert lint(source, rules=["REP101"]) == []


# -- REP102: no blocking calls under a lock ----------------------------------


BLOCKING_BAD = """
    import threading
    import time
    from urllib.request import urlopen

    class Poller:
        def __init__(self):
            self._lock = threading.Lock()

        def poll(self, thread, queue, future):
            with self._lock:
                time.sleep(0.5)
                urlopen("http://example.com")
                thread.join()
                queue.get()
                future.result()
"""


BLOCKING_GOOD = """
    import threading
    import time

    class Poller:
        def __init__(self):
            self._lock = threading.Lock()
            self._cond = threading.Condition(self._lock)

        def poll(self, thread, queue):
            time.sleep(0.5)
            thread.join()
            with self._lock:
                queue.get(timeout=1.0)
            with self._cond:
                self._cond.wait(timeout=1.0)

        def parts(self, items):
            with self._lock:
                return ",".join(str(i) for i in items)
"""


def test_blocking_under_lock_flags_each_call():
    violations = lint(BLOCKING_BAD, rules=["REP102"])
    assert codes(violations) == ["REP102"] * 5
    joined = " ".join(v.message for v in violations)
    for needle in ("time.sleep", "urlopen", "join()", "get()", "result()"):
        assert needle in joined
    assert all("while holding" in v.message for v in violations)


def test_blocking_outside_lock_is_clean():
    # sleep/join outside the lock, get() with a timeout, wait() on the
    # held condition itself, and str.join (one argument) are all fine.
    assert lint(BLOCKING_GOOD, rules=["REP102"]) == []


# -- REP103: read-only hand-out contract -------------------------------------


def test_registered_handout_without_freeze_is_flagged():
    source = """
        import numpy as np

        class HotSetCache:
            def gather(self, ids, cold_fetch):
                return np.array(cold_fetch(ids))
    """
    violations = check_source(
        "src/repro/featurestore/hotset.py", textwrap.dedent(source),
        [RULES_BY_CODE["REP103"]()],
    )
    assert codes(violations) == ["REP103"]
    assert "without a freeze" in violations[0].message


def test_registered_handout_with_freeze_is_clean():
    source = """
        import numpy as np

        class HotSetCache:
            def gather(self, ids, cold_fetch):
                out = np.array(cold_fetch(ids))
                out.setflags(write=False)
                return out
    """
    violations = check_source(
        "src/repro/featurestore/hotset.py", textwrap.dedent(source),
        [RULES_BY_CODE["REP103"]()],
    )
    assert violations == []


def test_missing_registered_handout_is_registry_drift():
    violations = check_source(
        "src/repro/featurestore/hotset.py", "class HotSetCache:\n    pass\n",
        [RULES_BY_CODE["REP103"]()],
    )
    assert codes(violations) == ["REP103"]
    assert "not found" in violations[0].message


def test_thaw_and_frozen_attr_stores_are_flagged():
    source = """
        def patch(graph, rows):
            rows.setflags(write=True)
            graph.indices[0] = 7
            graph.indptr[1:] += 1
    """
    violations = lint(source, rules=["REP103"])
    assert codes(violations) == ["REP103"] * 3
    joined = " ".join(v.message for v in violations)
    assert "setflags(write=True)" in joined
    assert ".indices" in joined and ".indptr" in joined


def test_rebinding_frozen_attr_name_is_fine():
    # Rebinding the attribute (fresh array) is the sanctioned update
    # path; only element stores through it are flagged.
    source = """
        def rebuild(graph, new_indices):
            graph.indices = new_indices
    """
    assert lint(source, rules=["REP103"]) == []


# -- REP104: classified broad excepts ----------------------------------------


def test_unclassified_broad_except_is_flagged():
    source = """
        def run(task):
            try:
                task()
            except Exception:
                pass
    """
    violations = lint(source, rules=["REP104"])
    assert codes(violations) == ["REP104"]


def test_bare_except_is_flagged():
    source = """
        def run(task):
            try:
                task()
            except:
                pass
    """
    assert codes(lint(source, rules=["REP104"])) == ["REP104"]


def test_audit_marker_classifies_broad_except():
    source = """
        def run(task):
            try:
                task()
            # audit[broad-except]: counted in the error bucket and logged
            except Exception:
                pass
    """
    assert lint(source, rules=["REP104"]) == []


def test_reraising_broad_except_is_clean():
    source = """
        def run(task):
            try:
                task()
            except Exception:
                cleanup()
                raise
    """
    assert lint(source, rules=["REP104"]) == []


def test_narrow_except_is_clean():
    source = """
        def run(task):
            try:
                task()
            except ValueError:
                pass
    """
    assert lint(source, rules=["REP104"]) == []


# -- engine-level behavior ----------------------------------------------------


def test_syntax_error_reports_rep000():
    violations = check_source("src/repro/broken.py", "def f(:\n")
    assert codes(violations) == ["REP000"]
    assert "syntax error" in violations[0].message


def test_fingerprint_is_stable_across_line_shifts():
    before = lint(GUARDED_BAD, rules=["REP101"])
    after = lint("\n\n\n" + textwrap.dedent(GUARDED_BAD), rules=["REP101"])
    assert {v.fingerprint for v in before} == {v.fingerprint for v in after}
    assert [v.line for v in before] != [v.line for v in after]


def test_src_tree_is_clean(request):
    """The repo's own source must pass its own linter with no baseline."""
    from repro.analysis import check_paths

    root = str(request.config.rootpath)
    assert [v.render() for v in check_paths(["src"], root=root)] == []
