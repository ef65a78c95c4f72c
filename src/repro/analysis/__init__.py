"""Project-invariant static analysis + runtime concurrency sanitizer.

Two halves behind one CLI (``repro check``):

- :mod:`repro.analysis.linter` + :mod:`repro.analysis.rules` — an
  AST-based lint engine enforcing the concurrency/immutability
  invariants the rest of the tree relies on (REP101 guarded-by
  discipline, REP102 no blocking calls under locks, REP103 read-only
  hand-outs, REP104 classified broad excepts), declared via comment
  markers (:mod:`repro.analysis.annotations`) and whole-project
  registries (:mod:`repro.analysis.invariants`).
- :mod:`repro.analysis.sanitizers` — runtime lock-order recording
  (``REPRO_SANITIZE=1``) with deadlock-cycle detection and held-lock
  blocking probes, fed by the ``make_lock``/``make_condition`` factories
  every locked module uses.

This package is stdlib-only on purpose: the lint half never imports the
modules it checks, and the sanitizer half is imported by every locked
module at startup.
"""

from .linter import (
    FileContext,
    Violation,
    check_paths,
    check_source,
    render_json,
    render_text,
)
from .rules import ALL_RULES, RULES_BY_CODE
from .sanitizers import (
    LockOrderRecorder,
    SanitizedLock,
    current_recorder,
    enabled,
    make_condition,
    make_lock,
    scoped_recorder,
)

__all__ = [
    "FileContext",
    "Violation",
    "check_paths",
    "check_source",
    "render_json",
    "render_text",
    "ALL_RULES",
    "RULES_BY_CODE",
    "LockOrderRecorder",
    "SanitizedLock",
    "current_recorder",
    "enabled",
    "make_condition",
    "make_lock",
    "scoped_recorder",
]
