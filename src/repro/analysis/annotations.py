"""Comment-marker syntax shared by the lint rules.

The linter reads machine-checkable invariants out of ordinary comments so
the declarations live next to the code they govern (the same way
Clang/Java thread-safety annotations ride on declarations):

``# guarded-by: _lock``
    On a ``self.attr = ...`` assignment: ``attr`` may only be read or
    written while ``self._lock`` is held (``with self._lock:`` or a
    ``# requires-lock: _lock`` helper).  Enforced by REP101.

``# alias-of: _lock``
    On a ``self.cond = threading.Condition(self._lock)`` assignment:
    holding ``self.cond`` *is* holding ``self._lock``.

``# requires-lock: _lock``
    On a ``def`` line (or the line above): the method is only called
    with ``self._lock`` already held; its body is checked as if inside
    ``with self._lock:``.

``# racy-ok: <reason>``
    On a statement (or the line above): suppress REP101 for that access;
    the reason is mandatory and should say why the race is benign.

``# audit[broad-except]: <reason>``
    On an ``except Exception:`` line (or the line above): classifies the
    broad handler for REP104; the reason says where the error goes.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import Dict, Optional

#: Lock markers name identifiers; prose after the name(s) is ignored, so
#: ``# guarded-by: _lock — why it matters`` declares just ``_lock``.
MARKER_RE = re.compile(
    r"(?P<name>guarded-by|alias-of|requires-lock)\s*:\s*"
    r"(?P<arg>[A-Za-z_][\w.]*(?:\s*,\s*[A-Za-z_][\w.]*)*)"
)
RACY_RE = re.compile(r"racy-ok\s*:\s*(?P<reason>[^#]*)")
AUDIT_RE = re.compile(r"audit\[(?P<category>[\w-]+)\]\s*:\s*(?P<reason>.*)")


def comment_map(source: str) -> Dict[int, str]:
    """Map line number -> comment text (without ``#``) for a module."""
    comments: Dict[int, str] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                comments[tok.start[0]] = tok.string.lstrip("#").strip()
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass
    return comments


def parse_markers(comment: str) -> Dict[str, str]:
    """Extract ``name -> argument`` markers from one comment string.

    Audit markers are keyed ``audit[<category>]``.
    """
    markers: Dict[str, str] = {}
    match = MARKER_RE.search(comment)
    if match:
        markers[match.group("name")] = match.group("arg").strip()
    racy = RACY_RE.search(comment)
    if racy:
        markers["racy-ok"] = racy.group("reason").strip()
    audit = AUDIT_RE.search(comment)
    if audit:
        markers[f"audit[{audit.group('category')}]"] = audit.group("reason").strip()
    return markers


def markers_in_range(
    comments: Dict[int, str], first_line: int, last_line: Optional[int]
) -> Dict[str, str]:
    """Merged markers for a statement spanning ``first_line..last_line``.

    The line directly above the statement also counts, so long markers
    can sit on their own line.
    """
    merged: Dict[str, str] = {}
    end = last_line if last_line is not None else first_line
    for line in range(first_line - 1, end + 1):
        comment = comments.get(line)
        if comment:
            merged.update(parse_markers(comment))
    return merged


def markers_on_lines(
    comments: Dict[int, str], first_line: int, last_line: Optional[int]
) -> Dict[str, str]:
    """Markers strictly on the statement's own lines (no line-above).

    Declaration markers (``guarded-by``/``alias-of``) use this so a
    marker trailing one assignment cannot bleed onto the next.
    """
    merged: Dict[str, str] = {}
    end = last_line if last_line is not None else first_line
    for line in range(first_line, end + 1):
        comment = comments.get(line)
        if comment:
            merged.update(parse_markers(comment))
    return merged
