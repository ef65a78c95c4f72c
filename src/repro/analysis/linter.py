"""AST lint engine for the project-invariant rules behind ``repro check``.

The engine is deliberately small: it parses each Python file once into a
:class:`FileContext` (AST + comment map + parent links + qualnames) and
hands it to every registered rule.  Rules yield :class:`Violation`
records; a known, accepted finding is silenced where it stands, by an
inline marker with its reason (``# racy-ok:``, ``# audit[…]:`` —
:mod:`.annotations`).
"""

from __future__ import annotations

import ast
import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set

from .annotations import comment_map


@dataclass
class Violation:
    """One rule finding at a specific site."""

    code: str
    path: str  # repo-relative, forward slashes
    line: int
    scope: str  # dotted qualname of the enclosing class/function ('' at module level)
    message: str

    def render(self) -> str:
        where = f" [{self.scope}]" if self.scope else ""
        return f"{self.path}:{self.line} {self.code}{where} {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "scope": self.scope,
            "message": self.message,
        }


@dataclass
class FileContext:
    """Everything a rule needs about one source file."""

    path: str  # repo-relative, forward slashes
    source: str
    tree: ast.Module
    comments: Dict[int, str]
    parents: Dict[ast.AST, ast.AST] = field(default_factory=dict)
    qualnames: Dict[ast.AST, str] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: str, source: str) -> "FileContext":
        tree = ast.parse(source, filename=path)
        ctx = cls(
            path=path.replace(os.sep, "/"),
            source=source,
            tree=tree,
            comments=comment_map(source),
        )
        ctx._index()
        return ctx

    def _index(self) -> None:
        stack: List[str] = []

        def visit(node: ast.AST) -> None:
            scoped = isinstance(
                node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            )
            if scoped:
                stack.append(node.name)  # type: ignore[attr-defined]
                self.qualnames[node] = ".".join(stack)
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node
                visit(child)
            if scoped:
                stack.pop()

        visit(self.tree)

    def scope_of(self, node: ast.AST) -> str:
        cur: Optional[ast.AST] = node
        while cur is not None:
            if cur in self.qualnames:
                return self.qualnames[cur]
            cur = self.parents.get(cur)
        return ""

    def violation(self, code: str, node: ast.AST, message: str) -> Violation:
        return Violation(
            code=code,
            path=self.path,
            line=getattr(node, "lineno", 0),
            scope=self.scope_of(node),
            message=message,
        )


# -- file discovery ----------------------------------------------------------


def iter_python_files(paths: Sequence[str], root: str = ".") -> Iterator[str]:
    """Yield repo-relative python files under ``paths`` (files or dirs)."""
    seen: Set[str] = set()
    for path in paths:
        full = os.path.join(root, path) if not os.path.isabs(path) else path
        if os.path.isfile(full) and full.endswith(".py"):
            rel = os.path.relpath(full, root)
            if rel not in seen:
                seen.add(rel)
                yield rel
            continue
        for dirpath, dirnames, filenames in os.walk(full):
            dirnames[:] = sorted(
                d for d in dirnames if not d.startswith(".") and d != "__pycache__"
            )
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                rel = os.path.relpath(os.path.join(dirpath, name), root)
                if rel not in seen:
                    seen.add(rel)
                    yield rel


# -- engine ------------------------------------------------------------------


def default_rules() -> List[object]:
    from .rules import ALL_RULES

    return [rule_cls() for rule_cls in ALL_RULES]


def check_source(path: str, source: str, rules: Optional[Sequence[object]] = None) -> List[Violation]:
    """Lint one in-memory module (also the test-fixture entry point)."""
    if rules is None:
        rules = default_rules()
    try:
        ctx = FileContext.parse(path, source)
    except SyntaxError as exc:
        return [
            Violation(
                code="REP000",
                path=path.replace(os.sep, "/"),
                line=exc.lineno or 0,
                scope="",
                message=f"syntax error: {exc.msg}",
            )
        ]
    violations: List[Violation] = []
    for rule in rules:
        violations.extend(rule.check(ctx))
    return violations


def check_paths(
    paths: Sequence[str],
    root: str = ".",
    rules: Optional[Sequence[object]] = None,
) -> List[Violation]:
    if rules is None:
        rules = default_rules()
    violations: List[Violation] = []
    for rel in iter_python_files(paths, root=root):
        with open(os.path.join(root, rel), "r", encoding="utf-8") as fh:
            source = fh.read()
        violations.extend(check_source(rel, source, rules))
    violations.sort(key=lambda v: (v.path, v.line, v.code))
    return violations


# -- reports -----------------------------------------------------------------


def render_text(violations: Sequence[Violation]) -> str:
    lines = [v.render() for v in violations]
    lines.append(f"{len(violations)} violation(s)")
    return "\n".join(lines)


def render_json(violations: Sequence[Violation]) -> str:
    by_code: Dict[str, int] = {}
    for v in violations:
        by_code[v.code] = by_code.get(v.code, 0) + 1
    return json.dumps(
        {
            "violations": [v.to_json() for v in violations],
            "count": len(violations),
            "by_code": by_code,
        },
        indent=2,
        sort_keys=True,
    )
