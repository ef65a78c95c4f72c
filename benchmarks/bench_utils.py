"""Shared benchmark harness utilities.

Every benchmark regenerates one of the paper's tables or figures, prints
it, and persists it under ``benchmarks/results/`` so the EXPERIMENTS.md
record can be refreshed from a single run.
"""

from __future__ import annotations

import os
from typing import Iterable, List, Sequence

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def emit(name: str, lines: Iterable[str]) -> str:
    """Print a result block and save it to ``benchmarks/results/<name>.txt``."""
    text = "\n".join(lines)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text + "\n")
    print(f"\n===== {name} =====")
    print(text)
    return path


def table(headers: Sequence[str], rows: Sequence[Sequence], widths=None) -> List[str]:
    """Plain-text table rows."""
    if widths is None:
        widths = [
            max(len(str(h)), *(len(_fmt(r[i])) for r in rows)) if rows else len(str(h))
            for i, h in enumerate(headers)
        ]
    out = [
        "  ".join(str(h).ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for r in rows:
        out.append("  ".join(_fmt(c).ljust(w) for c, w in zip(r, widths)))
    return out


def _fmt(v) -> str:
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000 or abs(v) < 0.01:
            return f"{v:.3g}"
        return f"{v:.3f}".rstrip("0").rstrip(".")
    return str(v)
