"""No value-only ``np.unique`` (or its set-op kin) in ``src/repro``.

NumPy 2.4's value-only ``np.unique`` hashes, and measured 3–27x slower
than ``repro.graph.builders.sorted_unique`` (sort, then drop repeats) on
integer ids.  ``np.union1d`` is ``np.unique`` of a concatenation, and
``np.setdiff1d`` / ``np.intersect1d`` call it on both sides unless told
``assume_unique=True``.  A ``np.unique`` asking for indices or counts
(``return_*``) is a different operation and stays.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _offences(tree):
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        ):
            continue
        name = node.func.attr
        flags = {kw.arg: kw.value for kw in node.keywords}
        if name == "unique" and not any(k and k.startswith("return_") for k in flags):
            yield node.lineno, "np.unique without return_*: use sorted_unique"
        elif name == "union1d":
            yield node.lineno, "np.union1d: use sorted_unique(np.concatenate(...))"
        elif name in ("setdiff1d", "intersect1d"):
            assume = flags.get("assume_unique")
            if not (isinstance(assume, ast.Constant) and assume.value is True):
                yield node.lineno, f"np.{name} without assume_unique=True"


def test_src_has_no_hash_unique():
    found = [
        f"{path.relative_to(SRC.parent)}:{line}: {why}"
        for path in sorted(SRC.rglob("*.py"))
        for line, why in _offences(ast.parse(path.read_text(), str(path)))
    ]
    assert not found, "\n".join(found)


def test_the_walker_catches_each_form():
    code = """
np.unique(a)
np.unique(a, return_index=True)
np.union1d(a, b)
np.setdiff1d(a, b)
np.setdiff1d(a, b, assume_unique=True)
numpy.intersect1d(a, b, assume_unique=False)
"""
    assert [line for line, _ in _offences(ast.parse(code))] == [2, 4, 5, 7]
