"""Every ``src/repro`` module is imported by code that runs it.

A static import graph over ``src/``, ``benchmarks/`` and ``examples/``
(test files and ``conftest.py`` excluded).  A name a package ``__init__``
re-exports resolves to the module that defines it, so ``from repro.nn
import GraphSAGE`` is a use of ``repro.nn.sage``.  An ``__init__``'s own
import counts only where the ``__init__`` itself uses the name (a
registry list, say), not where it merely re-exports it.  ``repro.cli``
and ``repro.__main__`` are the entry points; every other module needs
at least one importer.  A module only its package re-exports is a module
no entry point reaches (``docs/reachability.md``).
"""

import ast
import os

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
SCANNED = ("src", "benchmarks", "examples")
ENTRY_POINTS = {"repro.cli", "repro.__main__"}


def _python_files(top):
    for dirpath, dirnames, files in os.walk(os.path.join(REPO, top)):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _module_name(path):
    parts = os.path.relpath(path, SRC)[: -len(".py")].split(os.sep)
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


MODULES = {_module_name(p): p for p in _python_files("src")}
PACKAGES = {m for m, p in MODULES.items() if p.endswith("__init__.py")}


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def _from_base(node, importer, is_package):
    """The absolute module a ``from ... import`` names."""
    if not node.level:
        return node.module
    parts = importer.split(".")
    keep = len(parts) - node.level + (1 if is_package else 0)
    base = ".".join(parts[:keep])
    return f"{base}.{node.module}" if node.module else base


def _defining_module(package, name, seen=()):
    """Where ``from package import name`` really comes from: a submodule,
    the module the package's ``__init__`` re-exports it from, or the
    package itself."""
    if f"{package}.{name}" in MODULES:
        return f"{package}.{name}"
    if package not in PACKAGES or package in seen:
        return package
    for node in ast.walk(_parse(MODULES[package])):
        if isinstance(node, ast.ImportFrom):
            base = _from_base(node, package, is_package=True)
            for alias in node.names:
                if (alias.asname or alias.name) == name and base.startswith("repro"):
                    if base in PACKAGES:
                        return _defining_module(base, alias.name, seen + (package,))
                    return base
    return package


def _imports(path):
    """``(module imported, names bound in the importer)`` for every import."""
    importer = _module_name(path) if path.startswith(SRC + os.sep) else None
    is_package = path.endswith("__init__.py")
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("repro"):
                    yield alias.name, {alias.asname or alias.name.split(".")[0]}
        elif isinstance(node, ast.ImportFrom):
            base = _from_base(node, importer or "", is_package)
            if not base or not base.startswith("repro"):
                continue
            for alias in node.names:
                yield _defining_module(base, alias.name), {alias.asname or alias.name}


def _is_test(path):
    name = os.path.basename(path)
    return name.startswith("test_") or name == "conftest.py"


def _importers():
    users = {m: set() for m in MODULES}
    for top in SCANNED:
        for path in _python_files(top):
            if _is_test(path):
                continue
            is_init = path.endswith("__init__.py")
            if is_init:
                tree = _parse(path)
                loaded = {n.id for n in ast.walk(tree)
                          if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            for target, bound in _imports(path):
                if target not in users or MODULES[target] == path:
                    continue
                if is_init and not bound & loaded:
                    continue  # a re-export is not a use
                users[target].add(os.path.relpath(path, REPO))
    return users


def test_import_graph_resolves_re_exports():
    assert _defining_module("repro.nn", "GraphSAGE") == "repro.nn.sage"
    assert _defining_module("repro", "libra_partition") == "repro.partition.libra"
    assert _defining_module("repro.kernels", "engine") == "repro.kernels.engine"


def test_every_module_has_an_importer():
    users = _importers()
    orphans = sorted(
        m for m, who in users.items()
        if not who and m not in PACKAGES and m not in ENTRY_POINTS
    )
    assert not orphans, (
        f"imported by no non-test, non-__init__ file: {orphans}; give each an "
        "importer that runs it or delete it"
    )
