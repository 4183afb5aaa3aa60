"""Every module under ``src/repro`` is reached from an entry point, and
the examples run.

The entry points are ``python -m repro`` (``cli.py``, ``smoke.py``),
the figure benches, the ledger, ``benchmarks/perf`` and ``examples/``.
The import graph is built from their ASTs.  A name imported from a
package resolves to the module that defines it; a package's
``__init__`` re-exports are not followed, so a module that only an
``__init__`` imports counts as unreached.
"""

import ast
import os
import subprocess
import sys

import pytest

from tests.test_design_docs import ROOT

SRC = ROOT / "src"

ENTRY_POINTS = sorted(
    [SRC / "repro" / "__main__.py", SRC / "repro" / "cli.py",
     SRC / "repro" / "smoke.py"]
    + list((ROOT / "benchmarks").glob("*.py"))
    + list((ROOT / "benchmarks" / "ledger").glob("*.py"))
    + list((ROOT / "benchmarks" / "perf").glob("*.py"))
    + list((ROOT / "examples").glob("*.py")))

#: Modules no entry point imports, each with why it stays.
UNREACHED_ALLOWED = {
    "repro.dram.protocol": "reference oracle: the JEDEC command "
                           "checker the DRAM tests audit against "
                           "(ROADMAP item 4 wires it to the live "
                           "command stream)",
    "repro.dram.commands": "the command records repro.dram.protocol "
                           "checks (ROADMAP item 4)",
}

#: Examples that finish in well under a second run whole; the slow
#: ones are only checked to import what they name.
FAST_EXAMPLES = ("characterize_modules", "crash_recovery",
                 "ecc_playground", "fleet_service", "hpc_system",
                 "quickstart")
SLOW_EXAMPLES = ("margin_sweep", "node_speedup")


def _module_path(name):
    """The source file of module or package ``name`` (None if it is
    not one under ``src``)."""
    base = SRC.joinpath(*name.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def _module_name(path):
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _absolute(path, node):
    """The absolute module an ``ImportFrom`` names."""
    if not node.level:
        return node.module
    package = _module_name(path).split(".")
    if path.name != "__init__.py":
        package = package[:-1]
    package = package[:len(package) - node.level + 1]
    return ".".join(package + ([node.module] if node.module else []))


def _defining_module(package, name, seen=()):
    """The module that defines ``name`` imported from ``package``:
    the submodule of that name, or where ``package``'s ``__init__``
    imports it from (followed for that one name only)."""
    if _module_path(package + "." + name):
        return package + "." + name
    init = _module_path(package)
    if init is None or init.name != "__init__.py" or package in seen:
        return package
    for node in ast.walk(ast.parse(init.read_text())):
        if isinstance(node, ast.ImportFrom) and any(
                (a.asname or a.name) == name for a in node.names):
            origin = _absolute(init, node)
            real = next(a.name for a in node.names
                        if (a.asname or a.name) == name)
            return _defining_module(origin, real, seen + (package,))
    return package


def _imports(path):
    """The ``repro`` modules one source file imports."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            origin = _absolute(path, node) if path.is_relative_to(SRC) \
                else node.module
            if origin is None:
                continue
            out.add(origin)
            if origin.split(".")[0] == "repro":
                out.update(_defining_module(origin, a.name)
                           for a in node.names)
    return {m for m in out if m.split(".")[0] == "repro"}


def _reached():
    reached, todo = set(), []
    for path in ENTRY_POINTS:
        if path.is_relative_to(SRC):
            reached.add(_module_name(path))
        todo.extend(_imports(path))
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        path = _module_path(name)
        if path is not None and path.name != "__init__.py":
            todo.extend(_imports(path))
    return reached


def test_every_module_is_reached_from_an_entry_point():
    modules = {_module_name(p) for p in (SRC / "repro").rglob("*.py")
               if p.name != "__init__.py"}
    unreached = modules - _reached()
    assert sorted(unreached) == sorted(UNREACHED_ALLOWED)


@pytest.mark.parametrize("example", FAST_EXAMPLES)
def test_fast_example_runs(example):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / (example + ".py"))],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("example", SLOW_EXAMPLES)
def test_slow_example_imports_resolve(example):
    """Every ``from repro... import name`` in the example names
    something that module has."""
    import importlib
    path = ROOT / "examples" / (example + ".py")
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "repro":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), \
                    "{}: {}.{}".format(example, node.module, alias.name)


def test_every_example_is_classified():
    assert sorted(FAST_EXAMPLES + SLOW_EXAMPLES) == sorted(
        p.stem for p in (ROOT / "examples").glob("*.py"))
