"""The benchmark (perfbench/) wraps library functions by module and name; a
deleted or renamed name would break it only when its multi-minute self-test
runs.  This reads its target list and checks that every name resolves."""

import ast
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


def test_every_traced_name_resolves():
    targets = _targets()
    assert targets
    missing = [
        f"{module}.{name}"
        for _, module, name in targets
        if not hasattr(importlib.import_module(f"isomlab.{module}"), name)
    ]
    assert missing == []


def test_cli_uses_every_traced_name_it_imports():
    """Every traced name that isomlab.cli binds is used in cli.py beyond its
    import, so no import there exists only for the benchmark to wrap."""
    cli = Path(importlib.import_module("isomlab.cli").__file__)
    used = {node.id for node in ast.walk(ast.parse(cli.read_text())) if isinstance(node, ast.Name)}
    traced = {name for _, module, name in _targets() if module == "cli"}
    assert traced and sorted(traced - used) == []


def test_every_module_uses_the_names_it_imports():
    """Every name a module of isomlab imports is used in that module, except
    a name the benchmark wraps in that module (a TARGETS entry).  The
    package's __init__ is its public namespace: its imports are its exports,
    so it is not checked."""
    traced = {(module, name) for _, module, name in _targets()}
    package = Path(importlib.import_module("isomlab").__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.stem}.{name}"
            for name in sorted(imported - used)
            if (path.stem, name) not in traced
        ]
    assert unused == []
