"""Every name a library or test module imports is read somewhere in that
module, every library module serves another one, and the package exports
exactly what it imports."""

import ast
from pathlib import Path

import pytest

import valsym

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "valsym"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nfrom typing import Callable\nos.getcwd()\n") == [
        "line 2: Callable"
    ]
    assert unused_imports("from __future__ import annotations\nimport a.b\na.b.c()\n") == []


@pytest.mark.parametrize(
    "path",
    MODULES + TEST_MODULES,
    ids=lambda p: f"tests/{p.name}" if p.parent == TESTS else p.name,
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_every_library_module_but_the_cli_is_imported_by_another():
    # test-only helpers belong under tests/, not in the library
    imports = {
        path.stem: {
            node.module for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.level == 1
        }
        for path in MODULES
    }
    unused = [
        name for name in imports
        if name != "cli" and not any(name in imps for other, imps in imports.items() if other != name)
    ]
    assert unused == []


def test_exports_resolve_and_every_public_import_is_exported():
    assert [name for name in valsym.__all__ if not hasattr(valsym, name)] == []
    tree = ast.parse((SRC / "__init__.py").read_text())
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert sorted(public - set(valsym.__all__)) == []
