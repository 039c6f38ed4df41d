"""Every name a library or test module imports is read somewhere in that
module, no library module imports another one's private names, every library
module serves another one, every library function, class and method is read
outside its own definition, and the package exports exactly what it imports."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import valsym

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "valsym"
BENCH = TESTS.parent / "bench"
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


def private_imports(source: str) -> list[str]:
    """The `_`-private names a source imports from a sibling module."""
    return [
        f"line {node.lineno}: {alias.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names if alias.name.startswith("_")
    ]


def test_checker_flags_a_private_import():
    assert private_imports("from .a import b, _c\nfrom a import _d\n") == ["line 1: _c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_library_module_imports_another_ones_private_names(path):
    # what one module keeps private, another must not lean on
    assert private_imports(path.read_text()) == []


def value_map_uses(source: str) -> list[str]:
    """The lines where a source imports or reads `ValuePermutation`."""
    return [
        f"line {node.lineno}" for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and any(a.name == "ValuePermutation" for a in node.names)
        or isinstance(node, ast.Attribute) and node.attr == "ValuePermutation"
    ]


def test_checker_flags_a_value_map_use():
    assert value_map_uses(
        "from .symmetry import ValuePermutation\nfrom . import symmetry\n"
        "symmetry.ValuePermutation((0,))\nfrom .symmetry import close_group\n"
    ) == ["line 1", "line 3"]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "symmetry.py"], ids=lambda p: p.name
)
def test_only_the_symmetry_module_builds_value_maps(path):
    # value maps are built in one module; the package's re-export is exempt
    assert value_map_uses(path.read_text()) == []


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


def _reads(tree: ast.AST) -> Counter:
    """How often each name is read, as a variable or as an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def unread_definitions(library: dict, readers=(), exported=()) -> list[str]:
    """The module-level functions and classes, and their methods, of the
    `library` sources (file name -> text) whose name is read nowhere outside
    its own definition, in the library or the `readers` sources, and is not
    `exported`. Dunder names are exempt."""
    trees = {name: ast.parse(source) for name, source in library.items()}
    read = sum((_reads(tree) for tree in trees.values()), Counter())
    for source in readers:
        read += _reads(ast.parse(source))
    unread = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            methods = [m for m in node.body if isinstance(m, ast.FunctionDef)]
            for owner, d in [("", node)] + [(node.name + ".", m) for m in methods]:
                dunder = d.name.startswith("__") and d.name.endswith("__")
                if not dunder and d.name not in exported and read[d.name] <= _reads(d)[d.name]:
                    unread.append(f"{name}: {owner}{d.name}")
    return unread


def test_checker_flags_an_unread_definition():
    lib = {"m.py": (
        "def used():\n    return 1\n\n"
        "def _orphan(k):\n    return _orphan(k - 1)\n\n"
        "class C:\n    def run(self):\n        return used()\n\n"
        "    def _left(self):\n        self._left = 1\n\n"
        "    def __repr__(self):\n        return ''\n"
    )}
    assert unread_definitions(lib, ["C().run()"]) == ["m.py: _orphan", "m.py: C._left"]
    assert unread_definitions(lib, ["C().run()", "C()._left()"], ["_orphan"]) == []


def test_every_library_definition_is_read_outside_itself():
    # a helper that nothing reads any more, such as a kernel a refactor left
    # behind, is dead code; tests do not count as readers
    library = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    readers = [p.read_text() for p in sorted(BENCH.glob("*.py"))]
    assert unread_definitions(library, readers, valsym.__all__) == []


def refusals_outside(source: str, function: str) -> list[str]:
    """The lines where a source raises UnsupportedModeError or GroupTooLarge
    anywhere but inside the module-level function `function`."""
    tree = ast.parse(source)
    inside = {
        id(node)
        for top in tree.body if isinstance(top, ast.FunctionDef) and top.name == function
        for node in ast.walk(top)
    }
    return [f"line {line}" for line in sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and id(node) not in inside
        and isinstance(node.exc, ast.Call) and isinstance(node.exc.func, ast.Name)
        and node.exc.func.id in ("UnsupportedModeError", "GroupTooLarge")
    )]


def test_checker_flags_a_refusal_outside_the_rule():
    assert refusals_outside(
        "def rule(m):\n    raise GroupTooLarge(1, 0)\n\n"
        "def other(m):\n    if m:\n        raise UnsupportedModeError(m)\n"
        "    raise ValueError(m)\n"
        "raise GroupTooLarge(2, 1, 'top')\n",
        "rule",
    ) == ["line 6", "line 8"]


def test_search_states_every_refusal_in_one_function():
    # solve, break_group, applicable_modes and verify refuse the same modes
    # only while every refusal the search module makes itself is stated once
    assert refusals_outside((SRC / "search.py").read_text(), "_require_mode") == []


def test_symmetry_states_the_size_limit_in_one_function():
    # every builder of a list of group elements is refused by the same rule
    # only while that rule is the one place the module raises GroupTooLarge
    assert refusals_outside((SRC / "symmetry.py").read_text(), "require_enumerable") == []
