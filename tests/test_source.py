"""Checks over the package's own source files and its tests."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "tempoweave"


# `__init__.py` imports names to re-export them
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py"))


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda path: (
    path.name if path.parent == SRC else f"tests/{path.name}"))
def test_every_module_level_import_is_read(path):
    """pyflakes' unused-import check, written out: every name a module
    imports at its top level is read somewhere in it.  A `__future__`
    import is a compiler directive, not a name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and (
            getattr(node, "module", None) != "__future__"
        ):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in read} == {}


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


@pytest.mark.parametrize("path", MODULES + [TESTS / "helpers.py"], ids=lambda path: (
    path.name if path.parent == SRC else f"tests/{path.name}"))
def test_no_nested_function_reads_its_own_name(path):
    """A function defined inside another that reads its own name, to call
    itself, holds its own closure cell: a reference cycle built on every
    call of the outer function, which keeps all the closure reads alive
    until the cyclic collector runs.  A recursive walk is a module-level
    function instead."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for outer in ast.walk(tree):
        if not isinstance(outer, FUNCTIONS):
            continue
        for inner in ast.walk(outer):
            if inner is not outer and isinstance(inner, FUNCTIONS) and any(
                    isinstance(n, ast.Name) and n.id == inner.name
                    and isinstance(n.ctx, ast.Load) for n in ast.walk(inner)):
                found.add((inner.name, inner.lineno))
    assert found == set()
