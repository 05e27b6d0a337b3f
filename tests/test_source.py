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


def test_every_class_field_is_read():
    """Every field a class body declares with an annotation, such as a
    dataclass field, is read as an attribute somewhere in the package: a
    field no code reads still costs every instance its slot."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    read = {n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = set()
    for name, tree in trees.items():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                unread.update((name, f"{cls.name}.{field.target.id}") for field in cls.body
                              if isinstance(field, ast.AnnAssign)
                              and isinstance(field.target, ast.Name)
                              and field.target.id not in read)
    assert unread == set()


def package_imports(tree):
    """(module, import node) for each package module an import names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            prefix = "tempoweave." if node.level else ""
            names = ([prefix + node.module] if node.module
                     else [prefix + alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            if name.startswith("tempoweave."):
                yield name.split(".")[1], node


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_package_imports_go_one_way(path):
    """Package imports go one way and are all read at import time: none
    sits inside a function, only `__init__.py` imports the oracle (the
    reference semantics the monitor is checked against, which the program
    never runs), and the monitor imports only `formula` and `verdict`, so
    it steps formulas and knows nothing of snapshots or bindings."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imports = list(package_imports(tree))
    in_functions = {node for function in ast.walk(tree) if isinstance(function, FUNCTIONS)
                    for node in ast.walk(function)}
    assert [(module, node.lineno) for module, node in imports if node in in_functions] == []
    if path.name != "__init__.py":
        assert [node.lineno for module, node in imports if module == "oracle"] == []
    if path.name == "monitor.py":
        assert {module for module, _ in imports} <= {"formula", "verdict"}
