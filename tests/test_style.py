"""Source rules, checked over src: no line is longer than 100 characters,
every module-level import of a library module is used in that module (the
package ``__init__`` is exempt: it imports to re-export), no class writes
its own ``__setattr__``, ``__eq__`` or ``__hash__`` (immutable values are
frozen dataclasses), no module defines ``__all__`` (the package imports
list the public names once), only ``InputTooLarge.check`` raises
``InputTooLarge``, and the input parsers catch exceptions only in
``formats.malformed``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gridalgebra"
MODULES = sorted(SRC.glob("*.py"))
MAX_LINE = 100


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_line_over_100_characters(path):
    lines = path.read_text().splitlines()
    long = [n for n, line in enumerate(lines, 1) if len(line) > MAX_LINE]
    assert not long, f"{path.name}: lines {long} are over {MAX_LINE} characters"


def _imported_names(tree):
    """Name -> line of every name a top-level import statement binds."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name
)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = {name: line for name, line in _imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but unused: {unused}"


VALUE_DUNDERS = {"__setattr__", "__eq__", "__hash__"}


def _bound_names(stmt):
    """Names a class-body or module-level statement defines or assigns."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_class_hand_writes_value_semantics(path):
    tree = ast.parse(path.read_text())
    hand_written = [
        f"{node.name}.{name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for stmt in node.body
        for name in _bound_names(stmt)
        if name in VALUE_DUNDERS
    ]
    assert not hand_written, f"{path.name}: use a frozen dataclass, not {hand_written}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_defines_all(path):
    # the imports of the package __init__ are the one list of public names
    tree = ast.parse(path.read_text())
    listed = [stmt.lineno for stmt in tree.body if "__all__" in _bound_names(stmt)]
    assert not listed, f"{path.name}: lines {listed} define __all__"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "errors.py"], ids=lambda p: p.name
)
def test_input_too_large_is_raised_only_by_its_check(path):
    raised = [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise)
        and getattr(getattr(node.exc, "func", node.exc), "id", None) == "InputTooLarge"
    ]
    assert not raised, f"{path.name}: lines {raised} raise InputTooLarge, not its check"


@pytest.mark.parametrize("name", ["formats.py", "certificates.py"])
def test_input_parsers_catch_only_in_malformed(name):
    tree = ast.parse((SRC / name).read_text())
    inside = {
        id(handler)
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "malformed"
        for handler in ast.walk(node)
    }
    stray = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler) and id(node) not in inside
    ]
    assert not stray, f"{name}: lines {stray} catch outside formats.malformed"
