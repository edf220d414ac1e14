"""Source hygiene: every name a slagext module imports is used in it, and
every module-level private helper is referenced somewhere in the package."""
from __future__ import annotations

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "slagext"
MODULES = sorted(SRC.glob("*.py"))


def _imported(tree: ast.AST) -> dict:
    """Bound name -> line of every import outside ``__future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.AST) -> set:
    """Names loaded anywhere, in string annotations, or listed in __all__."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    for ann in annotations:
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used.update(n.id for n in ast.walk(ast.parse(ann.value))
                        if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})"
              for name, line in sorted(_imported(tree).items())
              if name not in used]
    assert not unused, f"{path.name} imports unused names: {unused}"


def test_detects_an_unused_import():
    tree = ast.parse("import os\nfrom typing import List, Optional\n"
                     "def f(x: 'Optional[int]'):\n    return os.sep\n")
    assert sorted(set(_imported(tree)) - _used(tree)) == ["List"]


def _private_defs(tree: ast.AST) -> dict:
    """Module-level ``_name`` functions and classes -> their def node."""
    return {node.name: node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")}


def _references(tree: ast.AST, skip: ast.AST | None = None) -> set:
    """Names and attributes read, and names imported, outside ``skip``."""
    refs = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
        stack.extend(ast.iter_child_nodes(node))
    return refs


def _unreferenced_private(trees: dict) -> list:
    """``module.name`` of each private helper that no code other than its
    own definition references, across all the given module trees."""
    refs = {mod: _references(tree) for mod, tree in trees.items()}
    found = []
    for mod, tree in trees.items():
        others = set().union(*(r for m, r in refs.items() if m != mod))
        for name, node in _private_defs(tree).items():
            if name not in others and name not in _references(tree, node):
                found.append(f"{mod}.{name}")
    return sorted(found)


def test_no_unreferenced_private_helpers():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p))
             for p in MODULES}
    dead = _unreferenced_private(trees)
    assert not dead, f"private helpers nothing references: {dead}"


def test_detects_an_unreferenced_private_helper():
    a = ast.parse("def _used():\n    return 1\n"
                  "def _recursive(k):\n    return _recursive(k - 1)\n"
                  "class _Orphan:\n    pass\n"
                  "def _shared():\n    return 2\n"
                  "x = _used()\n")
    b = ast.parse("from .a import _shared\n")
    assert _unreferenced_private({"a": a, "b": b}) == ["a._Orphan",
                                                       "a._recursive"]
