"""Source hygiene: every name a slagext module imports is used in it, every
module-level private helper is referenced somewhere in the package, every
defaulted parameter is set by some call in the repository, only the
precision module imports mpmath or builds an ``MPContext``, and only the
precision and series modules name the raw mpf form, ``RawSlot``."""
from __future__ import annotations

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "slagext"
MODULES = sorted(SRC.glob("*.py"))
ROOT = SRC.parent.parent
CALLERS = ("src", "tests", "scripts", "perfbench")


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


def _mpmath_importers(trees: dict) -> list:
    """Each module whose tree imports mpmath or a submodule of it, at any
    depth."""
    def imports_mpmath(node):
        if isinstance(node, ast.Import):
            return any(a.name.split(".")[0] == "mpmath" for a in node.names)
        return (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == "mpmath")

    return sorted(mod for mod, tree in trees.items()
                  if any(imports_mpmath(node) for node in ast.walk(tree)))


def test_only_precision_imports_mpmath():
    # precision lives in the scalars that precision.py makes; a module that
    # reaches for mpmath itself would bypass them
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p))
             for p in MODULES}
    assert _mpmath_importers(trees) == ["precision"]


def test_detects_an_mpmath_import():
    trees = {
        "a": ast.parse("def f(x):\n    import mpmath\n    return x\n"),
        "b": ast.parse("from mpmath.libmp import to_str\n"),
        "c": ast.parse("import math\nfrom .mpmath_notes import y\n"),
        "d": ast.parse("import numpy as np, mpmath as mp\n"),
    }
    assert _mpmath_importers(trees) == ["a", "b", "d"]


def _mpcontext_builders(trees: dict) -> list:
    """Each module whose tree calls a name or an attribute ``MPContext``."""
    def builds(node):
        return isinstance(node, ast.Call) and "MPContext" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))

    return sorted(mod for mod, tree in trees.items()
                  if any(builds(node) for node in ast.walk(tree)))


def test_only_precision_builds_contexts():
    # one context per digit count, made by precision.py's lookup: a module
    # that builds its own would compute in an mpmath context of its own
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p))
             for p in MODULES}
    assert _mpcontext_builders(trees) == ["precision"]


def test_detects_a_context_builder():
    trees = {
        "a": ast.parse("from .precision import MPContext\n"
                       "c = MPContext(30)\n"),
        "b": ast.parse("def f():\n    return precision.MPContext(40)\n"),
        "c": ast.parse("def f(x):\n    return isinstance(x, MPContext)\n"),
        "d": ast.parse("import mpmath\nmp = mpmath.MPContext()\n"),
        "e": ast.parse("ctx = context_named('mp30')\n"),
    }
    assert _mpcontext_builders(trees) == ["a", "b", "d"]


def _raw_form_users(trees: dict) -> list:
    """Each module whose tree names ``RawSlot``: as a name, an attribute
    or an import."""
    return sorted(mod for mod, tree in trees.items()
                  if "RawSlot" in _references(tree))


def test_only_precision_and_series_name_the_raw_form():
    # which form an mpf coefficient array takes is decided in precision.py;
    # the rest of the package works on the arrays it is given
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p))
             for p in MODULES}
    assert set(_raw_form_users(trees)) <= {"precision", "series"}


def test_detects_a_raw_form_user():
    trees = {
        "a": ast.parse("from .precision import RawSlot\n"),
        "b": ast.parse("def f(x):\n    return precision.RawSlot(x, None)\n"),
        "c": ast.parse("def f(x):\n    return x.raw  # a RawSlot's\n"),
        "d": ast.parse("def f(x):\n    return type(x) is RawSlot\n"),
    }
    assert _raw_form_users(trees) == ["a", "b", "d"]


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


def _defaulted(tree: ast.AST, mod: str) -> dict:
    """``module.function.param`` -> (called name, param, position or None)
    of every defaulted parameter of a module-level function or a method.
    A class's ``__init__`` is called by the class name, and a keyword-only
    parameter has no position."""
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs.append((node.name, node.name, node, 0))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                called_as = node.name if item.name == "__init__" else item.name
                defs.append((f"{node.name}.{item.name}", called_as, item,
                             0 if static else 1))
    found = {}
    for label, called_as, fn, skip in defs:
        positional = (fn.args.posonlyargs + fn.args.args)[skip:]
        first = len(positional) - len(fn.args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            found[f"{mod}.{label}.{arg.arg}"] = (called_as, arg.arg, i)
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                found[f"{mod}.{label}.{arg.arg}"] = (called_as, arg.arg, None)
    return found


def _dict_keys(node: ast.AST):
    """Keys of a ``dict(k=...)`` call or a dict literal, else None."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "dict" and not node.args):
        return {k.arg for k in node.keywords}
    if isinstance(node, ast.Dict):
        return {k.value for k in node.keys if isinstance(k, ast.Constant)}
    return None


def _call_settings(tree: ast.AST) -> dict:
    """Called name -> (positional count, keywords) of each call in ``tree``.
    A ``*args`` counts as every position; ``**`` of a ``dict(...)``, of a
    dict literal, or of a name assigned one in ``tree`` counts as its keys,
    and any other ``**`` as every keyword."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _dict_keys(node.value) is not None:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.setdefault(target.id, set()).update(
                        _dict_keys(node.value))
    calls = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name is None:
            continue
        starred = any(isinstance(a, ast.Starred) for a in node.args)
        count = float("inf") if starred else len(node.args)
        keys = set()
        for kw in node.keywords:
            if kw.arg is not None:
                keys.add(kw.arg)
            elif _dict_keys(kw.value) is not None:
                keys.update(_dict_keys(kw.value))
            elif isinstance(kw.value, ast.Name) and kw.value.id in bound:
                keys.update(bound[kw.value.id])
            else:
                keys.add("**")
        calls.setdefault(name, []).append((count, keys))
    return calls


def _unset_options(defined: dict, calls: dict) -> list:
    """Each defaulted parameter that no call sets by keyword or position."""
    unset = []
    for label, (name, param, pos) in defined.items():
        if not any(param in keys or "**" in keys
                   or (pos is not None and count > pos)
                   for count, keys in calls.get(name, ())):
            unset.append(label)
    return sorted(unset)


def test_every_option_is_set_by_some_call():
    defined = {}
    for p in MODULES:
        defined.update(_defaulted(ast.parse(p.read_text()), p.stem))
    calls = {}
    for top in CALLERS:
        for p in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(p.read_text(), filename=str(p))
            for name, sites in _call_settings(tree).items():
                calls.setdefault(name, []).extend(sites)
    unset = _unset_options(defined, calls)
    assert not unset, f"defaulted parameters no call sets: {unset}"


def test_detects_an_unset_option():
    src = ast.parse("def f(a, b=1, c=2, *, d=3):\n    return a\n"
                    "class K:\n    def __init__(self, x=0):\n        pass\n"
                    "    def m(self, y=1, z=2):\n        pass\n"
                    "def g(p=0, q=1):\n    return p\n")
    caller = ast.parse("f(0, 5)\nK(x=1)\nkw = dict(z=4)\nobj.m(**kw)\n"
                       "g(*args)\n")
    assert _unset_options(_defaulted(src, "a"), _call_settings(caller)) == [
        "a.K.m.y", "a.f.c", "a.f.d"]
