import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import modplab

MODULES = sorted(m.name for m in pkgutil.iter_modules(modplab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(f"modplab.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"modplab.{name}.__all__ names missing attributes: {missing}"


SOURCES = sorted(p for p in Path(modplab.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    """A module that imports a name reads it somewhere; deleting a caller
    deletes its imports too.  __init__.py imports to re-export."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_every_private_function_is_referenced():
    """Each module-level private function is read somewhere in the package,
    so a helper that lost its last caller leaves the tree with it."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}
    trees["__init__.py"] = ast.parse(Path(modplab.__file__).read_text(encoding="utf-8"))
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in used
    )
    assert not unused, f"private functions nothing in src/ references: {unused}"


# parameters whose default is the only value real callers want
DEFAULTS_ALLOWED = {"cli.main:argv"}


def test_every_default_is_set_by_a_caller():
    """Each defaulted parameter of a module-level function is passed, by
    position or by keyword, by some call in src/; an option no caller sets
    is a code path only tests take.  Calls match on the bare or attribute
    name of the function."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = []
    for mod, tree in trees.items():
        for fn in tree.body:
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            positional = a.posonlyargs + a.args
            defaulted = [
                (i, arg.arg) for i, arg in enumerate(positional) if i >= len(positional) - len(a.defaults)
            ]
            defaulted += [(None, arg.arg) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            for i, param in defaulted:
                passed = any(
                    (i is not None and len(c.args) > i)
                    or any(k.arg == param for k in c.keywords)
                    for c in calls.get(fn.name, ())
                )
                if not passed and f"{mod}.{fn.name}:{param}" not in DEFAULTS_ALLOWED:
                    unset.append(f"{mod}.{fn.name}:{param}")
    assert not unset, f"defaulted parameters no call in src/ sets: {sorted(unset)}"
