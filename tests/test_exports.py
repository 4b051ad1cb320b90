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


def _package_trees():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}
    trees["__init__.py"] = ast.parse(Path(modplab.__file__).read_text(encoding="utf-8"))
    return trees


def _names_read(trees, bare=True):
    """Every attribute name read anywhere in the trees, and every bare name
    unless bare is False."""
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if bare and isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_private_function_is_referenced():
    """Each module-level private function is read somewhere in the package,
    so a helper that lost its last caller leaves the tree with it."""
    trees = _package_trees()
    used = _names_read(trees)
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


def test_every_public_method_has_a_caller_in_src():
    """Each public method or property of a class in linalg.py and reps.py is
    read as an attribute somewhere in the package, so an API that only tests
    call leaves the tree with its last caller in src/.  Bare names do not
    count: a local variable named row is no call of Matrix.row."""
    trees = _package_trees()
    used = _names_read(trees, bare=False)
    unused = sorted(
        f"{name}:{cls.name}.{fn.name}"
        for name in ("linalg.py", "reps.py")
        for cls in trees[name].body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not fn.name.startswith("_")
        and fn.name not in used
    )
    assert not unused, f"public methods nothing in src/ calls: {unused}"


# parameters whose default is the only value real callers want
DEFAULTS_ALLOWED = {"cli.main:argv"}


def _functions(tree):
    """(qualified name, call name, function, count of implicit leading
    arguments) for each module-level function and each method; a
    constructor is called by its class name, and a method other than a
    staticmethod receives its instance or class implicitly."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name, node, 0
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
                call = node.name if fn.name == "__init__" else fn.name
                yield f"{node.name}.{fn.name}", call, fn, 0 if static else 1


def test_every_default_is_set_by_a_caller():
    """Each defaulted parameter of a module-level function, method or
    constructor is passed, by position or by keyword, by some call in src/
    with a value other than its literal default; an option no caller sets
    is a code path only tests take.  Calls match on the bare or attribute
    name of the function, a constructor's on its class name."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(node)

    def sets(call, index, param, default):
        if index is not None and len(call.args) > index:
            value = call.args[index]
        else:
            value = next((k.value for k in call.keywords if k.arg == param), None)
        if value is None:
            return False
        return not (isinstance(default, ast.Constant) and ast.dump(value) == ast.dump(default))

    unset = []
    for mod, tree in trees.items():
        for qualname, call_name, fn, implicit in _functions(tree):
            a = fn.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            defaulted = [
                (i - implicit, arg.arg, d) for i, (arg, d) in enumerate(zip(positional[first:], a.defaults), first)
            ]
            defaulted += [(None, arg.arg, d) for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            for i, param, default in defaulted:
                key = f"{mod}.{qualname}:{param}"
                if key in DEFAULTS_ALLOWED:
                    continue
                if not any(sets(c, i, param, default) for c in calls.get(call_name, ())):
                    unset.append(key)
    assert not unset, f"defaulted parameters no call in src/ sets to another value: {sorted(unset)}"


def test_coset_lookup_is_read_only_by_the_owners_of_the_block_layout():
    """groups.py computes the cosets and reps.py writes every map in
    induce's block layout; exact.py reads cosets only to list the
    U'-cosets inside U in averaging_section."""
    readers = set()
    for name, tree in _package_trees().items():
        for top in tree.body:
            where = name if name in ("groups.py", "reps.py") else f"{name}:{getattr(top, 'name', '')}"
            for node in ast.walk(top):
                if "coset_lookup" in (getattr(node, "id", None), getattr(node, "attr", None)):
                    readers.add(where)
    assert readers == {"groups.py", "reps.py", "exact.py:averaging_section"}
