import ast
import importlib
import pkgutil
from collections import Counter
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


def _names_read(trees, bare=True) -> Counter:
    """How often each attribute name is read in the trees, and each bare
    name unless bare is False."""
    used = Counter()
    for tree in trees.values():
        for node in ast.walk(tree):
            if bare and isinstance(node, ast.Name):
                used[node.id] += 1
            elif isinstance(node, ast.Attribute):
                used[node.attr] += 1
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


# public names nothing in src/ calls, each kept for the reason given
CALLERS_ALLOWED = {
    # the field's addition; perfbench/tracer.py's fields.elementwise span names it
    "fields.py:FiniteField.ax_add",
    # the memo and digest tests read a memo's entries through it
    "memo.py:Memo.keys",
}


def test_every_public_method_has_a_caller_in_src():
    """Each public method or property of a class in src/ is read as an
    attribute somewhere in the package, so an API that only tests call
    leaves the tree with its last caller in src/.  Bare names do not
    count: a local variable named row is no call of Matrix.row."""
    trees = _package_trees()
    used = _names_read(trees, bare=False)
    unused = sorted(
        f"{name}:{cls.name}.{fn.name}"
        for name, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not fn.name.startswith("_")
        and fn.name not in used
        and f"{name}:{cls.name}.{fn.name}" not in CALLERS_ALLOWED
    )
    assert not unused, f"public methods nothing in src/ calls: {unused}"


def test_every_public_function_has_a_caller_in_src():
    """Each public module-level function is read somewhere in the package
    outside its own body, by bare name or as an attribute, so a function
    that only tests call leaves the tree with its last caller in src/.
    Re-exports in __init__.py are imports, not reads."""
    trees = _package_trees()
    reads = _names_read(trees)
    unused = sorted(
        f"{name}:{fn.name}"
        for name, tree in trees.items()
        for fn in tree.body
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not fn.name.startswith("_")
        and reads[fn.name] == _names_read({name: fn})[fn.name]
        and f"{name}:{fn.name}" not in CALLERS_ALLOWED
    )
    assert not unused, f"public functions nothing in src/ calls: {unused}"


# attributes stored on self that nothing in src/ reads, each kept for the
# reason given
STORES_ALLOWED = {
    # the exception's payload: a caller that catches the failed cover reads
    # the vectors that had no qualifying subgroup from it
    "covers.py:CoverageError.dropped",
}


def test_every_attribute_stored_on_self_is_read():
    """Each attribute a method stores on self is read as an attribute
    somewhere in the package, so a field nothing reads leaves the tree.
    An attribute read by name on any object counts as read."""
    trees = _package_trees()
    read = Counter(
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )
    unread = sorted(
        {
            f"{name}:{cls.name}.{node.attr}"
            for name, tree in trees.items()
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for node in ast.walk(cls)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and getattr(node.value, "id", None) == "self"
            and not read[node.attr]
        }
        - STORES_ALLOWED
    )
    assert not unread, f"attributes stored on self that nothing in src/ reads: {unread}"


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


def _unread_allowed(module, function, param):
    # run_suite calls every suite as fn(seed, catalog); the deterministic
    # suites take the seed they do not draw from
    return module == "suites.py" and function.startswith("suite_") and param == "seed"


def test_every_parameter_is_read():
    """Each parameter of a function, method or lambda in the package is
    read in its body, so a caller never passes a value nothing uses."""
    unread = []
    for name, tree in _package_trees().items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = fn.args
            params = [x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if x]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            names = (n for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name))
            read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
            function = getattr(fn, "name", "<lambda>")
            unread += [
                f"{name}:{function}:{x}" for x in params if x not in read and not _unread_allowed(name, function, x)
            ]
    assert not unread, f"parameters their function never reads: {sorted(unread)}"


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


def test_only_cli_main_maps_exceptions_to_exit_codes():
    """Subcommands and helpers raise; main alone catches an exception to
    return an exit code, and it alone calls _fail."""
    tree = ast.parse((Path(modplab.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    returning, failing = set(), set()
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.ExceptHandler) and any(
                isinstance(inner, ast.Return) for inner in ast.walk(node)
            ):
                returning.add(top.name)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_fail":
                failing.add(top.name)
    assert returning == failing == {"main"}
