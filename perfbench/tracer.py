"""Outside-in tracer for modplab: wraps the public functions of each layer
from outside the package, runs one command, and reports per-layer figures.

    python3 perfbench/tracer.py cli <modplab arguments>
    python3 perfbench/tracer.py session <session.py arguments>

The command's own output goes to stdout unchanged.  When it ends, one line
`PERFBENCH-TRACE <json>` goes to stderr: per span name the call count and
self time (span time minus the time its child spans cover), plus work counts
computed from call arguments (`mac`, `cells`, `unknowns`, `max_dim`,
`elements`) and memo hits, misses and entries.

modplab's modules import each other's functions by name, so a function is
rebound in every `modplab.*` namespace that holds the same object; methods
are patched on their class.  Spans are aggregated in memory and written once.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import session  # this script's directory is first on sys.path

MARKER = "PERFBENCH-TRACE "


def _field_kind(name):
    return lambda args: f"fields.{name}.{'ext' if args[0].k > 1 else 'prime'}"


# (module, attribute, span name); a callable name picks the span per call.
SPANS = [
    ("modplab.fields", "FiniteField.ax_matmul", _field_kind("ax_matmul")),
    ("modplab.fields", "FiniteField.ax_add", _field_kind("elementwise")),
    ("modplab.fields", "FiniteField.ax_sub", _field_kind("elementwise")),
    ("modplab.fields", "FiniteField.ax_neg", _field_kind("elementwise")),
    ("modplab.fields", "FiniteField.ax_mul", _field_kind("elementwise")),
    ("modplab.fields", "FiniteField.ax_scale", _field_kind("elementwise")),
    ("modplab.fields", "FiniteField.ax_kron", "fields.ax_kron"),
    ("modplab.linalg", "_rref", "linalg.rref"),
    ("modplab.linalg", "row_reduce", "linalg.row_reduce"),
    ("modplab.linalg", "solve", "linalg.solve"),
    ("modplab.linalg", "Subspace.reduce", "linalg.Subspace.reduce"),
    ("modplab.groups", "coset_lookup", "groups.coset_lookup"),
    ("modplab.groups", "all_subgroups", "groups.all_subgroups"),
    ("modplab.reps", "hom_space", "reps.hom_space"),
    ("modplab.reps", "induce", "reps.induce"),
    ("modplab.reps", "restrict", "reps.restrict"),
    ("modplab.reps", "Rep._validate", "reps.Rep.validate"),
    ("modplab.reps", "cyclic_span", "reps.cyclic_span"),
    ("modplab.covers", "frobenius_transport", "covers.frobenius_transport"),
    ("modplab.covers", "cover_map", "covers.cover_map"),
    ("modplab.covers", "assemble_cover", "covers.assemble_cover"),
    ("modplab.covers", "character_eigenspace", "covers.character_eigenspace"),
    ("modplab.covers", "induced_trivial", "covers.induced_trivial"),
    ("modplab.exact", "relative_projectivity_test", "exact.relative_projectivity_test"),
    ("modplab.exact", "u_split_search", "exact.u_split_search"),
    ("modplab.exact", "stable_hom", "exact.stable_hom"),
    ("modplab.exact", "quotient_rep", "exact.quotient_rep"),
    ("modplab.exact", "subrep_on_subspace", "exact.subrep_on_subspace"),
    ("modplab.jordan", "jordan_type", "jordan.jordan_type"),
    ("modplab.fairness", "overlap_depths_bruteforce", "fairness.overlap_depths_bruteforce"),
    ("modplab.fairness", "witness_search", "fairness.witness_search"),
    ("modplab.catalog", "catalog_reps", "catalog.catalog_reps"),
    ("modplab.suites", "run_suite", "suites"),
    ("modplab.reports", "make_report", "reports.make_report"),
    ("modplab.reports", "canonical_json", "reports.canonical_json"),
    ("modplab.cli", "main", "cli"),
]

# Called far too often to time each call; counted only.
COUNTED = [
    ("modplab.fields", "FiniteField.__eq__", "fields.FiniteField.eq.calls"),
    ("modplab.groups", "FinGroup.__eq__", "groups.FinGroup.eq.calls"),
    ("modplab.linalg", "Matrix.__init__", "linalg.Matrix.init.calls"),
]

# memo name -> (module, cache attribute, function that owns the cache, nested)
# A nested cache maps a group to a dict of entries.
MEMOS = {
    "rep_cache": ("modplab.catalog", "_REP_CACHE", "catalog_reps", False),
    "ind_cache": ("modplab.covers", "_IND_CACHE", "induced_trivial", True),
    "ind_self_cache": ("modplab.exact", "_IND_SELF_CACHE", "_induced_from_restriction", True),
}


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.distinct = defaultdict(set)
        self.caches = {}
        self._stack = []

    # ---- wrappers ----

    def span(self, name, fn):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        clock = time.perf_counter
        observe = OBSERVERS.get(name if isinstance(name, str) else fn.__name__)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = name if isinstance(name, str) else name(args)
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                self_s[key] += dur - frame[0]
                calls[key] += 1
            if observe is not None:
                observe(self, key, args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def memo(self, name, cache, nested, fn):
        def size():
            return sum(len(v) for v in cache.values()) if nested else len(cache)

        self.caches[name] = size
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = size()
            result = fn(*args, **kwargs)
            counts[f"memo.{name}.{'misses' if size() > before else 'hits'}"] += 1
            return result

        return wrapper

    # ---- installation ----

    def install(self):
        for module, attr, name in SPANS:
            _patch(module, attr, lambda fn, name=name: self.span(name, fn))
        for module, attr, name in COUNTED:
            _patch(module, attr, lambda fn, name=name: self.counted(name, fn))
        for name, (module, attr, owner, nested) in MEMOS.items():
            cache = getattr(sys.modules[module], attr, None)
            if cache is None:
                continue  # merged or renamed: report the memo as absent
            _patch(module, owner, lambda fn, n=name, c=cache, nd=nested: self.memo(n, c, nd, fn))

    def metrics(self) -> dict:
        out = {}
        for key, n in self.calls.items():
            out[key if key.endswith(".calls") else f"{key}.calls"] = n
        for key, s in self.self_s.items():
            out[f"{key}.self_s"] = s
        for key, n in self.counts.items():
            out[key] = n
        for key, n in self.maxima.items():
            out[key] = n
        for key, seen in self.distinct.items():
            out[key] = len(seen)
        for name, size in self.caches.items():
            out[f"memo.{name}.entries"] = size()
            out.setdefault(f"memo.{name}.hits", 0)
            out.setdefault(f"memo.{name}.misses", 0)
        return out


def _patch(module_name, attr, make):
    """Replace `module.attr` (or `module.Class.method`) with make(original),
    in every modplab namespace that holds the original object.  A name the
    code no longer has is left untraced, and its figures read as absent."""
    module = sys.modules.get(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name, None)
        if cls is not None and meth in vars(cls):
            setattr(cls, meth, make(vars(cls)[meth]))
        return
    original = getattr(module, attr, None)
    if original is None:
        return
    wrapped = make(original)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "modplab" or mod_name.startswith("modplab.")):
            continue
        for key in [k for k, v in vars(mod).items() if v is original]:
            setattr(mod, key, wrapped)


# ---- computed work counts, read from call arguments and results ----


def _obs_matmul(t, key, args, result):
    (n, m), r = args[1].shape, args[2].shape[1]
    t.counts[f"{key}.mac"] += n * m * r


def _obs_elementwise(t, key, args, result):
    t.counts[f"{key}.elems"] += int(result.size)


def _obs_rref(t, key, args, result):
    rows, cols = args[1].shape
    t.counts["linalg.rref.cells"] += rows * cols
    t.maxima["linalg.rref.max_cols"] = max(t.maxima["linalg.rref.max_cols"], cols)


def _obs_solve(t, key, args, result):
    if result is None:
        t.counts["linalg.solve.inconsistent"] += 1


def _obs_coset_lookup(t, key, args, result):
    G, U = args[0], args[1]
    t.distinct["groups.coset_lookup.distinct"].add((hash(G), U.members))


def _obs_hom_space(t, key, args, result):
    unknowns = args[0].dim * args[1].dim
    t.counts["reps.hom_space.unknowns"] += unknowns
    t.maxima["reps.hom_space.max_unknowns"] = max(
        t.maxima["reps.hom_space.max_unknowns"], unknowns
    )


def _obs_validate(t, key, args, result):
    t.maxima["reps.max_dim"] = max(t.maxima["reps.max_dim"], args[0].dim)


def _obs_split(t, key, args, result):
    if result is not None:
        t.counts["exact.u_split_search.found"] += 1


def _obs_bruteforce(t, key, args, result):
    p, N, _m, n = args[:4]
    t.counts["fairness.overlap_depths_bruteforce.elements"] += p ** (3 * (N - n))


def _obs_canonical_json(t, key, args, result):
    t.counts["reports.bytes"] += len(result.encode("utf-8"))


OBSERVERS = {
    "ax_matmul": _obs_matmul,
    "ax_add": _obs_elementwise,
    "ax_sub": _obs_elementwise,
    "ax_neg": _obs_elementwise,
    "ax_mul": _obs_elementwise,
    "ax_scale": _obs_elementwise,
    "linalg.rref": _obs_rref,
    "linalg.solve": _obs_solve,
    "groups.coset_lookup": _obs_coset_lookup,
    "reps.hom_space": _obs_hom_space,
    "reps.Rep.validate": _obs_validate,
    "exact.u_split_search": _obs_split,
    "fairness.overlap_depths_bruteforce": _obs_bruteforce,
    "reports.canonical_json": _obs_canonical_json,
}


def main(argv: list[str]) -> int:
    target, rest = argv[0], argv[1:]
    import modplab  # noqa: F401  (loads every layer before patching)
    import modplab.cli

    tracer = Tracer()
    tracer.install()
    try:
        if target == "cli":
            code = modplab.cli.main(rest)
        elif target == "session":
            code = session.main(rest)
        else:
            raise SystemExit(f"unknown target {target!r}")
    finally:
        sys.stdout.flush()
        sys.stderr.write(MARKER + json.dumps(tracer.metrics(), sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
