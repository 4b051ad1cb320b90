"""Built-in groups, fields, and representation menages used by the
verification suites, with fixed element orderings so that witnesses,
coset representatives, and report output are stable across runs.

Group elements are listed identity-first except where a construction
dictates otherwise; every table goes through the validating constructor.
"""

from __future__ import annotations

import itertools
import json
import os

from .covers import induced_trivial
from .fields import FiniteField
from .groups import FinGroup, Subgroup, all_subgroups
from .jordan import cyclic_generator, jordan_block_rep
from .reps import Rep, character_rep, group_characters, regular_rep, trivial_rep

__all__ = [
    "cyclic_group",
    "klein_group",
    "sym3",
    "dihedral4",
    "quaternion8",
    "alt4",
    "catalog_groups",
    "catalog_fields",
    "catalog_reps",
    "group_from_json",
    "load_catalog",
]


def cyclic_group(n: int) -> FinGroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    labels = ["e"] + [f"g{k}" if k > 1 else "g" for k in range(1, n)]
    return FinGroup(table, labels)


def _compose(a, b):
    """The permutation a after b, each a tuple of images."""
    return tuple(a[x] for x in b)


def _perm_group(perms, labels) -> FinGroup:
    return FinGroup.from_elements(list(perms), _compose, labels)


def klein_group() -> FinGroup:
    return FinGroup([[i ^ j for j in range(4)] for i in range(4)], ["e", "a", "b", "ab"])


def sym3() -> FinGroup:
    perms = [
        (0, 1, 2),
        (1, 2, 0),  # the 3-cycle sending 0 to 1
        (2, 0, 1),
        (1, 0, 2),
        (2, 1, 0),
        (0, 2, 1),
    ]
    labels = ["e", "(012)", "(021)", "(01)", "(02)", "(12)"]
    return _perm_group(perms, labels)


def dihedral4() -> FinGroup:
    r, s = (1, 2, 3, 0), (0, 3, 2, 1)
    rotations = [(0, 1, 2, 3), r, _compose(r, r), _compose(r, _compose(r, r))]
    perms = rotations + [_compose(x, s) for x in rotations]
    return _perm_group(perms, ["e", "r", "r2", "r3", "s", "rs", "r2s", "r3s"])


def quaternion8() -> FinGroup:
    """Q8 as 2 x 2 matrices over Z/3, each a row-major 4-tuple:
    i = [[0, -1], [1, 0]], j = [[1, 1], [1, -1]] and k = ij."""
    mul = lambda a, b: tuple(  # noqa: E731
        (a[r] * b[c] + a[r + 1] * b[c + 2]) % 3 for r in (0, 2) for c in (0, 1)
    )
    i, j = (0, 2, 1, 0), (1, 1, 1, 2)
    elems = [x for u in ((1, 0, 0, 1), i, j, mul(i, j)) for x in (u, mul((2, 0, 0, 2), u))]
    return FinGroup.from_elements(elems, mul, ["1", "-1", "i", "-i", "j", "-j", "k", "-k"])


def alt4() -> FinGroup:
    perms = []
    for p in itertools.permutations(range(4)):
        inversions = sum(
            1 for i in range(4) for j in range(i + 1, 4) if p[i] > p[j]
        )
        if inversions % 2 == 0:
            perms.append(p)
    perms.sort()  # identity is lexicographically first
    labels = ["".join(map(str, p)) for p in perms]
    return _perm_group(perms, labels)


_GROUPS: dict[str, FinGroup] = {}
_FIELDS: dict[str, FiniteField] = {}


def catalog_groups() -> dict[str, FinGroup]:
    if not _GROUPS:
        _GROUPS.update(
            {
                "C2": cyclic_group(2),
                "C3": cyclic_group(3),
                "C4": cyclic_group(4),
                "C5": cyclic_group(5),
                "C6": FinGroup.direct_product(cyclic_group(2), cyclic_group(3)),
                "C9": cyclic_group(9),
                "V4": klein_group(),
                "S3": sym3(),
                "D4": dihedral4(),
                "Q8": quaternion8(),
                "A4": alt4(),
            }
        )
    return _GROUPS


def catalog_fields() -> dict[str, FiniteField]:
    if not _FIELDS:
        _FIELDS.update(
            {
                "F2": FiniteField(2),
                "F3": FiniteField(3),
                "F4": FiniteField(2, 2),
                "F5": FiniteField(5),
                "F9": FiniteField(3, 2),
            }
        )
    return _FIELDS


_REP_CACHE: dict = {}


def catalog_reps(G: FinGroup, field: FiniteField, max_dim: int = 4) -> dict[str, Rep]:
    """Named representations of G over the field, all of dim <= max_dim:
    trivial ones, the nontrivial one-dimensional characters, permutation
    modules on coset spaces, the regular representation when it fits, and
    unipotent Jordan blocks for cyclic groups of characteristic order."""
    key = (G, field.key(), max_dim)
    hit = _REP_CACHE.get(key)
    if hit is not None:
        if hit["triv"].group is not G:
            # an equal table on another group object: hand back reps on the
            # caller's G, so later group checks compare by identity
            return {name: Rep._of(G, field, V.T) for name, V in hit.items()}
        return hit
    out: dict[str, Rep] = {"triv": trivial_rep(G, field, 1)}
    if max_dim >= 2:
        out["triv2"] = trivial_rep(G, field, 2)
    count = 0
    for vals in group_characters(G, field):
        if all(v == 1 for v in vals):
            continue
        count += 1
        out[f"char{count}"] = character_rep(G, field, vals)
    subs = all_subgroups(G)
    for d in range(2, max_dim + 1):
        if G.order % d:
            continue
        target = G.order // d
        U = next((S for S in subs if S.order == target), None)
        if U is not None:
            out[f"perm{d}"] = induced_trivial(U, field)
    if G.order <= max_dim:
        out["reg"] = regular_rep(G, field)
    if cyclic_generator(G, field.p) is not None:
        for size in range(2, min(G.order, max_dim) + 1):
            out[f"jordan{size}"] = jordan_block_rep(G, field, size)
    _REP_CACHE[key] = out
    return out


# ---------------------------------------------------------------------------
# JSON round trips


def group_from_json(data: dict) -> FinGroup:
    if not isinstance(data, dict):
        raise ValueError("a group must be a JSON object with a table")
    return FinGroup(data["table"], data.get("labels"))


def _add(named: dict, kind: str, name, value, builtins: dict) -> None:
    """named[name] = value for a new string name: a repeat would silently
    replace the earlier entry.  A built-in name keeps its meaning, since
    some cases pick their inputs by name: the value must equal the
    built-in, a group by its table and a field by its key."""
    # suites sort the names, so a mix of types would fail there
    if not isinstance(name, str):
        raise ValueError(f"catalog names must be strings, not {name!r}")
    if name in named:
        raise ValueError(f"repeated {kind} name {name!r}")
    if name in builtins and builtins[name] != value:
        raise ValueError(f"{kind} name {name!r} is built in, for another {kind}")
    named[name] = value


def load_catalog(path: str) -> dict:
    """Catalog file: {"groups": [path | {"ref": name} | {"name":, "table":, "labels"?}],
    "fields": [{"name":, "p":, "k"?}]}; paths point at group JSON files and
    refs resolve against the built-ins."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("catalog must be a JSON object")
    base = os.path.dirname(os.path.abspath(path))
    builtin_groups, builtin_fields = catalog_groups(), catalog_fields()
    try:
        groups: dict[str, FinGroup] = {}
        for entry in data.get("groups", []):
            if isinstance(entry, str):
                gpath = entry if os.path.isabs(entry) else os.path.join(base, entry)
                with open(gpath, encoding="utf-8") as gh:
                    gdata = json.load(gh)
                name = gdata.get("name") or os.path.splitext(os.path.basename(gpath))[0]
                G = group_from_json(gdata)
            elif "ref" in entry:
                name = entry["ref"]
                G = builtin_groups.get(name)
                if G is None:
                    raise ValueError(f"unknown group reference {name!r}")
            else:
                name, G = entry["name"], group_from_json(entry)
            _add(groups, "group", name, G, builtin_groups)
        fields: dict[str, FiniteField] = {}
        for entry in data.get("fields", []):
            f = FiniteField(entry["p"], entry.get("k", 1))
            _add(fields, "field", entry.get("name", f"F{f.order}"), f, builtin_fields)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed catalog entry: {exc!r}") from exc
    if not groups or not fields:
        raise ValueError("catalog must list at least one group and one field")
    return {"groups": groups, "fields": fields}


def subgroup_id(U: Subgroup) -> str:
    """Stable identifier of a subgroup inside its parent's enumeration."""
    return "o%d.%s" % (U.order, "-".join(map(str, U.members)))
