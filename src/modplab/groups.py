"""Finite groups given by multiplication tables, and their subgroup calculus.

Elements are indices 0..n-1 into the table.  Construction through
``group_from_table`` validates everything, including exhaustive
associativity; internal constructors that multiply in an already
associative structure skip that O(n^3) pass.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

SUBGROUP_ENUM_CAP = 192


class FinGroup:
    __slots__ = (
        "order",
        "table",
        "identity",
        "inverse",
        "labels",
        "_gens",
        "_subgroups",
        "_subgroup_cache",
        "_join_cache",
        "_center",
        "_hash",
    )

    def __init__(self, table, labels: Sequence[str] | None = None, validate: bool = True):
        raw = np.asarray(table)
        if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
            raise ValueError("table must be square")
        n = raw.shape[0]
        if n == 0:
            raise ValueError("empty table")
        # kind and range are checked before the int16 cast, which would
        # truncate 1.5 to 1 and overflow on large entries
        if raw.dtype.kind not in "iu":
            raise ValueError("table entries must be integers")
        if raw.min() < 0 or raw.max() >= n:
            raise ValueError("table entry out of range")
        T = raw.astype(np.int16)
        ar = np.arange(n, dtype=np.int16)
        if not (np.sort(T, axis=1) == ar).all():
            raise ValueError("table rows are not permutations")
        if not (np.sort(T, axis=0) == ar[:, None]).all():
            raise ValueError("table columns are not permutations")
        # e is a two-sided identity when row e and column e are both ar
        ids = np.flatnonzero((T == ar).all(axis=1) & (T == ar[:, None]).all(axis=0))
        if len(ids) != 1:
            raise ValueError("no two-sided identity")
        e = ids[0]
        if validate:
            _check_associative(T)
        # each row of a latin square holds e exactly once, in row order
        inv = np.nonzero(T == e)[1].astype(np.int16)
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != n:
                raise ValueError("label count mismatch")
        T.flags.writeable = False
        inv.flags.writeable = False
        self.order = n
        self.table = T
        self.identity = int(e)
        self.inverse = inv
        self.labels = labels
        self._gens = None
        self._subgroups = None
        self._subgroup_cache = {}
        self._join_cache = {}
        self._center = None
        self._hash = None

    # ---- basic operations ----

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def element_order(self, a: int) -> int:
        n, x = 1, a
        while x != self.identity:
            x = self.mul(x, a)
            n += 1
        return n

    def elements(self) -> range:
        return range(self.order)

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def label(self, a: int) -> str:
        return self.labels[a] if self.labels else str(a)

    def generators(self) -> tuple[int, ...]:
        """A small generating set, chosen greedily in index order."""
        if self._gens is None:
            self._gens = _greedy_generators(self, range(self.order))
        return self._gens

    def center_members(self) -> tuple[int, ...]:
        if self._center is None:
            # a is central when row a of the table equals column a
            self._center = tuple(np.flatnonzero((self.table == self.table.T).all(axis=1)).tolist())
        return self._center

    # ---- builders ----

    @staticmethod
    def from_elements(elems: Sequence, compose: Callable, labels: Sequence[str] | None = None) -> "FinGroup":
        """Group on the listed elements under a known-associative composition."""
        index = {x: i for i, x in enumerate(elems)}
        if len(index) != len(elems):
            raise ValueError("duplicate elements")
        n = len(elems)
        T = np.empty((n, n), dtype=np.int16)
        for i, x in enumerate(elems):
            for j, y in enumerate(elems):
                T[i, j] = index[compose(x, y)]
        return FinGroup(T, labels=labels, validate=False)

    @staticmethod
    def direct_product(A: "FinGroup", B: "FinGroup") -> "FinGroup":
        pairs = [(a, b) for a in range(A.order) for b in range(B.order)]
        labels = None
        if A.labels and B.labels:
            labels = [f"{A.labels[a]}|{B.labels[b]}" for a, b in pairs]
        return FinGroup.from_elements(
            pairs, lambda x, y: (A.mul(x[0], y[0]), B.mul(x[1], y[1])), labels
        )

    def to_json(self) -> dict:
        out = {"order": self.order, "table": [[int(x) for x in row] for row in self.table]}
        if self.labels:
            out["labels"] = list(self.labels)
        return out

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, FinGroup)
            and self.order == other.order
            and bool(np.array_equal(self.table, other.table))
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.order, self.table.tobytes()))
        return self._hash

    def __repr__(self):
        return f"FinGroup(order={self.order})"


def _check_associative(T: np.ndarray):
    n, chunk = T.shape[0], 32  # rows per (chunk, n, n) comparison
    for start in range(0, n, chunk):
        block = T[start : start + chunk]  # (c, n)
        left = T[block, :]  # (c, n, n): (i j) k
        right = block[:, T.reshape(-1)].reshape(block.shape[0], n, n)  # i (j k)
        if not np.array_equal(left, right):
            raise ValueError("table is not associative")


def group_from_table(table, labels: Sequence[str] | None = None) -> FinGroup:
    """Fully validated construction from raw table data."""
    return FinGroup(table, labels=labels)


def _closure(G: FinGroup, seed) -> np.ndarray:
    """Membership mask of the subgroup generated by seed (a list or array of
    element indices, or a mask): all products of the set with itself are
    added until nothing new appears.  A product-closed subset of a finite
    group holds inverses."""
    got = np.zeros(G.order, dtype=bool)
    got[G.identity] = True
    got[seed] = True
    size = 0
    while (grown := np.count_nonzero(got)) > size:
        size = grown
        ms = np.flatnonzero(got)
        got[G.table[ms[:, None], ms]] = True
    return got


def _greedy_generators(G: FinGroup, members: Sequence[int]) -> tuple[int, ...]:
    """Generators of the subgroup on members: each member, in the given
    order, that the earlier ones do not reach."""
    gens: list[int] = []
    reach = _closure(G, [])
    for g in members:
        if not reach[g]:
            gens.append(int(g))
            reach[g] = True
            reach = _closure(G, reach)
            if np.count_nonzero(reach) == len(members):
                break
    return tuple(gens)


class Subgroup:
    """A subgroup of a FinGroup, held as its sorted member index tuple."""

    __slots__ = ("parent", "members", "_local", "_group", "_gens", "_cosets")

    def __init__(self, parent: FinGroup, members: Iterable[int]):
        self.parent = parent
        self.members = tuple(sorted(set(int(m) for m in members)))
        self._local = None
        self._group = None
        self._gens = None
        self._cosets = None
        inside = self.local_index >= 0
        if not inside[parent.identity]:
            raise ValueError("identity missing")
        # the first member to fail decides the error, inverse before product
        ms = list(self.members)
        no_inv = ~inside[parent.inverse[ms]]
        no_prod = ~inside[parent.table[np.ix_(ms, ms)]].all(axis=1)
        bad = np.flatnonzero(no_inv | no_prod)
        if len(bad):
            what = "inverse" if no_inv[bad[0]] else "product"
            raise ValueError(f"not closed under {what}")

    @staticmethod
    def generate(parent: FinGroup, gens: Iterable[int]) -> "Subgroup":
        return parent._subgroup(np.flatnonzero(_closure(parent, list(gens))))

    @staticmethod
    def trivial(parent: FinGroup) -> "Subgroup":
        return parent._subgroup((parent.identity,))

    @staticmethod
    def full(parent: FinGroup) -> "Subgroup":
        return parent._subgroup(range(parent.order))

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def index(self) -> int:
        return self.parent.order // self.order

    @property
    def local_index(self) -> np.ndarray:
        """Read-only parent-sized array: a member's index in the subgroup
        (its element in as_group()), -1 for elements outside it."""
        if self._local is None:
            at = np.full(self.parent.order, -1, dtype=np.intp)
            at[list(self.members)] = np.arange(self.order)
            at.flags.writeable = False
            self._local = at
        return self._local

    def contains(self, a: int) -> bool:
        return bool(self.local_index[a] >= 0)

    def local(self, a: int) -> int:
        """Index of a parent element inside as_group()."""
        i = int(self.local_index[a])
        if i < 0:
            raise KeyError(a)
        return i

    def as_group(self) -> FinGroup:
        """The subgroup as a standalone FinGroup; element i is members[i].

        The full subgroup is its parent, so it shares the parent's caches.
        """
        if self._group is None:
            G = self.parent
            if self.order == G.order:
                self._group = G
                return G
            ms = list(self.members)
            labels = [G.label(m) for m in ms] if G.labels else None
            T = self.local_index[G.table[np.ix_(ms, ms)]]
            self._group = FinGroup(T, labels=labels, validate=False)
        return self._group

    def generators(self) -> tuple[int, ...]:
        """Parent indices generating the subgroup, greedy in index order."""
        if self._gens is None:
            self._gens = _greedy_generators(self.parent, self.members)
        return self._gens

    def intersect(self, other: "Subgroup") -> "Subgroup":
        if self.parent is not other.parent and self.parent != other.parent:
            raise ValueError("different parents")
        return self.parent._subgroup(set(self.members) & set(other.members))

    def join(self, other: "Subgroup") -> "Subgroup":
        """Smallest subgroup containing both (the product set when one is
        central), memoised on the parent."""
        key = (self.members, other.members)
        hit = self.parent._join_cache.get(key)
        if hit is None:
            hit = Subgroup.generate(self.parent, set(self.members) | set(other.members))
            self.parent._join_cache[key] = hit
        return hit

    def is_central(self) -> bool:
        zc = set(self.parent.center_members())
        return all(m in zc for m in self.members)

    def to_json(self) -> list[int]:
        return list(self.members)

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.parent == other.parent
            and self.members == other.members
        )

    def __hash__(self):
        return hash((hash(self.parent), self.members))

    def __repr__(self):
        return f"Subgroup({self.members})"


def _subgroup(self: FinGroup, members) -> Subgroup:
    key = tuple(sorted(set(int(m) for m in members)))
    hit = self._subgroup_cache.get(key)
    if hit is None:
        hit = Subgroup(self, key)
        self._subgroup_cache[key] = hit
    return hit


FinGroup._subgroup = _subgroup


def coset_lookup(G: FinGroup, U: Subgroup) -> tuple[np.ndarray, np.ndarray]:
    """Least members of the right cosets Ug in increasing order, and the
    position of each element's coset among them, as read-only arrays.

    G must be U's parent.  It stays an argument because perfbench/tracer.py
    reads the group and the subgroup of each call to count distinct lookups.
    The pair is computed once and kept on U, so every call returns the same
    arrays.
    """
    if G != U.parent:
        raise ValueError("G must be U's parent group")
    if U._cosets is None:
        # column g of the table rows of U is the coset Ug, so its minimum
        # is that coset's least member
        least = G.table[list(U.members)].min(axis=0)
        is_rep = np.zeros(G.order, dtype=bool)
        is_rep[least] = True
        reps, pos = np.flatnonzero(is_rep), (np.cumsum(is_rep) - 1)[least]
        reps.flags.writeable = False
        pos.flags.writeable = False
        U._cosets = (reps, pos)
    return U._cosets


def conjugate_intersect(K: Subgroup, H: Subgroup, g: int) -> Subgroup:
    """K meet gHg^-1 inside the common parent."""
    G = K.parent
    conj = G.table[G.table[g, list(H.members)], G.inverse[g]]
    return G._subgroup(conj[K.local_index[conj] >= 0])


def all_subgroups(G: FinGroup) -> tuple[Subgroup, ...]:
    """Every subgroup, by closing each known subgroup S with one more element
    g (Neubueser's cyclic extension).  <S, g> = <S, sg>, so one g per right
    coset Sg is enough."""
    if G.order > SUBGROUP_ENUM_CAP:
        raise ValueError(f"group order {G.order} exceeds enumeration cap {SUBGROUP_ENUM_CAP}")
    if G._subgroups is None:
        found = {(G.identity,)}
        frontier = [(G.identity,)]
        while frontier:
            new = []
            for S in frontier:
                for g in coset_lookup(G, G._subgroup(S))[0]:
                    if g == S[0]:
                        continue  # the least member of S is S's own coset
                    T = tuple(np.flatnonzero(_closure(G, [*S, g])).tolist())
                    if T not in found:
                        found.add(T)
                        new.append(T)
            frontier = new
        subs = sorted(found, key=lambda s: (len(s), s))
        G._subgroups = tuple(G._subgroup(s) for s in subs)
    return G._subgroups
