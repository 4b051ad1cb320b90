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
        if not all(np.array_equal(np.sort(T[i]), ar) for i in range(n)):
            raise ValueError("table rows are not permutations")
        if not all(np.array_equal(np.sort(T[:, j]), ar) for j in range(n)):
            raise ValueError("table columns are not permutations")
        ids = [i for i in range(n) if np.array_equal(T[i], ar) and np.array_equal(T[:, i], ar)]
        if len(ids) != 1:
            raise ValueError("no two-sided identity")
        e = ids[0]
        if validate:
            _check_associative(T)
        inv = np.empty(n, dtype=np.int16)
        for a in range(n):
            hits = np.nonzero(T[a] == e)[0]
            if len(hits) != 1:
                raise ValueError("missing inverse")  # cannot happen in a latin square
            inv[a] = hits[0]
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
        self._subgroups = {}
        self._subgroup_cache = {}
        self._join_cache = {}
        self._center = None
        self._hash = None

    # ---- basic operations ----

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def conj(self, a: int, g: int) -> int:
        """g a g^-1."""
        return int(self.table[self.table[g, a], self.inverse[g]])

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
            gens: list[int] = []
            reach = {self.identity}
            for g in range(self.order):
                if g not in reach:
                    gens.append(g)
                    reach = _closure(self, reach | {g})
                    if len(reach) == self.order:
                        break
            self._gens = tuple(gens)
        return self._gens

    def center_members(self) -> tuple[int, ...]:
        if self._center is None:
            T = self.table
            self._center = tuple(
                int(a) for a in range(self.order) if np.array_equal(T[a], T[:, a])
            )
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


def _check_associative(T: np.ndarray, chunk: int = 32):
    n = T.shape[0]
    for start in range(0, n, chunk):
        block = T[start : start + chunk]  # (c, n)
        left = T[block, :]  # (c, n, n): (i j) k
        right = block[:, T.reshape(-1)].reshape(block.shape[0], n, n)  # i (j k)
        if not np.array_equal(left, right):
            raise ValueError("table is not associative")


def group_from_table(table, labels: Sequence[str] | None = None) -> FinGroup:
    """Fully validated construction from raw table data."""
    return FinGroup(table, labels=labels, validate=True)


def _closure(G: FinGroup, seed: Iterable[int]) -> frozenset[int]:
    got = set(seed) | {G.identity}
    frontier = list(got)
    T = G.table
    while frontier:
        new = []
        for a in frontier:
            for b in list(got):
                for c in (int(T[a, b]), int(T[b, a])):
                    if c not in got:
                        got.add(c)
                        new.append(c)
        frontier = new
    # closure under products of a finite group subset contains inverses
    return frozenset(got)


class Subgroup:
    """A subgroup of a FinGroup, held as its sorted member index tuple."""

    __slots__ = ("parent", "members", "_local", "_group", "_gens", "_cosets")

    def __init__(self, parent: FinGroup, members: Iterable[int], validate: bool = True):
        ms = tuple(sorted(set(int(m) for m in members)))
        if validate:
            mset = set(ms)
            if parent.identity not in mset:
                raise ValueError("identity missing")
            for a in ms:
                if parent.inv(a) not in mset:
                    raise ValueError("not closed under inverse")
                for b in ms:
                    if parent.mul(a, b) not in mset:
                        raise ValueError("not closed under product")
        self.parent = parent
        self.members = ms
        self._local = None
        self._group = None
        self._gens = None
        self._cosets = None

    @staticmethod
    def generate(parent: FinGroup, gens: Iterable[int]) -> "Subgroup":
        return parent._subgroup(_closure(parent, gens))

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

    def contains(self, a: int) -> bool:
        if self._local is None:
            self._local = {m: i for i, m in enumerate(self.members)}
        return a in self._local

    def local(self, a: int) -> int:
        """Index of a parent element inside as_group()."""
        if self._local is None:
            self._local = {m: i for i, m in enumerate(self.members)}
        return self._local[a]

    def as_group(self) -> FinGroup:
        """The subgroup as a standalone FinGroup; element i is members[i].

        The full subgroup is its parent, so it shares the parent's caches.
        """
        if self._group is None:
            G = self.parent
            if self.order == G.order:
                self._group = G
                return G
            loc = {m: i for i, m in enumerate(self.members)}
            T = [[loc[G.mul(a, b)] for b in self.members] for a in self.members]
            labels = [G.label(m) for m in self.members] if G.labels else None
            self._group = FinGroup(T, labels=labels, validate=False)
        return self._group

    def generators(self) -> tuple[int, ...]:
        """Parent indices generating the subgroup, greedy in index order."""
        if self._gens is None:
            gens: list[int] = []
            reach = {self.parent.identity}
            for g in self.members:
                if g not in reach:
                    gens.append(g)
                    reach = _closure(self.parent, reach | {g})
                    if len(reach) == self.order:
                        break
            self._gens = tuple(gens)
        return self._gens

    def conjugate(self, g: int) -> "Subgroup":
        G = self.parent
        return G._subgroup((G.conj(m, g) for m in self.members))

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
        hit = Subgroup(self, key, validate=True)
        self._subgroup_cache[key] = hit
    return hit


FinGroup._subgroup = _subgroup


def coset_reps(G: FinGroup, U: Subgroup, H: Subgroup | None = None) -> tuple[int, ...]:
    """Minimal-index representatives for U\\G (or U\\G/H), in increasing order.

    Scanning elements in index order makes each first-unseen element the
    minimal member of its coset.
    """
    T = G.table
    seen = np.zeros(G.order, dtype=bool)
    reps = []
    for g in range(G.order):
        if seen[g]:
            continue
        reps.append(g)
        ug = T[list(U.members), g]
        if H is None:
            seen[ug] = True
        else:
            seen[T[np.asarray(ug)[:, None], np.array(list(H.members))[None, :]].reshape(-1)] = True
    return tuple(reps)


def coset_lookup(G: FinGroup, U: Subgroup) -> tuple[tuple[int, ...], dict[int, int]]:
    """Representatives of U\\G plus a map element -> its coset's position.

    When G is U's own parent the pair is computed once and kept on U, so
    every call returns the same dict: callers only read ``pos``, and must
    not modify it.
    """
    if G is U.parent and U._cosets is not None:
        return U._cosets
    reps = coset_reps(G, U)
    pos: dict[int, int] = {}
    for i, r in enumerate(reps):
        for u in U.members:
            pos[G.mul(u, r)] = i
    out = (reps, pos)
    if G is U.parent:
        U._cosets = out
    return out


def conjugate_intersect(K: Subgroup, H: Subgroup, g: int) -> Subgroup:
    """K meet gHg^-1 inside the common parent."""
    G = K.parent
    conj = {G.conj(h, g) for h in H.members}
    return G._subgroup(conj & set(K.members))


def all_subgroups(G: FinGroup, cap: int = SUBGROUP_ENUM_CAP) -> tuple[Subgroup, ...]:
    """Every subgroup, by closing each known subgroup with one more element."""
    if G.order > cap:
        raise ValueError(f"group order {G.order} exceeds enumeration cap {cap}")
    if cap not in G._subgroups:
        found = {frozenset({G.identity})}
        frontier = [frozenset({G.identity})]
        while frontier:
            new = []
            for S in frontier:
                for g in range(G.order):
                    if g in S:
                        continue
                    T = _closure(G, S | {g})
                    if T not in found:
                        found.add(T)
                        new.append(T)
            frontier = new
        subs = sorted(found, key=lambda s: (len(s), tuple(sorted(s))))
        G._subgroups[cap] = tuple(G._subgroup(s) for s in subs)
    return G._subgroups[cap]

