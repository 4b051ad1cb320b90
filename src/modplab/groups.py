"""Finite groups given by multiplication tables, and their subgroup calculus.

Elements are indices 0..n-1 into the table.  ``FinGroup(table, labels)``
validates outside tables, associativity included (by Light's test on a
generating set, O(n^2) per generator); internal constructors that multiply
in an already associative structure pass ``validate=False`` to skip that
test.  Element indices from outside (the members given to ``Subgroup``,
the generators given to ``Subgroup.generate``, the g of
``conjugate_intersect``, and the element of ``FinGroup.mul``, ``.inv``,
``.label``, ``.element_order``, ``Subgroup.contains`` and ``.local``) are
each checked by ``FinGroup._element``; loops that already hold checked
indices read ``table`` directly.
``FinGroup.to_json`` is public API that nothing in the package calls: it
writes the group JSON file that catalogs and ``--group PATH`` read, so a
group built in Python (a direct product, say) can be saved for them.
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
        e = int(ids[0])
        gens = _check_associative(T, e) if validate else None
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
        self.identity = e
        self.inverse = inv
        self.labels = labels
        self._gens = gens
        self._subgroups = None
        self._subgroup_cache = {}
        self._join_cache = {}
        self._center = None
        self._hash = None

    # ---- basic operations ----

    def mul(self, a: int, b: int) -> int:
        return int(self.table[self._element(a), self._element(b)])

    def inv(self, a: int) -> int:
        return int(self.inverse[self._element(a)])

    def element_order(self, a: int) -> int:
        a = self._element(a)
        n, x = 1, a
        while x != self.identity:
            x = int(self.table[x, a])
            n += 1
        return n

    def elements(self) -> range:
        return range(self.order)

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def _element(self, a) -> int:
        """An element index from outside as an int, checked to lie in
        0..n-1: numpy would wrap -1 to the last element."""
        m = int(a)
        if not 0 <= m < self.order:
            raise ValueError(f"element index {m} out of range")
        return m

    def label(self, a: int) -> str:
        a = self._element(a)
        return self.labels[a] if self.labels else str(a)

    def generators(self) -> tuple[int, ...]:
        """A small generating set, chosen greedily in index order."""
        if self._gens is None:
            self._gens = _greedy_generators(self.table, self.identity, range(self.order))
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
            pairs, lambda x, y: (int(A.table[x[0], y[0]]), int(B.table[x[1], y[1]])), labels
        )

    def _subgroup(self, members) -> "Subgroup":
        """The subgroup on these members, made once per member set."""
        key = tuple(sorted(set(int(m) for m in members)))
        hit = self._subgroup_cache.get(key)
        if hit is None:
            hit = Subgroup(self, key)
            self._subgroup_cache[key] = hit
        return hit

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


def _check_associative(T: np.ndarray, e: int) -> tuple[int, ...]:
    """Light's test, returning the generators it checked.  The elements a
    with (xa)y = x(ay) for all x and y are closed under the operation, and
    e is one of them, so the table is associative when every generator of
    the table passes (Clifford and Preston, The Algebraic Theory of
    Semigroups I, 1961, section 1.2).  The greedy generators come from
    closing subsets under the table, which needs no associativity."""
    gens = _greedy_generators(T, e, range(T.shape[0]))
    for a in gens:
        # column a read at each xa, against row a's entries as columns
        if not np.array_equal(T[T[:, a]], T[:, T[a]]):
            raise ValueError("table is not associative")
    return gens


def _closure(T: np.ndarray, e: int, seed) -> np.ndarray:
    """Membership mask of the closure of seed (a list or array of element
    indices, or a mask) and the identity e under the table T: all products
    of the set with itself are added until nothing new appears.  In a group
    this is the subgroup generated, since a product-closed subset of a
    finite group holds inverses."""
    got = np.zeros(T.shape[0], dtype=bool)
    got[e] = True
    got[seed] = True
    size = 0
    while (grown := np.count_nonzero(got)) > size:
        size = grown
        ms = np.flatnonzero(got)
        got[T[ms[:, None], ms]] = True
    return got


def _greedy_generators(T: np.ndarray, e: int, members: Sequence[int]) -> tuple[int, ...]:
    """Generators of the closure on members under the table T with
    identity e: each member, in the given order, that the earlier ones do
    not reach."""
    gens: list[int] = []
    reach = _closure(T, e, [])
    for g in members:
        if not reach[g]:
            gens.append(int(g))
            reach[g] = True
            reach = _closure(T, e, reach)
            if np.count_nonzero(reach) == len(members):
                break
    return tuple(gens)


class Subgroup:
    """A subgroup of a FinGroup, held as its sorted member index tuple."""

    __slots__ = ("parent", "members", "_local", "_group", "_gens", "_cosets", "_action")

    def __init__(self, parent: FinGroup, members: Iterable[int]):
        self.parent = parent
        self.members = tuple(sorted(set(parent._element(m) for m in members)))
        self._local = None
        self._group = None
        self._gens = None
        self._cosets = None
        self._action = None
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
        seed = [parent._element(g) for g in gens]
        return parent._subgroup(np.flatnonzero(_closure(parent.table, parent.identity, seed)))

    @staticmethod
    def trivial(parent: FinGroup) -> "Subgroup":
        return parent._subgroup((parent.identity,))

    @staticmethod
    def full(parent: FinGroup) -> "Subgroup":
        # the members are already sorted and distinct: look the cache key up
        # before _subgroup sorts them again
        key = tuple(range(parent.order))
        return parent._subgroup_cache.get(key) or parent._subgroup(key)

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
        return bool(self.local_index[self.parent._element(a)] >= 0)

    def local(self, a: int) -> int:
        """Index of a parent element inside as_group()."""
        i = int(self.local_index[self.parent._element(a)])
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
            labels = [G.labels[m] for m in ms] if G.labels else None
            T = self.local_index[G.table[np.ix_(ms, ms)]]
            self._group = FinGroup(T, labels=labels, validate=False)
        return self._group

    def generators(self) -> tuple[int, ...]:
        """Parent indices generating the subgroup, greedy in index order."""
        if self._gens is None:
            self._gens = _greedy_generators(self.parent.table, self.parent.identity, self.members)
        return self._gens

    def intersect(self, other: "Subgroup") -> "Subgroup":
        if self.parent is not other.parent and self.parent != other.parent:
            raise ValueError("different parents")
        return self.parent._subgroup(set(self.members) & set(other.members))

    def join(self, other: "Subgroup") -> "Subgroup":
        """Smallest subgroup containing both (the product set when one is
        central), memoised on the parent."""
        if self.parent is not other.parent and self.parent != other.parent:
            raise ValueError("different parents")
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


def coset_action(U: Subgroup) -> tuple[np.ndarray, np.ndarray]:
    """How U's parent G moves the right cosets of U, as two read-only
    (|G|, index) arrays in coset_lookup's order: g sends coset i to coset
    j[g, i], and u[g, i] = r_j g r_i^-1, the member of U that r_j g and r_i
    differ by.  Computed and checked once per subgroup and kept on U."""
    if U._action is None:
        G = U.parent
        R, pos = coset_lookup(G, U)
        mul, inv = G.table, G.inverse
        g = np.arange(G.order)[:, None]
        # g sends coset i to coset j, that of r_i g^-1, and r_j g r_i^-1 is in U
        j = pos[mul[R[None, :], inv[g]]]
        u = mul[mul[R[j], g], inv[R][None, :]]
        _check_coset_action(U, j, u)
        j.flags.writeable = False
        u.flags.writeable = False
        U._action = (j, u)
    return U._action


def _check_coset_action(U: Subgroup, j: np.ndarray, u: np.ndarray) -> None:
    """Raise unless g |-> (j_g, u_g) composes as G does, so that the block
    matrices it gives to an induced module multiply as G does for every
    representation of U: j_e = id, u_(e,i) = e, every label in U, and for
    each generator g and every h, j_gh = j_g o j_h and
    u_(gh,i) = u_(g,j_h(i)) u_(h,i).  Integer gathers, |gens| |G| index
    of them; by induction on word length the identities then hold for
    every pair."""
    G = U.parent
    e, mul = G.identity, G.table
    gens = list(G.generators())
    gh = mul[gens]  # (s, |G|)
    ok = (
        (j[e] == np.arange(j.shape[1])).all()
        and (u[e] == e).all()
        and (U.local_index[u] >= 0).all()
        and (j[gh] == j[gens][:, j]).all()
        and (u[gh] == mul[u[gens][:, j], u]).all()
    )
    if not ok:
        raise ValueError("action is not a homomorphism")


def conjugate_intersect(K: Subgroup, H: Subgroup, g: int) -> Subgroup:
    """K meet gHg^-1 inside the common parent."""
    G = K.parent
    if G is not H.parent and G != H.parent:
        raise ValueError("different parents")
    g = G._element(g)
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
                    T = tuple(np.flatnonzero(_closure(G.table, G.identity, [*S, g])).tolist())
                    if T not in found:
                        found.add(T)
                        new.append(T)
            frontier = new
        subs = sorted(found, key=lambda s: (len(s), s))
        G._subgroups = tuple(G._subgroup(s) for s in subs)
    return G._subgroups
