"""Finite-dimensional representations of table groups, and the functors
between them: restriction, induction from a subgroup (which at finite index
is simultaneously the left and right adjoint of restriction), equivariant
hom spaces, fixed points, and multiplicative characters of abelian
subgroups.

A Rep stores its action as one read-only (|G|, d, d) int16 tensor ``T``,
so that products over many group elements are single batched kernel
calls.  The homomorphism property is verified at construction: the
identity must map to the identity matrix and action(g*h) = action(g) @
action(h) is checked for every generator g against every h, which by
induction on word length forces the property for all pairs.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

import numpy as np

from .fields import BATCH_CELLS, FiniteField, p_part
from .groups import FinGroup, Subgroup, coset_lookup
from .linalg import Matrix, Subspace, check_cells, column_space, row_reduce

__all__ = [
    "Rep",
    "RepMap",
    "ShortExactSeq",
    "Character",
    "trivial_rep",
    "regular_rep",
    "character_rep",
    "rep_from_generators",
    "direct_sum",
    "restrict",
    "induce",
    "coset_stack",
    "own_block",
    "unit_matrix",
    "counit_matrix",
    "lower_lift",
    "upper_lift",
    "lower_drop",
    "upper_drop",
    "equivariance_system",
    "intertwines",
    "hom_space",
    "fixed_points",
    "cyclic_span",
    "cyclic_span_dim",
    "group_characters",
    "characters_of",
]

# induce refuses to allocate an action tensor of more int16 cells than this
# (256 MiB); the regular rep of a group of order 64, induced back up from
# the trivial subgroup, would need 2**30
INDUCE_CELLS = 1 << 27


class Rep:
    __slots__ = ("group", "field", "dim", "T", "_hash")

    def __init__(self, group: FinGroup, field: FiniteField, T):
        """Wrap outside data: a (|G|, d, d) array of field codes whose slice
        T[g] is the matrix of element g.  It is copied, checked to be an
        action of the group, and made read-only."""
        a = np.asarray(T)
        if a.ndim != 3 or a.shape[0] != group.order or a.shape[1] != a.shape[2]:
            raise ValueError("need one square matrix per group element")
        # kind and range are checked before the int16 cast, which would
        # truncate 1.9 to 1 and wrap large entries
        if a.size and a.dtype.kind not in "biu":
            raise ValueError("entries must be integer field codes")
        if a.size and (a.min() < 0 or a.max() >= field.order):
            raise ValueError("entry out of field range")
        self._set(group, field, np.array(a, dtype=np.int16))
        self._validate()

    @classmethod
    def _of(cls, group: FinGroup, field: FiniteField, T: np.ndarray, validate: bool) -> "Rep":
        """Wrap a fresh (|G|, d, d) int16 tensor of field codes, such as a
        kernel result; it becomes read-only."""
        V = cls.__new__(cls)
        V._set(group, field, T)
        if validate:
            V._validate()
        return V

    def _set(self, group: FinGroup, field: FiniteField, T: np.ndarray):
        T.flags.writeable = False
        self.group = group
        self.field = field
        self.dim = T.shape[1]
        self.T = T
        self._hash = None

    def _validate(self):
        G, T = self.group, self.T
        if not np.array_equal(T[G.identity], np.eye(self.dim, dtype=np.int16)):
            raise ValueError("identity does not act as the identity matrix")
        gens = list(G.generators())
        if not gens:
            return
        # one batched product per slice of h; a small rep takes one slice,
        # a large one keeps each slice's products within BATCH_CELLS codes
        step = max(1, BATCH_CELLS // (len(gens) * self.dim * self.dim or 1))
        for h in range(0, G.order, step):
            products = self.field.ax_matmul_batch(T[gens][:, None], T[None, h : h + step])
            if not np.array_equal(products, T[G.table[gens, h : h + step]]):
                raise ValueError("action is not a homomorphism")

    def orbit(self, vec: Sequence[int]) -> np.ndarray:
        """The (|G|, d) array whose row g is the image of vec under g, in
        one batched product."""
        col = np.asarray(vec, dtype=np.int16).reshape(-1, 1)
        return self.field.ax_matmul_batch(self.T, col)[:, :, 0]

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Rep)
            and self.group == other.group
            and self.field == other.field
            and bool(np.array_equal(self.T, other.T))
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.group, self.field.key(), self.T.shape, self.T.tobytes()))
        return self._hash

    def __repr__(self):
        return f"Rep(dim={self.dim}, group_order={self.group.order}, field={self.field!r})"


class RepMap:
    """An equivariant linear map between two reps of the same group."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: Rep, target: Rep, matrix: Matrix, validate: bool = True):
        if source.group != target.group or source.field != target.field:
            raise ValueError("source/target live over different groups or fields")
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise ValueError("matrix shape does not match source/target dims")
        self.source = source
        self.target = target
        self.matrix = matrix
        if validate and not intertwines(source, target, matrix.a):
            raise ValueError("map is not equivariant")

    def __matmul__(self, other: "RepMap") -> "RepMap":
        if other.target != self.source:
            raise ValueError("maps are not composable")
        return RepMap(other.source, self.target, self.matrix @ other.matrix, validate=False)

    def rank(self) -> int:
        return self.matrix.rank()

    def is_injective(self) -> bool:
        return self.rank() == self.source.dim

    def is_surjective(self) -> bool:
        return self.rank() == self.target.dim

    def image(self) -> Subspace:
        return column_space(self.matrix)

    def __eq__(self, other):
        return (
            isinstance(other, RepMap)
            and self.source == other.source
            and self.target == other.target
            and self.matrix == other.matrix
        )

    def __repr__(self):
        return f"RepMap({self.source.dim} -> {self.target.dim})"


class ShortExactSeq:
    """0 -> V' -> V -> V'' -> 0, validated: monic, epic, image = kernel."""

    __slots__ = ("left", "right")

    def __init__(self, left: RepMap, right: RepMap):
        if left.target != right.source:
            raise ValueError("middle objects differ")
        if not left.is_injective():
            raise ValueError("left map is not injective")
        if not right.is_surjective():
            raise ValueError("right map is not surjective")
        if left.source.dim + right.target.dim != left.target.dim:
            raise ValueError("dimension count fails")
        # once the dimensions add up, the image of the monic left map has
        # the dimension of the kernel of the epic right map, so it is that
        # kernel exactly when it lies inside it: when the composite is zero
        if (right.matrix @ left.matrix).a.any():
            raise ValueError("image of left map differs from kernel of right map")
        self.left = left
        self.right = right

    @property
    def middle(self) -> Rep:
        return self.left.target

    def __repr__(self):
        return (
            f"ShortExactSeq({self.left.source.dim} -> {self.middle.dim}"
            f" -> {self.right.target.dim})"
        )


# ---------------------------------------------------------------------------
# builders


def trivial_rep(G: FinGroup, field: FiniteField, dim: int = 1) -> Rep:
    T = np.repeat(np.eye(dim, dtype=np.int16)[None], G.order, axis=0)
    return Rep._of(G, field, T, validate=False)


def regular_rep(G: FinGroup, field: FiniteField) -> Rep:
    """Left translation on the group algebra: g sends basis vector h to gh."""
    n = G.order
    T = np.zeros((n, n, n), dtype=np.int16)
    T[np.arange(n)[:, None], G.table, np.arange(n)[None, :]] = 1
    return Rep._of(G, field, T, validate=False)


def character_rep(G: FinGroup, field: FiniteField, values: Sequence[int]) -> Rep:
    return Rep(G, field, np.array(values).reshape(-1, 1, 1))


def rep_from_generators(
    G: FinGroup, field: FiniteField, images: Mapping[int, Matrix]
) -> Rep:
    """Extend generator images along the group, failing on inconsistency.

    The action is filled along one breadth-first spanning tree from the
    identity; it then has to agree with every given image and pass the
    homomorphism check of ``Rep``, which together hold exactly when the
    images extend to a representation.
    """
    keys = list(images)
    if not keys:
        raise ValueError("no generator images given")
    dim = images[keys[0]].rows
    for M in images.values():
        if M.field != field or M.rows != dim or M.cols != dim:
            raise ValueError("generator images must share one square shape and field")
    A = np.array([images[g].a for g in keys], dtype=np.int16)
    T = np.zeros((G.order, dim, dim), dtype=np.int16)
    T[G.identity] = np.eye(dim, dtype=np.int16)
    reached = np.zeros(G.order, dtype=bool)
    reached[G.identity] = True
    frontier = [G.identity]
    while frontier:
        # one level of the tree, in one batched product: T[y] = A[k] T[x]
        # for the first pair (x, key k) whose product g_k x reaches y
        ys, ks, xs = [], [], []
        for x in frontier:
            for k, g in enumerate(keys):
                y = G.mul(g, x)
                if not reached[y]:
                    reached[y] = True
                    ys.append(y)
                    ks.append(k)
                    xs.append(x)
        T[ys] = field.ax_matmul_batch(A[ks], T[xs])
        frontier = ys
    if not reached.all():
        raise ValueError("images do not generate the group")
    if not np.array_equal(T[keys], A):
        raise ValueError("generator images are inconsistent")
    return Rep._of(G, field, T, validate=True)


def direct_sum(reps: Sequence[Rep]) -> Rep:
    G, field = reps[0].group, reps[0].field
    if any(V.group != G or V.field != field for V in reps):
        raise ValueError("reps live over different groups or fields")
    D = sum(V.dim for V in reps)
    T = np.zeros((G.order, D, D), dtype=np.int16)
    o = 0
    for V in reps:
        T[:, o : o + V.dim, o : o + V.dim] = V.T
        o += V.dim
    return Rep._of(G, field, T, validate=False)


# ---------------------------------------------------------------------------
# functors


def restrict(V: Rep, U: Subgroup) -> Rep:
    """V as a representation of U.as_group()."""
    if U.parent != V.group:
        raise ValueError("subgroup of a different group")
    return Rep._of(U.as_group(), V.field, V.T[list(U.members)], validate=False)


def induce(U: Subgroup, W: Rep) -> Rep:
    """Functions f on the coset space U\\G with f(ux) = u f(x), valued in W;
    the group acts by right translation.

    The basis is (coset block, W basis vector), blocks ordered by the
    minimal-index coset representatives.  At finite index this single
    functor is both adjoints of restriction.
    """
    G = U.parent
    if W.group != U.as_group():
        raise ValueError("W must be a representation of U.as_group()")
    d = G.order // U.order * W.dim
    if G.order * d * d > INDUCE_CELLS:
        raise ValueError(
            f"induce needs a {G.order} x {d} x {d} action tensor, {G.order * d * d} cells,"
            f" over the budget of {INDUCE_CELLS}"
        )
    R, pos = coset_lookup(G, U)
    mul, inv = G.table, G.inverse
    g = np.arange(G.order)[:, None]
    # g sends block i to block j = pos(r_i g^-1), acting there by
    # u = r_j g r_i^-1, which lies in U
    j = pos[mul[R[None, :], inv[g]]]
    u = mul[mul[R[j], g], inv[R][None, :]]
    n, dW = len(R), W.dim
    out = np.zeros((G.order, n, dW, n, dW), dtype=np.int16)
    out[g, j, :, np.arange(n)[None, :], :] = W.T[U.local_index[u]]
    return Rep._of(G, W.field, out.reshape(G.order, n * dW, n * dW), validate=True)


# Every map written in induce's block layout: block i for the coset of the
# i-th coset_lookup representative r_i.  The unit is the column of blocks
# rho(r_i) and the counit the row of blocks rho(r_i^-1); Frobenius
# reciprocity moves (k, rows, cols) stacks of maps across the adjunction
# with the same stacks.  A lifted stack is equivariant exactly when the
# stack it came from is; no map here checks that.


def coset_stack(U: Subgroup, V: Rep, inverse: bool = False) -> np.ndarray:
    """The (index, d, d) stack of rho_V(r_i), or of rho_V(r_i^-1) when
    inverse is set, in block order."""
    if V.group != U.parent:
        raise ValueError("V must be a representation of U's parent group")
    reps = coset_lookup(U.parent, U)[0]
    return V.T[U.parent.inverse[reps] if inverse else reps]


def own_block(U: Subgroup, W: Rep) -> np.ndarray:
    """Whether each coordinate of Ind W lies in the block of U's own coset,
    pos[identity].  That coset's representative r0 is the least member of
    U, element 0 of U.as_group()."""
    if W.group != U.as_group():
        raise ValueError("W must be a representation of U.as_group()")
    G = U.parent
    return np.arange(U.index * W.dim) // W.dim == coset_lookup(G, U)[1][G.identity]


def unit_matrix(U: Subgroup, X: Rep) -> Matrix:
    """x goes to g |-> gx: the column of blocks rho_X(r_i)."""
    stack = coset_stack(U, X)
    return Matrix._of(X.field, stack.reshape(len(stack) * X.dim, X.dim))


def counit_matrix(U: Subgroup, X: Rep) -> Matrix:
    """f goes to the sum of r^-1 f(r) over the representatives r: the row
    of blocks rho_X(r_i^-1)."""
    stack = coset_stack(U, X, inverse=True)
    return Matrix._of(X.field, stack.transpose(1, 0, 2).reshape(X.dim, len(stack) * X.dim))


def lower_lift(U: Subgroup, V: Rep, X: np.ndarray) -> np.ndarray:
    """U-maps W -> Res V to G-maps Ind W -> V: block column i is
    rho_V(r_i^-1) X."""
    stack = coset_stack(U, V, inverse=True)
    k, dV, dW = X.shape
    moved = V.field.ax_matmul_batch(stack, X[:, None])
    return moved.transpose(0, 2, 1, 3).reshape(k, dV, len(stack) * dW)


def upper_lift(U: Subgroup, V: Rep, X: np.ndarray) -> np.ndarray:
    """U-maps Res V -> W to G-maps V -> Ind W: block row i is
    X rho_V(r_i)."""
    stack = coset_stack(U, V)
    k, dW, dV = X.shape
    return V.field.ax_matmul_batch(X[:, None], stack).reshape(k, len(stack) * dW, dV)


def lower_drop(U: Subgroup, W: Rep, F: np.ndarray) -> np.ndarray:
    """The inverse of lower_lift: F[:, :, own block] rho_W(r0)."""
    return W.field.ax_matmul_batch(F[:, :, own_block(U, W)], W.T[0])


def upper_drop(U: Subgroup, W: Rep, F: np.ndarray) -> np.ndarray:
    """The inverse of upper_lift: rho_W(r0^-1) F[:, own block]."""
    return W.field.ax_matmul_batch(W.T[W.group.inverse[0]], F[:, own_block(U, W)])


def equivariance_system(field: FiniteField, T1: np.ndarray, T2: np.ndarray) -> Matrix:
    """Stacked rows of X |-> X @ rho1(g) - rho2(g) @ X for each matrix pair
    (rho1(g), rho2(g)) of the (s, d1, d1) and (s, d2, d2) stacks T1, T2, on
    d2 x d1 matrices X flattened row major: the blocks
    I (x) rho1(g)^T - rho2(g) (x) I, built without Kronecker products."""
    s, d1, d2 = T1.shape[0], T1.shape[1], T2.shape[1]
    check_cells("equivariance_system", s * d2 * d1, d2 * d1)
    out = np.zeros((s, d2, d1, d2, d1), dtype=np.int16)
    a1, a2 = np.arange(d1), np.arange(d2)
    # entry ((a, c), (a, b)) of I (x) rho1^T is rho1[b, c] ...
    out[:, a2, :, a2, :] = T1.transpose(0, 2, 1)
    # ... and rho2[a, e] is subtracted at ((a, c), (e, c))
    out[:, :, a1, :, a1] = field.ax_sub(out[:, :, a1, :, a1], T2)
    return Matrix._of(field, out.reshape(s * d2 * d1, d2 * d1))


def intertwines(S: Rep, T: Rep, X: np.ndarray) -> bool:
    """Whether every map in the (..., dT, dS) stack X is equivariant from S
    to T: X @ rho_S(g) == rho_T(g) @ X for each generator g, checked with
    two batched products for the whole stack."""
    gens = list(S.group.generators())
    if not gens:
        return True
    f, X = S.field, X[..., None, :, :]
    return bool(np.array_equal(f.ax_matmul_batch(X, S.T[gens]), f.ax_matmul_batch(T.T[gens], X)))


def hom_space(V1: Rep, V2: Rep) -> Subspace:
    """Equivariant maps V1 -> V2 as row-major flattened d2 x d1 matrices,
    canonicalized by reduced echelon form."""
    if V1.group != V2.group or V1.field != V2.field:
        raise ValueError("reps live over different groups or fields")
    field = V1.field
    amb = V1.dim * V2.dim
    gens = list(V1.group.generators())
    if amb == 0:
        return Subspace.zero(field, amb)
    if not gens:
        return Subspace.full(field, amb)
    return row_reduce(equivariance_system(field, V1.T[gens], V2.T[gens]))


def fixed_points(V: Rep) -> Subspace:
    """The subspace of vectors fixed by every element of the group."""
    gens = V.group.generators()
    if not gens or V.dim == 0:
        return Subspace.full(V.field, V.dim)
    moved = V.field.ax_sub(V.T[list(gens)], np.eye(V.dim, dtype=np.int16))
    return row_reduce(Matrix._of(V.field, moved.reshape(-1, V.dim)))


def cyclic_span(V: Rep, v: Sequence[int]) -> Subspace:
    return Subspace.from_rows(V.field, V.dim, Matrix._of(V.field, V.orbit(v)))


def cyclic_span_dim(V: Rep, v: Sequence[int]) -> int:
    return cyclic_span(V, v).dim


# ---------------------------------------------------------------------------
# characters of abelian (sub)groups


class Character:
    """A multiplicative map from an abelian subgroup into the field units.

    values[i] is the value on C.members[i].  In characteristic p any
    p-power-order element is forced to 1; that is revalidated here.
    """

    __slots__ = ("domain", "field", "values")

    def __init__(self, domain: Subgroup, field: FiniteField, values: Sequence[int]):
        C = domain.as_group()
        if not C.is_abelian():
            raise ValueError("character domain must be abelian")
        vals = tuple(int(v) for v in values)
        if len(vals) != domain.order:
            raise ValueError("need one value per member")
        if any(not 0 < v < field.order for v in vals):
            raise ValueError("character values must be codes of nonzero field elements")
        a = np.array(vals, dtype=np.int64)
        if not np.array_equal(field.ax_mul(a[:, None], a[None, :]), a[C.table]):
            raise ValueError("values are not multiplicative")
        for i in range(domain.order):
            if p_part(C.element_order(i), field.p)[1] == 1 and vals[i] != 1:
                raise ValueError("nontrivial value on a p-power-order element")
        self.domain = domain
        self.field = field
        self.values = vals

    def value(self, member: int) -> int:
        """Value on a parent-group element index; KeyError outside the domain."""
        return self.values[self.domain.local(member)]

    def is_trivial(self) -> bool:
        return all(v == 1 for v in self.values)

    def __eq__(self, other):
        return (
            isinstance(other, Character)
            and self.domain == other.domain
            and self.field == other.field
            and self.values == other.values
        )

    def __repr__(self):
        return f"Character({self.values})"


def group_characters(G: FinGroup, field: FiniteField) -> list[tuple[int, ...]]:
    """All multiplicative maps G -> field units, as value tuples: each
    choice of units of fitting order on the generators that extends to a
    one-dimensional representation."""
    gens = G.generators()
    if not gens:
        return [(1,) * G.order]
    unit_choices = []
    for g in gens:
        n = G.element_order(g)
        unit_choices.append([u for u in range(1, field.order) if field.pow(u, n) == 1])
    found: list[tuple[int, ...]] = []
    for combo in itertools.product(*unit_choices):
        images = {g: Matrix(field, [[u]]) for g, u in zip(gens, combo)}
        try:
            V = rep_from_generators(G, field, images)
        except ValueError:
            continue
        found.append(tuple(V.T[:, 0, 0].tolist()))
    return found


def characters_of(C: Subgroup, field: FiniteField) -> list[Character]:
    """All characters of an abelian subgroup, trivial one first."""
    out = [Character(C, field, vals) for vals in group_characters(C.as_group(), field)]
    out.sort(key=lambda ch: (not ch.is_trivial(), ch.values))
    return out
