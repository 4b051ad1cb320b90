"""Finite-dimensional representations of table groups, and the functors
between them: restriction, induction from a subgroup (which at finite index
is simultaneously the left and right adjoint of restriction), equivariant
hom spaces, fixed points, and multiplicative characters of abelian
subgroups.

A Rep stores one invertible matrix per group element.  The homomorphism
property is verified at construction: the identity must map to the
identity matrix and action(g*h) = action(g) @ action(h) is checked for
every generator g against every h, which by induction on word length
forces the property for all pairs.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

from .fields import FiniteField
from .groups import FinGroup, Subgroup, coset_lookup
from .linalg import Matrix, Subspace, row_reduce, vstack

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
    "hom_space",
    "hom_basis_maps",
    "fixed_points",
    "cyclic_span",
    "cyclic_span_dim",
    "group_characters",
    "characters_of",
]


class Rep:
    __slots__ = ("group", "field", "dim", "matrices")

    def __init__(
        self,
        group: FinGroup,
        field: FiniteField,
        matrices: Sequence[Matrix],
        validate: bool = True,
    ):
        if len(matrices) != group.order:
            raise ValueError("need one matrix per group element")
        dim = matrices[0].rows if matrices else 0
        for M in matrices:
            if M.field != field or M.rows != dim or M.cols != dim:
                raise ValueError("matrix shape or field mismatch")
        self.group = group
        self.field = field
        self.dim = dim
        self.matrices = tuple(matrices)
        if validate:
            self._validate()

    def _validate(self):
        G = self.group
        if not self.matrices[G.identity].is_identity():
            raise ValueError("identity does not act as the identity matrix")
        for g in G.generators():
            Mg = self.matrices[g]
            for h in range(G.order):
                if Mg @ self.matrices[h] != self.matrices[G.mul(g, h)]:
                    raise ValueError("action is not a homomorphism")

    def mat(self, g: int) -> Matrix:
        return self.matrices[g]

    def act(self, g: int, vec: Sequence[int]) -> tuple[int, ...]:
        return self.matrices[g].apply(vec)

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, Rep)
            and self.group == other.group
            and self.field == other.field
            and self.matrices == other.matrices
        )

    def __hash__(self):
        return hash((self.group, self.field.key(), self.matrices))

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
        if validate:
            for g in source.group.generators():
                if matrix @ source.mat(g) != target.mat(g) @ matrix:
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

    def kernel(self) -> Subspace:
        return row_reduce(self.matrix).kernel

    def image(self) -> Subspace:
        return row_reduce(self.matrix).image

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
        if left.image() != right.kernel():
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
    I = Matrix.identity(field, dim)
    return Rep(G, field, [I] * G.order, validate=False)


def regular_rep(G: FinGroup, field: FiniteField) -> Rep:
    """Left translation on the group algebra: g sends basis vector h to gh."""
    mats = []
    for g in range(G.order):
        M = Matrix.zeros(field, G.order, G.order)
        a = M.a.copy()
        a.flags.writeable = True
        for h in range(G.order):
            a[G.mul(g, h), h] = 1
        mats.append(Matrix(field, a, copy=False))
    return Rep(G, field, mats, validate=False)


def character_rep(G: FinGroup, field: FiniteField, values: Sequence[int]) -> Rep:
    mats = [Matrix(field, [[v]]) for v in values]
    return Rep(G, field, mats, validate=True)


def rep_from_generators(
    G: FinGroup, field: FiniteField, images: Mapping[int, Matrix]
) -> Rep:
    """Extend generator images along the group, failing on inconsistency."""
    dim = None
    for M in images.values():
        if dim is None:
            dim = M.rows
        if M.rows != dim or M.cols != dim:
            raise ValueError("generator images must share one square shape")
    if dim is None:
        raise ValueError("no generator images given")
    mats: list[Matrix | None] = [None] * G.order
    mats[G.identity] = Matrix.identity(field, dim)
    frontier = [G.identity]
    while frontier:
        new = []
        for x in frontier:
            for g, Mg in images.items():
                y = G.mul(g, x)
                cand = Mg @ mats[x]
                if mats[y] is None:
                    mats[y] = cand
                    new.append(y)
                elif mats[y] != cand:
                    raise ValueError("generator images are inconsistent")
        frontier = new
    if any(m is None for m in mats):
        raise ValueError("images do not generate the group")
    return Rep(G, field, mats, validate=True)  # type: ignore[arg-type]


def direct_sum(reps: Sequence[Rep]) -> Rep:
    from .linalg import block_diag

    G, field = reps[0].group, reps[0].field
    mats = [block_diag(field, [V.mat(g) for V in reps]) for g in range(G.order)]
    return Rep(G, field, mats, validate=False)


# ---------------------------------------------------------------------------
# functors


def restrict(V: Rep, U: Subgroup) -> Rep:
    """V as a representation of U.as_group()."""
    if U.parent != V.group:
        raise ValueError("subgroup of a different group")
    return Rep(U.as_group(), V.field, [V.mat(m) for m in U.members], validate=False)


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
    field = W.field
    reps, pos = coset_lookup(G, U)
    dW = W.dim
    dim = len(reps) * dW
    mats = []
    for g in range(G.order):
        M = Matrix.zeros(field, dim, dim).a.copy()
        M.flags.writeable = True
        ginv = G.inv(g)
        for i, r in enumerate(reps):
            j = pos[G.mul(r, ginv)]
            u = G.mul(G.mul(reps[j], g), G.inv(r))  # lies in U
            M[j * dW : (j + 1) * dW, i * dW : (i + 1) * dW] = W.mat(U.local(u)).a
        mats.append(Matrix(field, M, copy=False))
    return Rep(G, field, mats, validate=True)


def hom_space(V1: Rep, V2: Rep) -> Subspace:
    """Equivariant maps V1 -> V2 as row-major flattened d2 x d1 matrices,
    canonicalized by reduced echelon form."""
    if V1.group != V2.group or V1.field != V2.field:
        raise ValueError("reps live over different groups or fields")
    field = V1.field
    d1, d2 = V1.dim, V2.dim
    amb = d1 * d2
    gens = V1.group.generators()
    if amb == 0:
        return Subspace.zero(field, amb)
    if not gens:
        return Subspace.full(field, amb)
    I1 = Matrix.identity(field, d1)
    I2 = Matrix.identity(field, d2)
    blocks = []
    for g in gens:
        left = I2.kron(V1.mat(g).transpose())  # M |-> M @ rho1(g)
        right = V2.mat(g).kron(I1)  # M |-> rho2(g) @ M
        blocks.append(left - right)
    return row_reduce(vstack(blocks)).kernel


def hom_basis_maps(V1: Rep, V2: Rep) -> list[RepMap]:
    space = hom_space(V1, V2)
    out = []
    for i in range(space.dim):
        flat = space.basis.row(i)
        M = Matrix(
            V1.field, [list(flat[r * V1.dim : (r + 1) * V1.dim]) for r in range(V2.dim)]
        )
        out.append(RepMap(V1, V2, M, validate=True))
    return out


def fixed_points(V: Rep, U: Subgroup | None = None) -> Subspace:
    """The subspace of vectors fixed by every element of U (default: all of G)."""
    G = V.group
    if U is None:
        U = Subgroup.full(G)
    if U.parent != G:
        raise ValueError("subgroup of a different group")
    gens = U.generators()
    if not gens or V.dim == 0:
        return Subspace.full(V.field, V.dim)
    I = Matrix.identity(V.field, V.dim)
    stacked = vstack([V.mat(u) - I for u in gens])
    return row_reduce(stacked).kernel


def cyclic_span(V: Rep, v: Sequence[int]) -> Subspace:
    rows = [V.act(g, v) for g in range(V.group.order)]
    return Subspace.from_rows(V.field, V.dim, rows)


def cyclic_span_dim(V: Rep, v: Sequence[int]) -> int:
    return cyclic_span(V, v).dim


# ---------------------------------------------------------------------------
# characters of abelian (sub)groups


class Character:
    """A multiplicative map from an abelian subgroup into the field units.

    values[i] is the value on C.members[i].  In characteristic p any
    p-power-order element is forced to 1; that is revalidated here.
    """

    __slots__ = ("domain", "field", "values", "_by_member")

    def __init__(self, domain: Subgroup, field: FiniteField, values: Sequence[int]):
        C = domain.as_group()
        if not C.is_abelian():
            raise ValueError("character domain must be abelian")
        vals = tuple(int(v) for v in values)
        if len(vals) != domain.order:
            raise ValueError("need one value per member")
        if any(v == 0 for v in vals):
            raise ValueError("character values must be nonzero")
        for i in range(domain.order):
            for j in range(domain.order):
                if field.mul(vals[i], vals[j]) != vals[C.mul(i, j)]:
                    raise ValueError("values are not multiplicative")
        for i in range(domain.order):
            o = C.element_order(i)
            while o % field.p == 0:
                o //= field.p
            if o == 1 and vals[i] != 1:
                raise ValueError("nontrivial value on a p-power-order element")
        self.domain = domain
        self.field = field
        self.values = vals
        self._by_member = {m: vals[i] for i, m in enumerate(domain.members)}

    def value(self, member: int) -> int:
        """Value on a parent-group element index."""
        return self._by_member[member]

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
    """All multiplicative maps G -> field units, as value tuples."""
    gens = G.generators()
    if not gens:
        return [(1,) * G.order]
    unit_choices = []
    for g in gens:
        n = G.element_order(g)
        unit_choices.append([u for u in range(1, field.order) if field.pow(u, n) == 1])
    found: list[tuple[int, ...]] = []
    seen = set()
    for combo in itertools.product(*unit_choices):
        vals: list[int | None] = [None] * G.order
        vals[G.identity] = 1
        frontier = [G.identity]
        ok = True
        while frontier and ok:
            new = []
            for x in frontier:
                for g, vg in zip(gens, combo):
                    y = G.mul(g, x)
                    cand = field.mul(vg, vals[x])  # type: ignore[arg-type]
                    if vals[y] is None:
                        vals[y] = cand
                        new.append(y)
                    elif vals[y] != cand:
                        ok = False
            frontier = new
        if not ok or any(v is None for v in vals):
            continue
        tup = tuple(vals)  # type: ignore[arg-type]
        if tup not in seen:
            seen.add(tup)
            found.append(tup)
    return found


def characters_of(C: Subgroup, field: FiniteField) -> list[Character]:
    """All characters of an abelian subgroup, trivial one first."""
    out = [Character(C, field, vals) for vals in group_characters(C.as_group(), field)]
    out.sort(key=lambda ch: (not ch.is_trivial(), ch.values))
    return out
