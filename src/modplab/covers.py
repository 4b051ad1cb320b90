"""Covering maps onto a representation from sums of induced trivial
representations, plus the central-character functors that move
morphisms between levels.

For a subgroup U fixing a vector v, the map sending a function f on the
coset space to sum_{cosets} f(r) r^{-1} v is equivariant and hits v at the
indicator of the trivial coset; its image is the span of the orbit of v.
Summing such blocks over qualifying subgroups of many vectors produces a
surjection onto the representation, when enough vectors qualify.  The maps
of all the vectors one subgroup qualifies for are built and checked as one
stack.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from .fields import FiniteField, p_part
from .groups import Subgroup, all_subgroups
from .linalg import Matrix, Subspace
from .reps import (
    Character,
    Rep,
    RepMap,
    direct_sum,
    equivariant_kernel,
    induce,
    intertwines,
    lower_lift,
    trivial_rep,
)

__all__ = [
    "CoverageError",
    "CoverBlock",
    "CoverAssembly",
    "induced_trivial",
    "ModuleCovers",
    "cover_map",
    "nonzero_vectors",
    "cover_vectors",
    "qualifying_subgroups",
    "module_covers",
    "assemble_cover",
    "fixed_cover_subspace",
    "character_eigenspace",
    "extend_by_central_character",
]

ENUM_VECTOR_LIMIT = 256


class CoverageError(RuntimeError):
    """Raised when the qualifying vectors fail to span the target."""

    def __init__(self, message: str, dropped=()):
        super().__init__(message)
        self.dropped = tuple(dropped)


_IND_CACHE: dict = {}


def induced_trivial(U: Subgroup, field: FiniteField) -> Rep:
    """ind of the one-dimensional trivial rep, cached per (subgroup, field)."""
    key = (U.members, field.key())
    store = _IND_CACHE.setdefault(U.parent, {})
    if key not in store:
        store[key] = induce(U, trivial_rep(U.as_group(), field))
    return store[key]


def _vectors(V: Rep, vectors) -> np.ndarray:
    """The vectors of V as the rows of a (k, dV) array of range-checked
    field codes."""
    shape = (len(vectors), -1) if len(vectors) else (0, V.dim)
    rows = Matrix(V.field, np.reshape(vectors, shape)).a
    if rows.shape[1] != V.dim:
        raise ValueError("vector length differs from the representation dimension")
    return rows


def cover_map(U: Subgroup, V: Rep, vectors) -> np.ndarray:
    """The read-only (k, dV, [G:U]) stack of the equivariant maps from
    induced_trivial(U) to V, map i sending the indicator of the trivial
    coset to the i-th of the k vectors: the lower lifts of the U-maps
    1 |-> v, built as one stack.  Such a map is equivariant exactly when U
    fixes its vector, and the stack is checked with one intertwines call,
    so a vector U moves raises ValueError("map is not equivariant")."""
    stack = lower_lift(U, V, _vectors(V, vectors)[:, :, None])
    if not intertwines(induced_trivial(U, V.field), V, stack):
        raise ValueError("map is not equivariant")
    stack.flags.writeable = False
    return stack


def qualifying_subgroups(V: Rep, v, C: Subgroup | None = None) -> list[Subgroup]:
    """Subgroups U fixing v whose coset space is strictly larger than the
    orbit span of v; with a central C, the coset space of U joined with C.

    The zero vector is rejected: every subgroup would qualify vacuously.
    """
    G = V.group
    vec = _vectors(V, [v])[0]
    if not vec.any():
        raise ValueError("zero vector is excluded")
    orbit = V.orbit(vec)
    fixed = (orbit == vec).all(axis=1)  # fixed[g]: g sends v to itself
    if C is not None:
        if C.parent != G or not C.is_central():
            raise ValueError("C must be a central subgroup of the acting group")
        if not fixed[list(C.generators())].all():
            raise ValueError("central subgroup must act trivially on the vector")
    d = Matrix._of(V.field, orbit).rank()  # the cyclic span's dimension
    out = []
    for U in all_subgroups(G):
        if not fixed[list(U.generators())].all():
            continue
        J = U.join(C) if C is not None else U
        if G.order // J.order > d:
            out.append(U)
    return out


class ModuleCovers(NamedTuple):
    """The cover maps onto a module at a list of vectors, one cover_map
    stack per subgroup U, in all_subgroups order: row j of U's stack is
    the map of the j-th vector U qualifies for."""

    target: Rep
    vectors: tuple[tuple, ...]
    stacks: tuple[tuple[Subgroup, tuple[tuple, ...], np.ndarray], ...]  # (U, its vectors, stack)


class CoverBlock(NamedTuple):
    vector: tuple
    subgroup: Subgroup  # the qualifying U; the block is induced_trivial(U)


class CoverAssembly(NamedTuple):
    source: Rep
    onto: RepMap
    blocks: tuple[CoverBlock, ...]
    dropped: tuple[tuple, ...]  # vectors with no qualifying subgroup


def nonzero_vectors(field: FiniteField, dim: int) -> list[tuple]:
    """Every nonzero vector of field^dim, in lexicographic order."""
    return [vec for vec in itertools.product(range(field.order), repeat=dim) if any(vec)]


def cover_vectors(V: Rep) -> list[tuple]:
    """The vectors a cover of V is assembled at: every nonzero vector while
    there are at most ENUM_VECTOR_LIMIT of them, else the orbit of the
    standard basis, which spans, stays group-stable, and avoids enumerating
    all q^d vectors."""
    q, d = V.field.order, V.dim
    if q**d <= ENUM_VECTOR_LIMIT:
        return nonzero_vectors(V.field, d)
    # g sends e_i to column i of its matrix
    columns = V.T.transpose(0, 2, 1).reshape(-1, d)
    return sorted(set(map(tuple, columns.tolist())))


def module_covers(V: Rep, vectors) -> ModuleCovers:
    """The cover maps onto V at the given nonzero vectors: each vector's
    qualifying subgroups, found once, and for each subgroup U one
    cover_map stack over every vector that U qualifies for."""
    vectors = tuple(map(tuple, vectors))
    qualified = {U.members: (U, []) for U in all_subgroups(V.group)}  # U.members -> (U, its vectors)
    for vec in vectors:
        for U in qualifying_subgroups(V, vec):
            qualified[U.members][1].append(vec)
    stacks = tuple((U, tuple(vecs), cover_map(U, V, vecs)) for U, vecs in qualified.values() if vecs)
    return ModuleCovers(V, vectors, stacks)


def assemble_cover(covers: ModuleCovers, vectors) -> CoverAssembly:
    """Build the direct sum of induced trivial blocks over the qualifying
    (vector, subgroup) pairs at the listed vectors, vector by vector and
    each vector's subgroups in qualifying_subgroups order, together with
    the combined map onto covers.target.

    Raises ValueError for a listed vector that covers was not built at,
    and CoverageError when the vectors admitting at least one qualifying
    subgroup do not span the target; vectors with an empty qualifying set
    are recorded as dropped, never silently ignored.
    """
    V = covers.target
    G, field = V.group, V.field
    vectors = tuple(map(tuple, vectors))
    if not set(vectors) <= set(covers.vectors):
        raise ValueError("vector is not one of the vectors the covers were built at")
    if V.dim == 0:
        zero = Rep._of(G, field, np.zeros((G.order, 0, 0), dtype=np.int16))
        onto = RepMap(zero, V, Matrix.zeros(field, 0, 0), validate=False)
        return CoverAssembly(zero, onto, (), ())
    maps = {vec: [] for vec in vectors}  # vec -> its (U, map) pairs, in all_subgroups order
    for U, vecs, stack in covers.stacks:
        for vec, m in zip(vecs, stack):
            if vec in maps:
                maps[vec].append((U, m))
    dropped = [vec for vec in vectors if not maps[vec]]
    covered = [vec for vec in vectors if maps[vec]]
    if Subspace.from_rows(field, V.dim, covered).dim != V.dim:
        raise CoverageError(
            "vectors with a qualifying subgroup do not span the target "
            f"({len(dropped)} of {len(vectors)} candidate vectors dropped)",
            dropped,
        )
    pairs = [(vec, U, m) for vec in covered for U, m in maps[vec]]
    S = direct_sum([induced_trivial(U, field) for _, U, _ in pairs])  # each block is a verified rep
    # equivariance holds blockwise: cover_map validated every stack
    onto = RepMap(S, V, Matrix._of(field, np.concatenate([m for *_, m in pairs], axis=1)), validate=False)
    if onto.rank() != V.dim:
        raise CoverageError("assembled map is not surjective", dropped)
    return CoverAssembly(S, onto, tuple(CoverBlock(vec, U) for vec, U, _ in pairs), tuple(dropped))


def fixed_cover_subspace(asm: CoverAssembly) -> Subspace:
    """The full-group fixed points of the assembled source, one constant
    function per block."""
    S = asm.source
    # the blocks tile the source in order, so column i lies in block[i]
    block = np.repeat(np.arange(len(asm.blocks)), [blk.subgroup.index for blk in asm.blocks])
    rows = np.zeros((len(asm.blocks), S.dim), dtype=np.int16)
    rows[block, np.arange(S.dim)] = 1
    return Subspace.from_rows(S.field, S.dim, Matrix._of(S.field, rows))


# ---------------------------------------------------------------------------
# central characters


def character_eigenspace(
    V: Rep, C: Subgroup, chi: Character
) -> tuple[Subspace, Matrix | None]:
    """Vectors on which C acts through chi, plus the averaging projector.

    The projector averages chi(z^{-1}) times the action of z over the
    part of C of order prime to the characteristic.  It is returned only
    when the p-power-order part of C acts trivially on V; then its image
    is exactly the eigenspace and it is idempotent.
    """
    G = V.group
    if chi.domain != C or C.parent != G or chi.field != V.field:
        raise ValueError("character does not match the subgroup and field")
    field = V.field
    gens = list(C.generators())
    # the maps from chi's one-dimensional module into V
    scalars = np.array([chi.value(z) for z in gens], dtype=np.int16).reshape(-1, 1, 1)
    space = equivariant_kernel(field, scalars, V.on(gens))
    parts = [p_part(G.element_order(z), field.p) for z in C.members]
    # only pure p-power-order elements decide availability; mixed orders
    # factor through them inside the abelian C
    pure = [z for z, (_, m) in zip(C.members, parts) if m == 1]
    if not (V.on(pure) == np.eye(V.dim, dtype=np.int16)).all():
        return space, None
    prime_to_p = [z for z, (e, _) in zip(C.members, parts) if e == 0]
    # the average of chi(z^-1) rho(z) as a (1 x n) coefficient row times
    # the n flattened matrices
    coeffs = np.array([[chi.value(G.inv(z)) for z in prime_to_p]], dtype=np.int16)
    coeffs = field.ax_scale(coeffs, field.inv(len(prime_to_p) % field.p))
    avg = field.ax_matmul(coeffs, V.on(prime_to_p).reshape(len(prime_to_p), V.dim * V.dim))
    P = Matrix._of(field, avg.reshape(V.dim, V.dim))
    if P @ P != P:
        raise AssertionError("averaging operator failed to be idempotent")
    return space, P


def extend_by_central_character(
    V: Rep,
    K: Subgroup,
    C: Subgroup,
    chi: Character,
) -> Rep:
    """Extend a representation of K to K joined with a central C, letting C
    act through chi.  Requires chi to agree with the existing action on the
    overlap; restriction back to K returns the original action.
    """
    G = K.parent
    if C.parent != G or not C.is_central():
        raise ValueError("C must be a central subgroup of the ambient group")
    if chi.domain != C or chi.field != V.field:
        raise ValueError("character must live on C over the same field")
    if V.group != K.as_group():
        raise ValueError("V must be a representation of K")
    field = V.field
    local = K.local_index
    overlap = list(C.intersect(K).members)
    scalars = np.array([chi.value(z) for z in overlap], dtype=np.int16)[:, None, None]
    if not np.array_equal(V.on(local[overlap]), scalars * np.eye(V.dim, dtype=np.int16)):
        raise ValueError("character disagrees with the action on the overlap")
    KC = K.join(C)
    # x = k c with c the first member of C for which k = x c^-1 lies in K
    cands = G.table[np.array(KC.members)[:, None], G.inverse[list(C.members)][None, :]]
    in_K = local[cands] >= 0
    if not in_K.any(axis=1).all():
        raise ValueError("element of the join has no K*C factorization")
    first = in_K.argmax(axis=1)
    k = local[cands[np.arange(KC.order), first]]
    values = np.array(chi.values, dtype=np.int16)[first]
    T = field.ax_mul(V.on(k), values[:, None, None])
    W = Rep._of(KC.as_group(), field, T)
    W._validate()
    return W
