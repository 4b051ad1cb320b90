"""Relative homological algebra driven by a chosen subgroup U: a short
exact sequence is admissible when it splits U-equivariantly, and the unit
and counit of the induction adjunction provide enough relatively injective
and projective objects.

Splitting searches are affine linear systems over the field, solved
canonically, so every witness returned here is deterministic and every
returned flag is backed by an explicit verified matrix.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .groups import Subgroup, coset_lookup
from .linalg import Matrix, Subspace, check_cells, row_reduce, solve
from .reps import (
    Rep,
    RepMap,
    ShortExactSeq,
    _block_row,
    _equivariant_solve,
    _lift_rows,
    _trace_operator,
    coset_stack,
    counit_matrix,
    equivariant_kernel,
    hom_space,
    induce,
    intertwines,
    own_block,
    restrict,
    unit_matrix,
)

__all__ = [
    "StableHomResult",
    "u_split_search",
    "averaging_section",
    "adjunction_unit",
    "unit_retraction",
    "adjunction_counit",
    "counit_section",
    "suspension_section",
    "relative_projectivity_test",
    "projectivity_flags",
    "subrep_on_subspace",
    "subrep_on_kernel",
    "quotient_rep",
    "suspension",
    "loop_rep",
    "stable_hom",
]

class StableHomResult(NamedTuple):
    total_dim: int
    factoring_dim: int
    stable_dim: int

    def to_json(self) -> dict:
        return self._asdict()


def u_split_search(f: RepMap, U: Subgroup, kind: str) -> Matrix | None:
    """Canonical U-equivariant one-sided inverse of f, if one exists.

    kind "section": X with f.matrix @ X = identity on the target.
    kind "retraction": X with X @ f.matrix = identity on the source.
    Either way X maps the target back to the source and must commute with
    the U-action.
    """
    if kind not in ("section", "retraction"):
        raise ValueError("kind must be 'section' or 'retraction'")
    if f.source.group != U.parent:
        raise ValueError("f must be a map of representations of U's parent group")
    field = f.source.field
    ds, dt = f.source.dim, f.target.dim
    gens = U.generators()
    F = f.matrix.a[None]
    d = dt if kind == "section" else ds
    check_cells("u_split_search", d * d, ds * dt)
    # F X = I or X F = I, a relative trace with one term
    I = np.eye(d, dtype=np.int16)[None]
    left, right = (F, I) if kind == "section" else (I, F)
    return _equivariant_solve(field, f.target.on(gens), f.source.on(gens), left, right)


def _check_split(name: str, splits: str, composite: Matrix, S: Rep, T: Rep, X: Matrix, U: Subgroup) -> None:
    """The one check of a split witness: composite, the witness composed
    with the map it splits, must be the identity, and X, a map S -> T,
    must be U-equivariant, read on U's generator stacks of S and T."""
    if composite != Matrix.identity(composite.field, composite.rows):
        raise AssertionError(f"{name} failed to {splits}")
    if not intertwines(S, T, X.a, U):
        raise AssertionError(f"{name} is not U-equivariant")


def averaging_section(
    sigma: Matrix, f: RepMap, Uprime: Subgroup, U: Subgroup
) -> Matrix:
    """Average a section over cosets to upgrade its equivariance from a
    finite-index subgroup U' to U; requires the index to be invertible."""
    G = U.parent
    V, W = f.source, f.target
    field = V.field
    if Uprime.parent != G or not all(U.contains(m) for m in Uprime.members):
        raise ValueError("U' must be a subgroup of U")
    if f.matrix @ sigma != Matrix.identity(field, W.dim):
        raise ValueError("sigma is not a section of f")
    if not intertwines(W, V, sigma.a, Uprime):
        raise ValueError("sigma is not U'-equivariant")
    index = U.order // Uprime.order
    if index % field.p == 0:
        raise ValueError("index is divisible by the field characteristic")
    # the cosets U'r inside U, each by its least element
    R = [r for r in coset_lookup(G, Uprime)[0] if U.contains(r)]
    # the relative trace from U' to U of sigma, as the trace test takes it:
    # the row of blocks rho_V(r^-1) times the column of blocks sigma rho_W(r)
    lifted = _lift_rows(field, sigma.a[None], W.on(R))[0]
    trace = field.ax_matmul(_block_row(field, V.on(G.inverse[R])).a, lifted)
    out = Matrix._of(field, field.ax_scale(trace, field.inv(index % field.p)))
    _check_split("averaged section", "section f", f.matrix @ out, W, V, out, U)
    return out


# ---------------------------------------------------------------------------
# unit and counit of the induction adjunction

_IND_SELF_CACHE: dict = {}


def _induced_from_restriction(U: Subgroup, X: Rep) -> Rep:
    """The induction of X's restriction to U, made once per (U, X); the
    four adjunction maps below call it first, so it checks their input."""
    if X.group != U.parent:
        raise ValueError("X must be a representation of U's parent group")
    key = (U.members, X)
    store = _IND_SELF_CACHE.setdefault(U.parent, {})
    if key not in store:
        store[key] = induce(U, restrict(X, U))
    return store[key]


def adjunction_unit(U: Subgroup, X: Rep) -> RepMap:
    """X into the induction of its own restriction."""
    return RepMap(X, _induced_from_restriction(U, X), unit_matrix(U, X))


def unit_retraction(U: Subgroup, X: Rep) -> Matrix:
    """Evaluation at the identity, the counit's block of U's own coset with
    the others zeroed: a U-equivariant retraction of the unit."""
    ind = _induced_from_restriction(U, X)
    R = Matrix._of(X.field, counit_matrix(U, X).a * own_block(U, X.dim))
    _check_split("unit retraction", "retract the unit", R @ unit_matrix(U, X), ind, X, R, U)
    return R


def adjunction_counit(U: Subgroup, X: Rep) -> RepMap:
    """Induction of the restriction onto X."""
    return RepMap(_induced_from_restriction(U, X), X, counit_matrix(U, X))


def counit_section(U: Subgroup, X: Rep) -> Matrix:
    """x goes to the function supported on U with value x at the identity,
    the unit's block of U's own coset with the others zeroed: a
    U-equivariant section of the counit."""
    ind = _induced_from_restriction(U, X)
    S = Matrix._of(X.field, unit_matrix(U, X).a * own_block(U, X.dim)[:, None])
    _check_split("counit section", "section the counit", counit_matrix(U, X) @ S, X, ind, S, U)
    return S


def suspension_section(U: Subgroup, X: Rep, ses: ShortExactSeq) -> Matrix:
    """U-equivariant section of the suspension projection: push any linear
    lift off the unit's image with I - A rho, rho the unit retraction.

    The correction I - A rho kills the image of A, and the defect of the
    lift's equivariance lies in that image, so the product is equivariant.
    """
    A, proj = ses.left, ses.right
    rho = unit_retraction(U, X)
    lift = solve(proj.matrix, Matrix.identity(X.field, proj.target.dim))
    if lift is None:
        raise AssertionError("suspension projection is not surjective")
    sigma = (Matrix.identity(X.field, A.target.dim) - A.matrix @ rho) @ lift
    split = proj.matrix @ sigma
    _check_split("suspension section", "section the projection", split, proj.target, proj.source, sigma, U)
    return sigma


# ---------------------------------------------------------------------------
# relative projectivity / injectivity


def _trace_stacks(V1: Rep, V2: Rep, U: Subgroup) -> tuple[np.ndarray, np.ndarray]:
    """The stacks rho2(r^-1) and rho1(r) over the coset representatives r
    of U\\G, in block order, which define the relative trace from V1 to
    V2; a trace operator over the dense-cell budget is refused first."""
    check_cells("the relative trace", V2.dim * V1.dim, V2.dim * V1.dim)
    return coset_stack(U, V2, inverse=True), coset_stack(U, V1)


def relative_projectivity_test(P: Rep, U: Subgroup) -> tuple[bool, Matrix | None]:
    """Whether P is relatively U-projective, which for group algebras is the
    same as relatively U-injective, by Higman's criterion: the identity of P
    is the relative trace of a U-endomorphism Y.

    The witness is the section X: x |-> (Y rho(r) x)_r of the counit onto
    P, checked without building the induced module: the counit matrix
    applied to X, which is the relative trace of Y, must be the identity,
    and Y must be U-equivariant, which is exactly when X is G-equivariant.
    """
    if P.group != U.parent:
        raise ValueError("P must be a representation of U's parent group")
    field = P.field
    acting = P.on(U.generators())
    left, right = _trace_stacks(P, P, U)
    Y = _equivariant_solve(field, acting, acting, left, right)
    if Y is None:
        return (False, None)
    # the upper lift of Y and the counit, from the stacks just gathered
    X = Matrix._of(field, _lift_rows(field, Y.a[None], right)[0])
    _check_split("trace witness", "section the counit", _block_row(field, left) @ X, P, P, Y, U)
    return (True, X)


def projectivity_flags(P: Rep, U: Subgroup) -> tuple[bool, bool]:
    """Whether P is relatively U-projective, by the trace test, and whether
    it is relatively U-injective, by an independent split search for a
    G-retraction of the unit P -> Ind Res P; Higman says they agree."""
    projective, _ = relative_projectivity_test(P, U)
    retraction = u_split_search(adjunction_unit(U, P), Subgroup.full(P.group), "retraction")
    return projective, retraction is not None


# ---------------------------------------------------------------------------
# sub/quotient representations on canonical coordinates
#
# Each action is proved by its map, with no dense check of its own.  Both
# maps are the identity on the kept coordinates, so the identity acts as I.
# The RepMap's check on the generators makes the space invariant, because
# the inclusion is injective and the projection surjective; the action read
# off the kept coordinates then intertwines for every element, which makes
# it a homomorphism.  A subspace that is not invariant fails that check.


def subrep_on_subspace(big: Rep, space: Subspace) -> tuple[Rep, RepMap]:
    """An invariant subspace as a representation, coordinates read off the
    pivot columns of its echelon basis, plus the inclusion."""
    field = big.field
    pivots = space.pivots
    incl = space.basis.transpose()
    T = field.ax_matmul_batch(big.T[:, pivots, :], incl.a)
    sub = Rep._of(big.group, field, T)
    return sub, RepMap(sub, big, incl)


def subrep_on_kernel(f: RepMap) -> tuple[Rep, RepMap]:
    """The kernel of f as a representation, plus the inclusion."""
    return subrep_on_subspace(f.source, row_reduce(f.matrix))


def quotient_rep(big: Rep, image: Subspace) -> tuple[Rep, RepMap]:
    """The quotient by an invariant subspace on the non-pivot coordinates
    of its echelon basis, plus the projection."""
    field = big.field
    D = big.dim
    pivots = image.pivots
    is_piv = np.zeros(D, dtype=bool)
    is_piv[pivots] = True
    others = (~is_piv).nonzero()[0].tolist()
    # row t keeps coordinate others[t] and moves basis row i's entry there
    # onto pivot column pivots[i], negated
    proj = np.zeros((len(others), D), dtype=np.int16)
    proj[np.arange(len(others)), others] = 1
    proj[:, pivots] = field.ax_neg(image.basis.a[:, others].T)
    pmat = Matrix._of(field, proj)
    # the lift onto the non-pivot coordinates just selects those columns
    T = field.ax_matmul_batch(pmat.a, big.T[:, :, others])
    quo = Rep._of(big.group, field, T)
    return quo, RepMap(big, quo, pmat)


def suspension(X: Rep, U: Subgroup) -> tuple[Rep, ShortExactSeq]:
    """Cokernel of the adjunction unit, with the defining sequence."""
    A = adjunction_unit(U, X)
    T, proj = quotient_rep(A.target, A.image())
    return T, ShortExactSeq(A, proj)


def loop_rep(X: Rep, U: Subgroup) -> tuple[Rep, ShortExactSeq]:
    """Kernel of the adjunction counit, with the defining sequence."""
    B = adjunction_counit(U, X)
    sub, incl = subrep_on_kernel(B)
    return sub, ShortExactSeq(incl, B)


# ---------------------------------------------------------------------------
# stable hom


def stable_hom(V1: Rep, V2: Rep, U: Subgroup) -> StableHomResult:
    """Hom modulo the maps that factor through a relatively U-projective
    (equivalently U-injective) object.  By Higman's criterion those are the
    relative traces of the U-maps V1 -> V2."""
    total = hom_space(V1, V2)
    left, right = _trace_stacks(V1, V2, U)  # refuses a U of another group
    local = equivariant_kernel(V1.field, V1.on(U.generators()), V2.on(U.generators()))
    moved = local.basis @ _trace_operator(V1.field, left, right).transpose()
    factoring = Subspace.from_rows(V1.field, V1.dim * V2.dim, moved)
    if not total.contains_space(factoring):
        raise AssertionError("factoring maps left the hom space")
    return StableHomResult(
        total_dim=total.dim,
        factoring_dim=factoring.dim,
        stable_dim=total.dim - factoring.dim,
    )
