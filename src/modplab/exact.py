"""Relative homological algebra driven by a chosen subgroup U: a short
exact sequence is admissible when it splits U-equivariantly, and the unit
and counit of the induction adjunction provide enough relatively injective
and projective objects.

Splitting searches are affine linear systems over the field, solved
canonically, so every witness returned here is deterministic and every
returned flag is backed by an explicit verified matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import Subgroup, coset_lookup
from .linalg import Matrix, Subspace, check_cells, row_reduce, solve, vstack
from .reps import (
    Rep,
    RepMap,
    ShortExactSeq,
    coset_stack,
    counit_matrix,
    equivariance_system,
    hom_space,
    induce,
    intertwines,
    own_block,
    restrict,
    unit_matrix,
    upper_lift,
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
    "subrep_on_subspace",
    "subrep_on_kernel",
    "quotient_rep",
    "suspension",
    "loop_rep",
    "stable_hom",
]

@dataclass(frozen=True)
class StableHomResult:
    total_dim: int
    factoring_dim: int
    stable_dim: int

    def to_json(self) -> dict:
        return {
            "total_dim": self.total_dim,
            "factoring_dim": self.factoring_dim,
            "stable_dim": self.stable_dim,
        }


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
    gens = list(U.generators())
    # F @ X = I or X @ F = I on X flattened row major, built by index like
    # equivariance_system; at ds * dt == 0 it is solvable exactly when the
    # identity it asks for is empty
    F = f.matrix.a
    d = dt if kind == "section" else ds
    check_cells("u_split_search", d * d, ds * dt)
    fixed = np.zeros((d, d, ds, dt), dtype=np.int16)
    a = np.arange(d)
    if kind == "section":
        fixed[:, a, :, a] = F  # row (i, j), column (k, j) holds F[i, k]
    else:
        fixed[a, :, a, :] = F.T  # row (i, j), column (i, l) holds F[l, j]
    C = Matrix._of(field, fixed.reshape(d * d, ds * dt))
    return _equivariant_solve(f.target.T[gens], f.source.T[gens], C, d)


def _equivariant_solve(T_in: np.ndarray, T_out: np.ndarray, C: Matrix, d: int) -> Matrix | None:
    """The canonical X with X rho_in(u) = rho_out(u) X for every pair of
    the (s, d_in, d_in) and (s, d_out, d_out) stacks T_in, T_out and
    C vec(X) = vec(I_d), X flattened row major; None if there is none."""
    field = C.field
    equi = equivariance_system(field, T_in, T_out)
    rhs = np.zeros((equi.rows + d * d, 1), dtype=np.int16)
    rhs[equi.rows :, 0] = np.eye(d, dtype=np.int16).reshape(-1)
    x = solve(vstack([equi, C]), Matrix._of(field, rhs))
    if x is None:
        return None
    return Matrix._of(field, x.a.reshape(T_out.shape[1], T_in.shape[1]))


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
    if not intertwines(restrict(W, Uprime), restrict(V, Uprime), sigma.a):
        raise ValueError("sigma is not U'-equivariant")
    index = U.order // Uprime.order
    if index % field.p == 0:
        raise ValueError("index is divisible by the field characteristic")
    # the cosets U'r inside U, each by its least element
    R = [r for r in coset_lookup(G, Uprime)[0] if U.contains(r)]
    # sum over r of rho_V(r^-1) sigma rho_W(r) as one product of the row of
    # blocks rho_V(r^-1) sigma by the column of blocks rho_W(r)
    n, dV, dW = len(R), V.dim, W.dim
    left = field.ax_matmul_batch(V.T[G.inverse[R]], sigma.a).transpose(1, 0, 2)
    acc = field.ax_matmul(left.reshape(dV, n * dW), W.T[R].reshape(n * dW, dW))
    out = Matrix._of(field, field.ax_scale(acc, field.inv(index % field.p)))
    if f.matrix @ out != Matrix.identity(field, W.dim):
        raise AssertionError("averaged map stopped being a section")
    if not intertwines(restrict(W, U), restrict(V, U), out.a):
        raise AssertionError("averaged section is not U-equivariant")
    return out


# ---------------------------------------------------------------------------
# unit and counit of the induction adjunction

_IND_SELF_CACHE: dict = {}


def _induced_from_restriction(U: Subgroup, X: Rep) -> Rep:
    key = (U.members, X)
    store = _IND_SELF_CACHE.setdefault(U.parent, {})
    if key not in store:
        store[key] = induce(U, restrict(X, U))
    return store[key]


def adjunction_unit(U: Subgroup, X: Rep) -> RepMap:
    """X into the induction of its own restriction."""
    if X.group != U.parent:
        raise ValueError("X must be a representation of U's parent group")
    return RepMap(X, _induced_from_restriction(U, X), unit_matrix(U, X))


def unit_retraction(U: Subgroup, X: Rep) -> Matrix:
    """Evaluation at the identity, the counit's block of U's own coset with
    the others zeroed: a U-equivariant retraction of the unit."""
    ind = _induced_from_restriction(U, X)
    field, local = X.field, restrict(X, U)
    R = Matrix._of(field, counit_matrix(U, X).a * own_block(U, local))
    if R @ unit_matrix(U, X) != Matrix.identity(field, X.dim):
        raise AssertionError("evaluation at the identity failed to retract")
    RepMap(restrict(ind, U), local, R)
    return R


def adjunction_counit(U: Subgroup, X: Rep) -> RepMap:
    """Induction of the restriction onto X."""
    if X.group != U.parent:
        raise ValueError("X must be a representation of U's parent group")
    return RepMap(_induced_from_restriction(U, X), X, counit_matrix(U, X))


def counit_section(U: Subgroup, X: Rep) -> Matrix:
    """x goes to the function supported on U with value x at the identity,
    the unit's block of U's own coset with the others zeroed: a
    U-equivariant section of the counit."""
    ind = _induced_from_restriction(U, X)
    field, local = X.field, restrict(X, U)
    S = Matrix._of(field, unit_matrix(U, X).a * own_block(U, local)[:, None])
    if counit_matrix(U, X) @ S != Matrix.identity(field, X.dim):
        raise AssertionError("canonical section failed against the counit")
    RepMap(local, restrict(ind, U), S)
    return S


def suspension_section(U: Subgroup, X: Rep, ses: ShortExactSeq) -> Matrix:
    """U-equivariant section of the suspension projection: push any linear
    lift off the unit's image with I - A rho, rho the unit retraction.

    The correction I - A rho kills the image of A, and the defect of the
    lift's equivariance lies in that image, so the product is equivariant.
    """
    A, proj = ses.left, ses.right
    field = X.field
    rho = unit_retraction(U, X)
    lift = solve(proj.matrix, Matrix.identity(field, proj.target.dim))
    if lift is None:
        raise AssertionError("suspension projection is not surjective")
    ident = Matrix.identity(field, A.target.dim)
    sigma = (ident - A.matrix @ rho) @ lift
    if proj.matrix @ sigma != Matrix.identity(field, proj.target.dim):
        raise AssertionError("canonical section failed against the projection")
    RepMap(restrict(proj.target, U), restrict(proj.source, U), sigma)
    return sigma


# ---------------------------------------------------------------------------
# relative projectivity / injectivity


def _trace_operator(V1: Rep, V2: Rep, U: Subgroup) -> Matrix:
    """Matrix of the relative trace X |-> sum over r in U\\G of
    rho2(r^-1) X rho1(r), on d2 x d1 matrices X flattened row major."""
    field = V1.field
    d1, d2, n = V1.dim, V2.dim, U.index
    check_cells("the relative trace", d2 * d1, d2 * d1)
    # the sum over r of rho2(r^-1) (x) rho1(r)^T as one product: entry
    # ((i, j), (k, l)) is sum_r rho2(r^-1)[i, k] rho1(r)[l, j]
    left = coset_stack(U, V2, inverse=True).reshape(n, d2 * d2)  # row r: (i, k)
    right = coset_stack(U, V1).transpose(0, 2, 1).reshape(n, d1 * d1)  # row r: (j, l)
    trace = field.ax_matmul(left.T, right).reshape(d2, d2, d1, d1).transpose(0, 2, 1, 3)
    return Matrix._of(field, trace.reshape(d2 * d1, d2 * d1))


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
    gens = list(U.generators())
    Y = _equivariant_solve(P.T[gens], P.T[gens], _trace_operator(P, P, U), P.dim)
    if Y is None:
        return (False, None)
    X = Matrix._of(field, upper_lift(U, P, Y.a[None])[0])
    if counit_matrix(U, P) @ X != Matrix.identity(field, P.dim):
        raise AssertionError("trace witness failed to section the counit")
    local = restrict(P, U)
    if not intertwines(local, local, Y.a):
        raise AssertionError("trace witness is not U-equivariant")
    return (True, X)


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
    sub = Rep._of(big.group, field, T, validate=False)
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
    quo = Rep._of(big.group, field, T, validate=False)
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
    local = hom_space(restrict(V1, U), restrict(V2, U))
    moved = local.basis @ _trace_operator(V1, V2, U).transpose()
    factoring = Subspace.from_rows(V1.field, V1.dim * V2.dim, moved)
    if not total.contains_space(factoring):
        raise AssertionError("factoring maps left the hom space")
    return StableHomResult(
        total_dim=total.dim,
        factoring_dim=factoring.dim,
        stable_dim=total.dim - factoring.dim,
    )
