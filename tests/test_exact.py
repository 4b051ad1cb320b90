import pytest

from modplab.catalog import alt4, catalog_reps, cyclic_group, sym3
from modplab.covers import induced_trivial
from modplab.exact import (
    adjunction_counit,
    adjunction_unit,
    averaging_section,
    counit_section,
    loop_rep,
    quotient_rep,
    relative_projectivity_test,
    stable_hom,
    subrep_on_kernel,
    subrep_on_subspace,
    suspension,
    suspension_section,
    u_split_search,
    unit_retraction,
)
from modplab.fields import FiniteField
from modplab.jordan import jordan_block_rep, jordan_type, stable_jordan_type
from modplab.linalg import Matrix, Subspace
from modplab.groups import Subgroup
from modplab.reps import (
    RepMap,
    direct_sum,
    regular_rep,
    restrict,
    trivial_rep,
)

F2 = FiniteField(2)
F3 = FiniteField(3)
F5 = FiniteField(5)


def _augmentation(G, field):
    reg = regular_rep(G, field)
    triv = trivial_rep(G, field)
    return RepMap(reg, triv, Matrix(field, [[1] * G.order]))


def test_u_split_search_frozen():
    C2 = cyclic_group(2)
    aug = _augmentation(C2, F2)
    assert u_split_search(aug, Subgroup.full(C2), "section") is None
    w = u_split_search(aug, Subgroup.trivial(C2), "section")
    assert w is not None
    assert w.tolist() == [[1], [0]]  # canonical: free variables zero
    ident = RepMap(trivial_rep(C2, F2), trivial_rep(C2, F2), Matrix.identity(F2, 1))
    wi = u_split_search(ident, Subgroup.full(C2), "section")
    assert wi == Matrix.identity(F2, 1)


def test_u_split_search_retraction():
    C2 = cyclic_group(2)
    triv, reg = trivial_rep(C2, F2), regular_rep(C2, F2)
    inc = RepMap(triv, reg, Matrix(F2, [[1], [1]]))
    assert u_split_search(inc, Subgroup.full(C2), "retraction") is None
    r = u_split_search(inc, Subgroup.trivial(C2), "retraction")
    assert r is not None and r @ inc.matrix == Matrix.identity(F2, 1)
    with pytest.raises(ValueError):
        u_split_search(inc, Subgroup.full(C2), "both")


def _foreign_subgroups():
    """Subgroups of C4 and A4, none of them a subgroup of S3: (0, 2) and
    (0, 3) index inside S3's order, (0, 8) beyond it."""
    return [Subgroup(cyclic_group(4), [0, 2]), Subgroup(alt4(), [0, 3]), Subgroup(alt4(), [0, 8])]


@pytest.mark.parametrize("U", _foreign_subgroups(), ids=repr)
def test_u_split_search_rejects_a_subgroup_of_another_group(U):
    reg = regular_rep(sym3(), F2)
    f = RepMap(reg, reg, Matrix.identity(F2, 6))
    with pytest.raises(ValueError, match="parent group"):
        u_split_search(f, U, "section")


@pytest.mark.parametrize("U", _foreign_subgroups(), ids=repr)
def test_relative_projectivity_rejects_a_subgroup_of_another_group(U):
    with pytest.raises(ValueError, match="parent group"):
        relative_projectivity_test(regular_rep(sym3(), F2), U)


def test_splits_over():
    C2 = cyclic_group(2)
    _, ses = loop_rep(trivial_rep(C2, F2), Subgroup.trivial(C2))
    # a section of the right-hand epic splits the sequence
    assert u_split_search(ses.right, Subgroup.trivial(C2), "section") is not None
    assert u_split_search(ses.right, Subgroup.full(C2), "section") is None


def test_averaging_section_frozen():
    C2 = cyclic_group(2)
    E, full = Subgroup.trivial(C2), Subgroup.full(C2)
    aug3 = _augmentation(C2, F3)
    sigma = counit_section(E, trivial_rep(C2, F3))
    assert sigma.tolist() == [[1], [0]]
    tilde = averaging_section(sigma, aug3, E, full)
    assert tilde.tolist() == [[2], [2]]  # (1/2)(e + g)·sigma, and 1/2 = 2
    assert aug3.matrix @ tilde == Matrix.identity(F3, 1)
    same = averaging_section(sigma, aug3, E, E)
    assert same == sigma
    with pytest.raises(ValueError):
        averaging_section(
            counit_section(E, trivial_rep(C2, F2)), _augmentation(C2, F2), E, full
        )  # index 2 not invertible in characteristic 2


def test_adjunction_unit_frozen():
    C2 = cyclic_group(2)
    triv = trivial_rep(C2, F2)
    A = adjunction_unit(Subgroup.trivial(C2), triv)
    assert A.matrix.tolist() == [[1], [1]]  # image = constants
    assert adjunction_unit(Subgroup.full(C2), triv).matrix == Matrix.identity(F2, 1)
    r = unit_retraction(Subgroup.trivial(C2), triv)
    assert r @ A.matrix == Matrix.identity(F2, 1)


def test_adjunction_counit_frozen():
    C2 = cyclic_group(2)
    triv = trivial_rep(C2, F2)
    B = adjunction_counit(Subgroup.trivial(C2), triv)
    assert B.matrix.tolist() == [[1, 1]]  # the augmentation
    assert adjunction_counit(Subgroup.full(C2), triv).matrix == Matrix.identity(F2, 1)
    s = counit_section(Subgroup.trivial(C2), triv)
    assert B.matrix @ s == Matrix.identity(F2, 1)


def test_unit_counit_identities_across_sample():
    S3 = sym3()
    pool = catalog_reps(S3, F3)
    for members in ((0,), (0, 3), (0, 1, 2)):
        U = Subgroup(S3, members)
        for V in pool.values():
            A = adjunction_unit(U, V)
            B = adjunction_counit(U, V)
            I = Matrix.identity(F3, V.dim)
            assert unit_retraction(U, V) @ A.matrix == I
            assert B.matrix @ counit_section(U, V) == I


def test_suspension_section_is_equivariant_section():
    S3 = sym3()
    U = Subgroup(S3, [0, 3])
    X = catalog_reps(S3, F3)["perm3"]
    T, ses = suspension(X, U)
    w = suspension_section(U, X, ses)
    assert ses.right.matrix @ w == Matrix.identity(F3, T.dim)
    mid, down = restrict(ses.right.source, U), restrict(T, U)
    RepMap(down, mid, w, validate=True)  # raises if not U-equivariant


def test_relative_projectivity_frozen():
    S3 = sym3()
    triv3 = trivial_rep(S3, F3)
    flag, witness = relative_projectivity_test(triv3, Subgroup(S3, [0, 1, 2]))
    assert flag and isinstance(witness, Matrix)
    flag2, witness2 = relative_projectivity_test(triv3, Subgroup.trivial(S3))
    assert not flag2 and witness2 is None


def _unit_retracts(V, U):
    """Relative injectivity by the split search on the actual unit."""
    return u_split_search(adjunction_unit(U, V), Subgroup.full(V.group), "retraction") is not None


def test_induced_objects_are_relatively_projective_and_injective():
    S3 = sym3()
    for members in ((0,), (0, 3), (0, 1, 2)):
        U = Subgroup(S3, members)
        ind = induced_trivial(U, F3)
        flag, _ = relative_projectivity_test(ind, U)
        assert flag, members
        assert _unit_retracts(ind, U), members


def test_projective_iff_injective_on_sample():
    C3 = cyclic_group(3)
    E = Subgroup.trivial(C3)
    for name, V in catalog_reps(C3, F3).items():
        fp, _ = relative_projectivity_test(V, E)
        assert fp == _unit_retracts(V, E), name


def test_subrep_and_quotient():
    C2 = cyclic_group(2)
    reg = regular_rep(C2, F2)
    diag = Subspace.from_rows(F2, 2, [[1, 1]])
    sub, inc = subrep_on_subspace(reg, diag)
    assert sub.dim == 1 and (sub.T == 1).all()
    quo, proj = quotient_rep(reg, diag)
    assert quo.dim == 1
    assert not (proj.matrix @ inc.matrix).a.any()
    ker, kinc = subrep_on_kernel(_augmentation(C2, F2))
    assert ker.dim == 1 and kinc.matrix.tolist() == [[1], [1]]


def test_subrep_and_quotient_reject_a_non_invariant_subspace():
    # the generator of C2 swaps e0 and e1; a transposition of S3 moves the
    # basis vector of the identity
    for V in (regular_rep(cyclic_group(2), F2), regular_rep(sym3(), F3)):
        line = Subspace.from_rows(V.field, V.dim, [[1] + [0] * (V.dim - 1)])
        with pytest.raises(ValueError, match="map is not equivariant"):
            subrep_on_subspace(V, line)
        with pytest.raises(ValueError, match="map is not equivariant"):
            quotient_rep(V, line)


def test_suspension_and_loop_frozen():
    C2 = cyclic_group(2)
    triv = trivial_rep(C2, F2)
    E, full = Subgroup.trivial(C2), Subgroup.full(C2)
    T, ses_t = suspension(triv, E)
    assert T.dim == 1 and (T.T == 1).all()
    assert ses_t.left.matrix.rank() == 1
    L, ses_l = loop_rep(triv, E)
    assert L.dim == 1 and (L.T == 1).all()
    assert suspension(triv, full)[0].dim == 0
    assert loop_rep(triv, full)[0].dim == 0


def test_suspension_dimension_formula():
    S3 = sym3()
    for name, X in catalog_reps(S3, F2).items():
        for members in ((0,), (0, 1, 2)):
            U = Subgroup(S3, members)
            T, _ = suspension(X, U)
            assert T.dim == U.index * X.dim - X.dim, (name, members)


def test_loop_of_jordan_block():
    C3 = cyclic_group(3)
    E = Subgroup.trivial(C3)
    J1 = jordan_block_rep(C3, F3, 1)
    L1, _ = loop_rep(J1, E)
    assert jordan_type(L1) == (2,)
    T1, _ = suspension(J1, E)
    assert jordan_type(T1) == (2,)
    # a free J3 summand appears after two steps; strip it for the stable type
    LT, _ = loop_rep(T1, E)
    assert jordan_type(LT) == (3, 1)
    assert stable_jordan_type(LT) == (1,)


def test_stable_hom_frozen():
    for G, field in ((cyclic_group(2), F2), (cyclic_group(3), F3), (cyclic_group(5), F5)):
        triv = trivial_rep(G, field)
        E, full = Subgroup.trivial(G), Subgroup.full(G)
        res = stable_hom(triv, triv, E)
        assert (res.total_dim, res.factoring_dim, res.stable_dim) == (1, 0, 1)
        assert stable_hom(triv, triv, full).stable_dim == 0
    C2 = cyclic_group(2)
    ind = induced_trivial(Subgroup.trivial(C2), F2)
    res = stable_hom(trivial_rep(C2, F2), ind, Subgroup.trivial(C2))
    assert res.stable_dim == 0  # everything factors through a relative injective


def test_stable_hom_result_json():
    C2 = cyclic_group(2)
    res = stable_hom(trivial_rep(C2, F2), trivial_rep(C2, F2), Subgroup.trivial(C2))
    assert res.to_json() == {
        "total_dim": 1,
        "factoring_dim": 0,
        "stable_dim": 1,
    }
    assert res.stable_dim == res.total_dim - res.factoring_dim


def test_stable_hom_additivity_over_sum():
    C3 = cyclic_group(3)
    E = Subgroup.trivial(C3)
    J1 = jordan_block_rep(C3, F3, 1)
    J2 = jordan_block_rep(C3, F3, 2)
    lhs = stable_hom(direct_sum([J1, J2]), J1, E)
    parts = [stable_hom(J, J1, E) for J in (J1, J2)]
    assert lhs.stable_dim == sum(p.stable_dim for p in parts)
