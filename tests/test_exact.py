import numpy as np
import pytest

from conftest import start_cold
from modplab import exact, reps
from modplab.catalog import alt4, catalog_groups, catalog_reps, cyclic_group, sym3
from modplab.covers import induced_trivial
from modplab.exact import (
    adjunction_counit,
    adjunction_unit,
    averaging_section,
    counit_section,
    loop_rep,
    projectivity_flags,
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
from modplab.linalg import Matrix, Subspace, row_reduce
from modplab.groups import Subgroup, all_subgroups
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
    assert w.a.tolist() == [[1], [0]]  # canonical: free variables zero
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


@pytest.mark.parametrize("U", _foreign_subgroups(), ids=repr)
@pytest.mark.parametrize("entry", [adjunction_unit, adjunction_counit, unit_retraction, counit_section],
                         ids=lambda f: f.__name__)
def test_adjunction_maps_reject_a_module_over_another_group(entry, U):
    with pytest.raises(ValueError, match="X must be a representation of U's parent group"):
        entry(U, regular_rep(sym3(), F2))


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
    assert sigma.a.tolist() == [[1], [0]]
    tilde = averaging_section(sigma, aug3, E, full)
    assert tilde.a.tolist() == [[2], [2]]  # (1/2)(e + g)·sigma, and 1/2 = 2
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
    assert A.matrix.a.tolist() == [[1], [1]]  # image = constants
    assert adjunction_unit(Subgroup.full(C2), triv).matrix == Matrix.identity(F2, 1)
    r = unit_retraction(Subgroup.trivial(C2), triv)
    assert r @ A.matrix == Matrix.identity(F2, 1)


def test_adjunction_counit_frozen():
    C2 = cyclic_group(2)
    triv = trivial_rep(C2, F2)
    B = adjunction_counit(Subgroup.trivial(C2), triv)
    assert B.matrix.a.tolist() == [[1, 1]]  # the augmentation
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


def test_trace_test_gathers_each_coset_stack_once(monkeypatch):
    """The witness is checked against the two stacks the trace test
    gathers, cold and warm; the upper lift and the counit used to gather
    them again."""
    start_cold(monkeypatch)
    calls = []
    original = reps.coset_stack

    def spy(*args, **kwargs):
        calls.append(kwargs.get("inverse", False))
        return original(*args, **kwargs)

    for module in (reps, exact):
        monkeypatch.setattr(module, "coset_stack", spy)
    S3 = sym3()
    for members in ((0,), (0, 3), (0, 1, 2)):
        U = Subgroup(S3, members)
        P = induced_trivial(U, F3)
        for _ in ("cold", "warm"):
            calls.clear()
            flag, witness = relative_projectivity_test(P, U)
            assert flag and witness is not None
            assert sorted(calls) == [False, True], members


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
    assert ker.dim == 1 and kinc.matrix.a.tolist() == [[1], [1]]


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


@pytest.mark.parametrize("field", [F2, F3], ids=["F2", "F3"])
@pytest.mark.parametrize("name", sorted(catalog_groups()))
def test_projectivity_flags_are_the_two_separate_tests(name, field):
    G = catalog_groups()[name]
    full = Subgroup.full(G)
    for U in all_subgroups(G):
        for P in catalog_reps(G, field, 4).values():
            projective = relative_projectivity_test(P, U)[0]
            injective = u_split_search(adjunction_unit(U, P), full, "retraction") is not None
            assert projectivity_flags(P, U) == (projective, injective)


def test_trace_test_checks_its_witness_on_the_stacks_it_holds(monkeypatch):
    """Over every subgroup of S3 and A4, the trace test checks Y against
    the generators' stack it gathered, without restricting P to U."""
    from conftest import profiled

    trace, copy = exact.relative_projectivity_test.__code__, reps.restrict.__code__
    restricted = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is copy and frame.f_back.f_code is trace:
            restricted.append(frame.f_locals["U"])

    def run():
        for G in (sym3(), alt4()):
            for U in all_subgroups(G):
                for P in catalog_reps(G, F3, 3).values():
                    relative_projectivity_test(P, U)

    start_cold(monkeypatch)
    profiled(hook, run)
    assert restricted == []


def test_a_tampered_trace_witness_raises(monkeypatch):
    """Y plus a matrix that the relative trace kills, but that does not
    commute with U, still sections the counit; the equivariance check
    catches it."""
    import numpy as np

    from modplab.linalg import row_reduce

    S3 = sym3()
    U = Subgroup(S3, [0, 3])
    P = regular_rep(S3, F3)
    g = P.on(U.generators())
    killed = row_reduce(exact._trace_operator(F3, *exact._trace_stacks(P, P, U))).basis.a
    Z = next(
        z.reshape(6, 6)
        for z in killed
        if not np.array_equal(F3.ax_matmul_batch(z.reshape(6, 6), g), F3.ax_matmul_batch(g, z.reshape(6, 6)))
    )
    flag, _ = relative_projectivity_test(P, U)
    assert flag
    solve = exact._equivariant_solve

    def tampered(*args):
        Y = solve(*args)
        return Matrix(F3, F3.ax_add(Y.a, Z))

    monkeypatch.setattr(exact, "_equivariant_solve", tampered)
    with pytest.raises(AssertionError, match="trace witness is not U-equivariant"):
        relative_projectivity_test(P, U)


@pytest.mark.parametrize("U", _foreign_subgroups(), ids=repr)
def test_stable_hom_rejects_a_subgroup_of_another_group(U):
    reg = regular_rep(sym3(), F2)
    with pytest.raises(ValueError, match="parent group"):
        stable_hom(reg, reg, U)


def _averaging_input(field):
    """F[S3] onto F, and the section at the basis vector of the identity,
    which only the trivial subgroup fixes."""
    return _augmentation(sym3(), field), Matrix(field, [[1]] + [[0]] * 5)


@pytest.mark.parametrize("U", _foreign_subgroups(), ids=repr)
def test_averaging_section_rejects_a_subgroup_of_another_group(U):
    """U from another group, with U' its trivial subgroup, and U' from
    another group, with U all of S3."""
    aug, sigma = _averaging_input(F5)
    with pytest.raises(ValueError, match="subgroup of a different group"):
        averaging_section(sigma, aug, Subgroup.trivial(U.parent), U)
    with pytest.raises(ValueError, match="U' must be a subgroup of U"):
        averaging_section(sigma, aug, U, Subgroup.full(sym3()))


# Each input check of averaging_section after its subgroup check, reached
# by one input that breaks that condition alone: (field, sigma, U', U,
# the check's message).  Without the check, each input either returns or
# fails the section's own AssertionError, so only the check's ValueError
# passes.
AVERAGING_REJECTS = {
    "no-section": (F5, lambda F: Matrix(F, [[0]] * 6), [0], "sigma is not a section of f"),
    # the identity's basis vector is fixed by no transposition
    "not-u-prime-equivariant": (F5, lambda F: _averaging_input(F)[1], [0, 3], "sigma is not U'-equivariant"),
    # [S3 : 1] = 6 in characteristic 2
    "index-divisible-by-p": (F2, lambda F: _averaging_input(F)[1], [0], "index is divisible by the field characteristic"),
}


@pytest.mark.parametrize("name", sorted(AVERAGING_REJECTS))
def test_averaging_section_rejects_a_bad_input(name):
    field, sigma, uprime, message = AVERAGING_REJECTS[name]
    S3 = sym3()
    with pytest.raises(ValueError, match=message):
        averaging_section(sigma(field), _augmentation(S3, field), Subgroup(S3, uprime), Subgroup.full(S3))


@pytest.mark.parametrize("U", _foreign_subgroups(), ids=repr)
def test_suspension_section_rejects_a_subgroup_of_another_group(U):
    S3 = sym3()
    X = catalog_reps(S3, F3)["perm3"]
    _, ses = suspension(X, Subgroup(S3, [0, 3]))
    with pytest.raises(ValueError, match="parent group"):
        suspension_section(U, X, ses)


# Each split witness in exact, run with one of its inputs tampered so that
# the witness breaks one of the two things its check reads: the composite
# with the map it splits stops being the identity while the witness stays
# U-equivariant ("composite"), or the composite stays the identity while
# the witness stops being U-equivariant ("equivariance").  Each returns
# the call to make, the witness's name and what it splits.


def _tampered_averaging(monkeypatch, broken):
    """From the trivial subgroup to S3 over F5, where the index 6 is 1:
    scaling the trace by 2 in place of 1/6 keeps it S3-equivariant, and
    averaging over the identity's coset alone returns the section."""
    F = FiniteField(5)
    aug, sigma = _averaging_input(F)
    if broken == "composite":
        monkeypatch.setattr(F, "inv", lambda a: 2)
    else:
        monkeypatch.setattr(exact, "coset_lookup", lambda G, U: ([G.identity], None))
    E, S3 = Subgroup.trivial(sym3()), Subgroup.full(sym3())
    return lambda: averaging_section(sigma, aug, E, S3), "averaged section", "section f"


def _tampered_adjunction(entry, name, splits):
    """unit_retraction or counit_section on perm3 of S3 over F3 and U of
    order 2: marking no block gives the zero map; marking the block of
    the next coset r gives rho(r^-1), or rho(r), there, which still
    composes to the identity."""

    def tamper(monkeypatch, broken):
        S3 = sym3()
        X = catalog_reps(S3, F3)["perm3"]
        if broken == "composite":
            monkeypatch.setattr(exact, "own_block", lambda U, d: np.zeros(U.index * d, dtype=bool))
        else:
            monkeypatch.setattr(exact, "own_block", lambda U, d: np.roll(reps.own_block(U, d), d))
        return lambda: entry(Subgroup(S3, [0, 3]), X), name, splits

    return tamper


def _tampered_suspension_section(monkeypatch, broken):
    """A zero lift gives the zero section; a zero unit retraction leaves
    the lift uncorrected, a section that U does not fix."""
    S3 = sym3()
    U = Subgroup(S3, [0, 3])
    X = catalog_reps(S3, F3)["perm3"]
    _, ses = suspension(X, U)
    if broken == "composite":
        monkeypatch.setattr(exact, "solve", lambda A, B: Matrix.zeros(A.field, A.cols, B.cols))
    else:
        monkeypatch.setattr(exact, "unit_retraction", lambda U, X: Matrix.zeros(X.field, X.dim, U.index * X.dim))
    return lambda: suspension_section(U, X, ses), "suspension section", "section the projection"


def _tampered_trace_witness(monkeypatch, broken):
    """2Y has trace 2; Y plus a map of trace 0 that does not commute with
    U keeps trace 1."""
    S3 = sym3()
    U = Subgroup(S3, [0, 3])
    P = regular_rep(S3, F3)
    if broken == "composite":
        Z = None
    else:
        g = P.on(U.generators())
        killed = row_reduce(exact._trace_operator(F3, *exact._trace_stacks(P, P, U))).basis.a.reshape(-1, 6, 6)
        Z = next(z for z in killed if not np.array_equal(F3.ax_matmul_batch(z, g), F3.ax_matmul_batch(g, z)))
    solve = exact._equivariant_solve

    def tampered(*args):
        Y = solve(*args).a
        return Matrix._of(F3, F3.ax_add(Y, Y if Z is None else Z))

    monkeypatch.setattr(exact, "_equivariant_solve", tampered)
    return lambda: relative_projectivity_test(P, U), "trace witness", "section the counit"


TAMPERED = {
    "averaging_section": _tampered_averaging,
    "unit_retraction": _tampered_adjunction(unit_retraction, "unit retraction", "retract the unit"),
    "counit_section": _tampered_adjunction(counit_section, "counit section", "section the counit"),
    "suspension_section": _tampered_suspension_section,
    "relative_projectivity_test": _tampered_trace_witness,
}


@pytest.mark.parametrize("broken", ["composite", "equivariance"])
@pytest.mark.parametrize("witness", sorted(TAMPERED))
def test_a_tampered_split_witness_raises(monkeypatch, witness, broken):
    """Every witness passes its check untampered, and each tamper fails
    the one check it breaks, with that check's message."""
    with monkeypatch.context() as patch:
        call, name, splits = TAMPERED[witness](patch, broken)
    call()
    call, name, splits = TAMPERED[witness](monkeypatch, broken)
    message = f"{name} failed to {splits}" if broken == "composite" else f"{name} is not U-equivariant"
    with pytest.raises(AssertionError, match=message):
        call()


def test_stable_hom_rejects_factoring_maps_outside_the_hom_space(monkeypatch):
    """With the identity in place of the trace, the U-maps themselves pass
    for factoring maps, and for U = 1 most of them are not G-maps."""
    S3 = sym3()
    reg = regular_rep(S3, F3)

    def identity(field, left, right):
        return Matrix.identity(field, left.shape[1] * right.shape[1])

    monkeypatch.setattr(exact, "_trace_operator", identity)
    with pytest.raises(AssertionError, match="factoring maps left the hom space"):
        stable_hom(reg, reg, Subgroup.trivial(S3))


def test_witnesses_and_stable_hom_restrict_no_module(monkeypatch):
    """Over exact-axioms, stable-frobenius and higman on the built-in
    catalog at seed 0, the split witnesses and stable_hom read U's
    generator stacks and dimensions, not restrictions: none of them
    restricts a module."""
    from collections import Counter

    from conftest import profiled
    from modplab.suites import run_suite

    copy = reps.restrict.__code__
    watched = {"averaging_section", "suspension_section", "stable_hom", "unit_retraction", "counit_section"}
    calls, restricts = Counter(), Counter()

    def hook(frame, event, arg):
        if event != "call":
            return
        name = frame.f_code.co_name
        if frame.f_code is copy:
            restricts[frame.f_back.f_code.co_name] += 1
        elif name in watched and frame.f_globals is vars(exact):
            calls[name] += 1

    start_cold(monkeypatch)
    profiled(hook, lambda: [run_suite(suite, seed=0) for suite in ("exact-axioms", "stable-frobenius", "higman")])
    assert set(calls) == watched
    for name in sorted(watched):
        assert restricts[name] == 0, name
    assert set(restricts) == {"_induced_from_restriction"}
