"""reps.equivariant_kernel: the memoised kernel behind hom_space,
fixed_points and covers.character_eigenspace.  The oracles are a direct
reduction of the stacked system, and the hand-built "rho(g) - c I" systems
that fixed_points and character_eigenspace reduced before.  Also
reps._equivariant_solve, the memoised affine solve behind exact's split
searches and trace test, which shares the kernel's memo."""

import functools

import numpy as np
import pytest

from modplab import exact, linalg, reps
from modplab.catalog import catalog_fields, catalog_groups, catalog_reps
from modplab.covers import character_eigenspace
from modplab.fields import FiniteField
from modplab.groups import all_subgroups
from modplab.linalg import Matrix, row_reduce
from modplab.memo import ENTRY_OVERHEAD, Memo
from modplab.reps import (
    Rep,
    _equivariant_solve,
    characters_of,
    equivariance_system,
    equivariant_kernel,
    fixed_points,
    hom_space,
)

FIELDS = {"F2": (2, 1), "F3": (3, 1), "F4": (2, 2), "F9": (3, 2)}


def _random_stack(rng, field, s, d):
    return rng.integers(0, field.order, size=(s, d, d)).astype(np.int16)


@pytest.mark.parametrize("fname", sorted(FIELDS))
@pytest.mark.parametrize("s", [1, 2, 3])
def test_kernel_is_the_reduced_system_on_random_stacks(fname, s, fresh_memos):
    field = FiniteField(*FIELDS[fname])
    rng = np.random.default_rng([s, field.order])
    for d1, d2 in [(1, 1), (1, 3), (3, 1), (2, 4), (4, 2), (3, 3)]:
        T1, T2 = _random_stack(rng, field, s, d1), _random_stack(rng, field, s, d2)
        # a stack with a shared eigenvector keeps some kernels nonzero
        if d1 == d2:
            T2 = T2.copy()
            T2[:] = T1
        expect = row_reduce(equivariance_system(field, T1, T2))
        cold = equivariant_kernel(field, T1, T2)
        assert cold == expect
        assert equivariant_kernel(field, T1.copy(), T2.copy()) is cold  # warm
    assert len(reps._KERNEL_MEMO) == 6


def test_kernel_keys_on_field_and_shapes(fresh_memos):
    """The same codes as other fields or other shapes are other entries."""
    a = np.array([[[1, 1], [0, 1]]], dtype=np.int16)
    b = np.array([[[1, 0], [1, 1]]], dtype=np.int16)
    F2, F3 = FiniteField(2), FiniteField(3)
    got = {
        "F2": equivariant_kernel(F2, a, b),
        "F3": equivariant_kernel(F3, a, b),
        "flat": equivariant_kernel(F2, a.reshape(4, 1, 1), b.reshape(4, 1, 1)),
    }
    assert len(reps._KERNEL_MEMO) == 3
    assert got["F2"] == row_reduce(equivariance_system(F2, a, b))
    assert got["F3"] == row_reduce(equivariance_system(F3, a, b))
    assert got["F2"] != got["F3"] and got["flat"].ambient_dim == 1


def test_hit_returns_an_equal_read_only_subspace(fresh_memos):
    G, F = catalog_groups()["S3"], catalog_fields()["F3"]
    pool = catalog_reps(G, F, 4)
    first = {(a, b): hom_space(V, W) for a, V in pool.items() for b, W in pool.items()}
    entries = len(reps._KERNEL_MEMO)
    for (a, b), space in first.items():
        again = hom_space(pool[a], pool[b])
        assert again == space and again is space
        assert not again.basis.a.flags.writeable
    assert len(reps._KERNEL_MEMO) == entries


def test_equal_generator_stacks_share_an_entry(fresh_memos):
    G, F = catalog_groups()["A4"], catalog_fields()["F2"]
    pool = catalog_reps(G, F, 4)
    V = pool["perm4"]
    twin = Rep._of(G, F, V.T.copy())
    assert twin is not V
    space = hom_space(V, V)
    assert len(reps._KERNEL_MEMO) == 1
    assert hom_space(twin, twin) is space and hom_space(V, twin) is space
    assert len(reps._KERNEL_MEMO) == 1
    # fixed points are the maps from the trivial module, one more entry
    assert fixed_points(V) is fixed_points(twin)
    assert len(reps._KERNEL_MEMO) == 2


def test_memo_never_exceeds_its_cell_budget(monkeypatch, fresh_memos):
    budget = 3 * ENTRY_OVERHEAD + 200
    monkeypatch.setattr(reps, "_KERNEL_MEMO", Memo(budget))
    G, F = catalog_groups()["D4"], catalog_fields()["F3"]
    pool = list(catalog_reps(G, F, 4).values())
    seen = 0
    for V in pool:
        for W in pool:
            assert hom_space(V, W) == row_reduce(
                equivariance_system(F, V.T[list(G.generators())], W.T[list(G.generators())])
            )
            seen += 1
            assert reps._KERNEL_MEMO.cells <= budget
    assert 0 < len(reps._KERNEL_MEMO) < seen


def _old_fixed_points(V):
    gens = list(V.group.generators())
    moved = V.field.ax_sub(V.T[gens], np.eye(V.dim, dtype=np.int16))
    return row_reduce(Matrix._of(V.field, moved.reshape(-1, V.dim)))


def _old_eigenspace(V, C, chi):
    gens = list(C.generators())
    scalars = np.array([chi.value(z) for z in gens], dtype=np.int16)[:, None, None]
    moved = V.field.ax_sub(V.T[gens], scalars * np.eye(V.dim, dtype=np.int16))
    return row_reduce(Matrix._of(V.field, moved.reshape(-1, V.dim)))


@pytest.mark.parametrize("gname", sorted(catalog_groups()))
def test_fixed_points_and_eigenspaces_match_the_hand_built_systems(gname):
    G = catalog_groups()[gname]
    checked = 0
    for F in catalog_fields().values():
        pool = [V for V in catalog_reps(G, F, 4).values() if V.dim]
        for V in pool:
            assert fixed_points(V) == _old_fixed_points(V)
        for C in all_subgroups(G):
            if C.order == 1 or not C.as_group().is_abelian():
                continue
            for chi in characters_of(C, F):
                for V in pool:
                    assert character_eigenspace(V, C, chi)[0] == _old_eigenspace(V, C, chi)
                    checked += 1
    assert checked


# ---- _equivariant_solve ----

# X is 1 x 2 and must commute with the swap: X = (x, x).  With C = (1 1)
# that asks for 2x = 1, which F3 solves with x = 2 and F2 cannot; with
# C = (1 0) it asks for x = 1.
SWAP = np.array([[[0, 1], [1, 0]]], dtype=np.int16)
ONE = np.ones((1, 1, 1), dtype=np.int16)


def _counting_systems(monkeypatch):
    calls = []
    real = reps.equivariance_system

    def counting(field, T1, T2):
        calls.append(T1.shape)
        return real(field, T1, T2)

    monkeypatch.setattr(reps, "equivariance_system", counting)
    return calls


def _solve(T_in, T_out, C, d, built=None):
    """_equivariant_solve for a given constraint C, built from its own
    codes; built, if given, collects C each time the solve builds it."""

    def given(field, codes):
        if built is not None:
            built.append(C)
        return Matrix._of(field, codes)

    return _equivariant_solve(C.field, T_in, T_out, d, given, C.a)


def test_solve_keys_on_field_d_shapes_and_constraint(fresh_memos):
    F2, F3 = FiniteField(2), FiniteField(3)
    both, first = [[1, 1]], [[1, 0]]
    assert _solve(SWAP, ONE, Matrix(F3, both), 1).a.tolist() == [[2, 2]]
    assert _solve(SWAP, ONE, Matrix(F2, both), 1) is None
    assert _solve(SWAP, ONE, Matrix(F3, first), 1).a.tolist() == [[1, 1]]
    # the swap's codes as four 1 x 1 matrices, one of them 0: there X = 0
    four = SWAP.reshape(4, 1, 1)
    assert _solve(four, np.ones_like(four), Matrix(F3, [[1]]), 1) is None
    assert len(reps._KERNEL_MEMO) == 4
    # d must match C's rows whatever the memo holds
    with pytest.raises(ValueError, match="row count mismatch"):
        _solve(SWAP, ONE, Matrix(F3, both), 2)


def test_solve_memoises_an_inconsistent_system(monkeypatch, fresh_memos):
    calls = _counting_systems(monkeypatch)
    C = Matrix(FiniteField(2), [[1, 1]])
    assert _solve(SWAP, ONE, C, 1) is None
    assert len(calls) == 1 and len(reps._KERNEL_MEMO) == 1
    assert _solve(SWAP.copy(), ONE.copy(), Matrix(C.field, C.a.copy()), 1) is None
    assert len(calls) == 1 and len(reps._KERNEL_MEMO) == 1


def test_solve_hit_returns_an_equal_read_only_matrix(monkeypatch, fresh_memos):
    calls = _counting_systems(monkeypatch)
    C, built = Matrix(FiniteField(3), [[1, 1]]), []
    cold = _solve(SWAP, ONE, C, 1, built)
    again = _solve(SWAP.copy(), ONE.copy(), Matrix(C.field, C.a.copy()), 1, built)
    assert again is cold and again == Matrix(C.field, [[2, 2]])
    assert not again.a.flags.writeable and len(calls) == 1 and len(built) == 1


def test_solve_keys_on_the_builder(fresh_memos):
    """The same stacks and arguments given to another builder are another
    entry, built anew."""
    C, built = Matrix(FiniteField(3), [[1, 1]]), []

    def first(field, codes):
        built.append("first")
        return Matrix._of(field, codes)

    def other(field, codes):
        built.append("other")
        return Matrix._of(field, codes)

    got = [_equivariant_solve(C.field, SWAP, ONE, 1, build, C.a) for build in (first, other)]
    assert got[0] == got[1] and got[0] is not got[1]
    assert built == ["first", "other"] and len(reps._KERNEL_MEMO) == 2


def test_solve_memo_never_exceeds_its_cell_budget(monkeypatch, fresh_memos):
    from modplab.exact import projectivity_flags

    G, F = catalog_groups()["S3"], catalog_fields()["F3"]
    pool = [V for V in catalog_reps(G, F, 4).values() if V.dim]
    subgroups = all_subgroups(G)
    want = {(i, U): projectivity_flags(V, U) for i, V in enumerate(pool) for U in subgroups}
    budget = 4 * ENTRY_OVERHEAD + 300
    monkeypatch.setattr(reps, "_KERNEL_MEMO", Memo(budget))
    for _ in range(2):
        for (i, U), flags in want.items():
            assert projectivity_flags(pool[i], U) == flags
            assert reps._KERNEL_MEMO.cells <= budget
    assert 0 < len(reps._KERNEL_MEMO) < len(want)


def test_a_warm_rerun_builds_and_eliminates_no_system(monkeypatch, fresh_memos):
    """higman and stable-frobenius over the benchmark's large catalog, run
    twice in one process: the second run reads every kernel and solve from
    the memo, builds no equivariance system, trace operator or split
    constraint, eliminates nothing and reports the same bytes."""
    from pathlib import Path

    from modplab.catalog import load_catalog
    from modplab.reports import canonical_json
    from modplab.suites import run_suite

    root = Path(__file__).resolve().parent.parent
    catalog = load_catalog(str(root / "perfbench" / "catalogs" / "large.json"))

    def run_both():
        return [canonical_json(run_suite(s, 0, catalog)) for s in ("higman", "stable-frobenius")]

    builders = []
    for name in ("_trace_operator", "_split_constraint"):
        real_builder = getattr(exact, name)
        counting_builder = functools.wraps(real_builder)(
            lambda *a, name=name, real=real_builder: builders.append(name) or real(*a)
        )
        monkeypatch.setattr(exact, name, counting_builder)
    cold = run_both()
    assert set(builders) == {"_trace_operator", "_split_constraint"}
    builders.clear()
    systems = _counting_systems(monkeypatch)
    eliminations = []
    real = linalg._rref

    def counting(field, M):
        eliminations.append(M.shape)
        return real(field, M)

    monkeypatch.setattr(linalg, "_rref", counting)
    assert run_both() == cold
    assert systems == [] and eliminations == [] and builders == []


# ---- the solve memo's key: every array that defines the constraint ----


def _solve_keys():
    return [key for key in reps._KERNEL_MEMO.keys() if key[0] == "solve"]


@pytest.mark.parametrize("gname", sorted(catalog_groups()))
def test_projectivity_flags_on_a_shared_memo_match_a_fresh_memo_per_call(gname, monkeypatch):
    """Every built-in field, subgroup and pool rep of the group: the flags
    read through one memo shared by all calls equal the flags of each call
    on an empty memo, so no two solves with different constraints share an
    entry."""
    from modplab.exact import projectivity_flags
    from modplab.reps import INDUCE_CELLS

    G = catalog_groups()[gname]
    cases = [
        (P, U)
        for F in catalog_fields().values()
        for P in catalog_reps(G, F, 4).values()
        for U in all_subgroups(G)
        if G.order * (U.index * P.dim) ** 2 <= INDUCE_CELLS
    ]
    alone = []
    for P, U in cases:
        monkeypatch.setattr(reps, "_KERNEL_MEMO", Memo(reps.KERNEL_MEMO_CELLS))
        alone.append(projectivity_flags(P, U))
    monkeypatch.setattr(reps, "_KERNEL_MEMO", Memo(reps.KERNEL_MEMO_CELLS))
    assert [projectivity_flags(P, U) for P, U in cases] == alone
    assert len(_solve_keys()) > len(cases)  # a trace test and a split search each


def test_trace_solves_with_other_coset_stacks_share_no_entry(monkeypatch, fresh_memos):
    """The trivial and the sign module of S3 over F3 act alike on C3's
    generator but not on its other coset: two trace entries and two
    systems, though both traces are X |-> 2X.  An equal module is a hit."""
    from modplab.catalog import sym3
    from modplab.exact import relative_projectivity_test
    from modplab.reps import character_rep, coset_stack, trivial_rep

    G, F = sym3(), FiniteField(3)
    U = next(U for U in all_subgroups(G) if U.order == 3)
    sign = [1 if G.element_order(g) != 2 else 2 for g in range(G.order)]
    P1, P2 = trivial_rep(G, F), character_rep(G, F, sign)
    gens = list(U.generators())
    assert np.array_equal(P1.T[gens], P2.T[gens])
    assert not np.array_equal(coset_stack(U, P1), coset_stack(U, P2))
    systems = _counting_systems(monkeypatch)
    assert relative_projectivity_test(P1, U)[0] and relative_projectivity_test(P2, U)[0]
    assert [key[3] for key in _solve_keys()] == ["_trace_operator", "_trace_operator"]
    assert len(systems) == 2
    relative_projectivity_test(Rep._of(G, F, P1.T.copy()), U)
    assert len(_solve_keys()) == 2 and len(systems) == 2


def test_split_searches_of_other_kinds_or_maps_share_no_entry(fresh_memos):
    """The identity of a module and twice it, searched for a section and
    for a retraction: four entries, and the sections differ."""
    from modplab.exact import u_split_search
    from modplab.groups import Subgroup
    from modplab.reps import RepMap

    G, F = catalog_groups()["S3"], catalog_fields()["F3"]
    P = next(V for V in catalog_reps(G, F, 4).values() if V.dim == 2)
    full = Subgroup.full(G)
    one = RepMap(P, P, Matrix.identity(F, 2))
    two = RepMap(P, P, Matrix(F, [[2, 0], [0, 2]]))
    got = {
        (kind, k): u_split_search(f, full, kind)
        for k, f in enumerate((one, two))
        for kind in ("section", "retraction")
    }
    assert len(_solve_keys()) == 4
    assert got["section", 0] == got["retraction", 0] == Matrix.identity(F, 2)
    assert got["section", 1] == got["retraction", 1] == Matrix(F, [[2, 0], [0, 2]])
