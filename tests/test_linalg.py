import random

import numpy as np
import pytest
from test_oracles import ref_rref

from modplab import linalg
from modplab.fields import FiniteField
from modplab.linalg import Matrix, Subspace, column_space, hstack, row_reduce, solve, vstack

F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, 2)
F5 = FiniteField(5)


def _random_matrix(F, rows, cols, rng):
    return Matrix(F, [[rng.randrange(F.order) for _ in range(cols)] for _ in range(rows)])


def test_constructors_and_shape():
    I = Matrix.identity(F2, 3)
    assert I.rows == I.cols == 3
    assert I == Matrix(F2, np.eye(3, dtype=int))
    Z = Matrix.zeros(F3, 2, 4)
    assert not Z.a.any()
    col = Matrix(F3, [[1], [2]])
    assert col.rows == 2 and col.cols == 1
    with pytest.raises(ValueError):
        Matrix(F2, [[1, 0], [1]])


def test_arithmetic_small():
    A = Matrix(F3, [[1, 2], [0, 1]])
    B = Matrix(F3, [[2, 0], [1, 1]])
    assert (A - B).a.tolist() == [[2, 2], [2, 0]]
    assert (-A).a.tolist() == [[2, 1], [0, 2]]
    assert (A @ B).a.tolist() == [[1, 2], [1, 1]]
    assert A.transpose().a.tolist() == [[1, 0], [2, 1]]
    assert (A @ Matrix(F3, [[1], [1]])).a.tolist() == [[0], [1]]


def test_matmul_f4():
    w = 2  # generator, w^2 = w + 1
    A = Matrix(F4, [[w, 1], [0, w]])
    # (A^2)[0][0] = w*w = w+1 = 3; [0][1] = w*1 + 1*w = 0; [1][1] = 3
    assert (A @ A).a.tolist() == [[3, 0], [0, 3]]


def test_row_reduce_frozen_examples():
    assert Matrix.identity(F2, 3).rank() == 3
    Z = Matrix.zeros(F3, 2, 2)
    assert Z.rank() == 0
    assert row_reduce(Z).dim == 2
    M = Matrix(F2, [[1, 1], [1, 1]])
    assert M.rank() == 1
    assert row_reduce(M).basis.a.tolist() == [[1, 1]]
    assert column_space(M).basis.a.tolist() == [[1, 1]]


def test_rank_nullity_random():
    rng = random.Random(3)
    for F in (F2, F3, F4):
        for _ in range(25):
            rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
            M = _random_matrix(F, rows, cols, rng)
            kernel = row_reduce(M)
            assert M.rank() + kernel.dim == cols
            assert column_space(M).dim == M.rank()
            assert not (M @ kernel.basis.transpose()).a.any()


def test_solve_frozen_examples():
    B = Matrix(F2, [[1], [0]])
    assert solve(Matrix.identity(F2, 2), B) == B
    assert solve(Matrix.zeros(F2, 2, 2), B) is None
    assert not solve(Matrix.zeros(F2, 2, 2), Matrix.zeros(F2, 2, 1)).a.any()
    A = Matrix(F2, [[1, 1], [0, 0]])
    X = solve(A, B)
    assert X.a.tolist() == [[1], [0]]  # free variables pinned to zero
    assert A @ X == B


def test_solve_random_consistency():
    rng = random.Random(11)
    for F in (F2, F3, F4):
        for _ in range(25):
            A = _random_matrix(F, rng.randrange(1, 5), rng.randrange(1, 5), rng)
            X0 = _random_matrix(F, A.cols, 2, rng)
            B = A @ X0
            X = solve(A, B)
            assert X is not None
            assert A @ X == B


def test_stacking():
    A = Matrix(F2, [[1, 0]])
    B = Matrix(F2, [[0, 1]])
    assert hstack([A, B]).a.tolist() == [[1, 0, 0, 1]]
    assert vstack([A, B]).a.tolist() == [[1, 0], [0, 1]]


def test_subspace_canonical_and_membership():
    S = Subspace.from_rows(F3, 3, [[1, 2, 0], [2, 1, 0]])
    assert S.dim == 1
    T = Subspace.from_rows(F3, 3, [[2, 1, 0], [0, 1, 1], [1, 2, 0], [0, 2, 2]])
    assert T.dim == 2
    assert T.contains_space(S)
    assert not S.contains_space(T)
    assert S.reduce([[1, 2, 0]]).tolist() == [[0, 0, 0]]
    assert S.reduce([[1, 1, 1]]).any()
    # canonical basis is independent of the generating list
    S2 = Subspace.from_rows(F3, 3, [[2, 1, 0]])
    assert S == S2 and hash(S) == hash(S2)


def test_subspace_sum_and_extremes():
    S = Subspace.from_rows(F2, 2, [[1, 0]])
    assert Subspace.zero(F2, 2).dim == 0
    assert not Subspace.full(F2, 2).reduce([[1, 1]]).any()
    assert S.ambient_dim == 2 and S.basis.a.tolist() == [[1, 0]] and S.field.modulus == (0, 1)


def test_matrix_immutability_surface():
    A = Matrix(F2, [[1, 0], [0, 1]])
    assert int(A.a[0, 0]) == 1
    assert A.a[0].tolist() == [1, 0]
    assert A.a.reshape(-1).tolist() == [1, 0, 0, 1]
    assert A == Matrix.identity(F2, 2)
    assert hash(A) == hash(Matrix.identity(F2, 2))


def test_outside_data_is_range_checked():
    # an int16 cast would truncate 1.5 to 1 and wrap 2**16 to 0
    for bad in ([[0, 3]], [[-1, 0]], [[1.5, 0]], [[1 << 16, 0]]):
        with pytest.raises(ValueError):
            Matrix(F3, bad)
        with pytest.raises(ValueError):
            Subspace.from_rows(F3, 2, bad)
    assert Matrix(F3, np.zeros((0, 2))).a.shape == (0, 2)  # empty input of any dtype
    with pytest.raises(ValueError):
        hstack([Matrix.identity(F4, 2), Matrix.identity(F2, 2)])
    with pytest.raises(ValueError):
        vstack([Matrix.identity(F2, 2), Matrix.identity(F4, 2)])


@pytest.mark.parametrize("F", [F3, F4], ids=["F3", "F4"])
def test_subspace_reduce_range_checks_its_rows(F):
    q = F.order
    for S in (Subspace.zero(F, 2), Subspace.from_rows(F, 2, [[1, 0]]), Subspace.full(F, 2)):
        for bad in ([[0, q]], [[q, 0]], [[-1, 0]], [[0, 1], [1 << 16, 0]]):
            with pytest.raises(ValueError, match="entry out of field range"):
                S.reduce(bad)
        with pytest.raises(ValueError, match="vector length mismatch"):
            S.reduce([[0, 1, 0]])


def test_from_rows_and_contains_space_refuse_another_field_or_width():
    """Codes of another field are not elements of this one, even when they
    are in range, and a row of the wrong width spans nothing in F^n, even
    with no rows at all."""
    for F, M in ((F2, Matrix(F3, [[1, 2, 0]])), (F4, Matrix(F5, [[1, 2, 3]]))):
        with pytest.raises(ValueError, match="field mismatch"):
            Subspace.from_rows(F, 3, M)
    for rows in (Matrix.zeros(F2, 0, 5), Matrix(F2, [[0, 0, 0, 0]]), Matrix(F2, [[1, 0]]), [[1, 0]]):
        with pytest.raises(ValueError, match="row width != ambient dimension"):
            Subspace.from_rows(F2, 3, rows)
    assert Subspace.from_rows(F2, 3, Matrix.zeros(F2, 0, 3)) == Subspace.zero(F2, 3)
    S = Subspace.full(F4, 2)
    with pytest.raises(ValueError, match="field mismatch"):
        S.contains_space(Subspace.from_rows(F5, 2, [[1, 3]]))  # codes F4 has too
    with pytest.raises(ValueError, match="vector length mismatch"):
        S.contains_space(Subspace.zero(F4, 3))
    assert S.contains_space(Subspace.zero(F4, 2))


def test_row_reduce_image_costs_one_extra_reduction(monkeypatch, fresh_memos):
    """The kernel costs one elimination, of M with its columns reversed;
    the column space costs exactly one more, of the transpose."""
    calls = []
    real = linalg._rref

    def counting(field, arr):
        calls.append(arr.shape)
        return real(field, arr)

    monkeypatch.setattr(linalg, "_rref", counting)
    M = Matrix(F3, [[1, 2, 0, 1], [2, 1, 0, 2], [0, 0, 1, 1]])
    assert row_reduce(M).dim == 2
    assert calls == [(3, 4)]
    calls.clear()
    image = column_space(M)
    assert calls == [(4, 3)]
    assert image.basis.a.tolist() == [[1, 2, 0], [0, 0, 1]]
    assert image.dim == M.rank() == 2


def test_each_reduction_calls_rref_once_on_a_private_array(monkeypatch):
    """rank, from_rows, column_space, row_reduce and solve each eliminate
    once, in place, on an array of their own, and leave the caller's
    read-only arrays as they were."""
    seen = []
    real = linalg._rref

    def spying(field, M):
        seen.append((M, M.copy()))
        return real(field, M)

    monkeypatch.setattr(linalg, "_rref", spying)
    A = Matrix(F3, [[1, 2, 0, 1], [2, 1, 0, 2], [0, 0, 1, 1]])
    B = Matrix(F3, [[1], [2], [0]])
    rows = [[1, 0, 0, 1], [2, 0, 0, 2]]
    inputs = A.a.copy(), B.a.copy()
    calls = {
        "rank": lambda: A.rank() == 2,
        "from_rows Matrix": lambda: Subspace.from_rows(F3, 4, A).dim == 2,
        "from_rows list": lambda: Subspace.from_rows(F3, 4, rows).dim == 1,
        "column_space": lambda: column_space(A).dim == 2,
        "row_reduce": lambda: row_reduce(A).dim == 2,
        "solve": lambda: solve(A, B) == Matrix(F3, [[1], [0], [0], [0]]),
        "solve inconsistent": lambda: solve(A, Matrix(F3, [[1], [1], [0]])) is None,
    }
    for name, call in calls.items():
        seen.clear()
        assert call(), name
        assert len(seen) == 1, name
        ((M, before),) = seen
        assert M.dtype == np.int16 and M.flags.writeable, name
        assert not np.shares_memory(M, A.a) and not np.shares_memory(M, B.a), name
        R_ref, _ = ref_rref(F3, before)
        assert np.array_equal(M, R_ref), name  # reduced in place
    assert rows == [[1, 0, 0, 1], [2, 0, 0, 2]]
    for arr, want in zip((A.a, B.a), inputs):
        assert not arr.flags.writeable and np.array_equal(arr, want)


def _oversized_system(builder):
    """A call of builder that, unrefused, would allocate at least 8 MB:
    each system has over four million int16 cells."""
    from modplab.catalog import cyclic_group
    from modplab.exact import relative_projectivity_test, u_split_search
    from modplab.groups import Subgroup
    from modplab.reps import RepMap, equivariance_system, regular_rep

    if builder == "solve":
        A, B = Matrix.zeros(F2, 2000, 2000), Matrix.zeros(F2, 2000, 1)
        return lambda: solve(A, B)  # 2,000 x 2,001
    if builder == "equivariance_system":
        T = np.zeros((2, 48, 48), dtype=np.int16)
        return lambda: equivariance_system(F2, T, T)  # 4,608 x 2,304
    G = cyclic_group(48)
    reg, E = regular_rep(G, F2), Subgroup.trivial(G)
    if builder == "relative trace":
        return lambda: relative_projectivity_test(reg, E)  # Tr: 2,304 x 2,304
    f = RepMap(reg, reg, Matrix.identity(F2, 48), validate=False)
    return lambda: u_split_search(f, E, "section")  # F @ X = I: 2,304 x 2,304


@pytest.mark.parametrize("builder", ["equivariance_system", "relative trace", "u_split_search", "solve"])
def test_dense_systems_over_the_cell_budget_refuse_before_allocating(builder, monkeypatch):
    import tracemalloc

    call = _oversized_system(builder)
    monkeypatch.setattr(linalg, "SYSTEM_CELLS", 1000)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="cells, over the budget of 1000"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
