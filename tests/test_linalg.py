import random

import numpy as np
import pytest
from test_oracles import ref_rref

from modplab import linalg
from modplab.fields import FiniteField
from modplab.linalg import Matrix, Subspace, _rref, column_space, hstack, row_reduce, solve, vstack
from modplab.memo import ENTRY_OVERHEAD, Memo

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
    assert (A + B).tolist() == [[0, 2], [1, 2]]
    assert (A - B).tolist() == [[2, 2], [2, 0]]
    assert (-A).tolist() == [[2, 1], [0, 2]]
    assert (A @ B).tolist() == [[1, 2], [1, 1]]
    assert A.transpose().tolist() == [[1, 0], [2, 1]]
    assert (A @ Matrix(F3, [[1], [1]])).tolist() == [[0], [1]]


def test_matmul_f4():
    w = 2  # generator, w^2 = w + 1
    A = Matrix(F4, [[w, 1], [0, w]])
    # (A^2)[0][0] = w*w = w+1 = 3; [0][1] = w*1 + 1*w = 0; [1][1] = 3
    assert (A @ A).tolist() == [[3, 0], [0, 3]]


def test_row_reduce_frozen_examples():
    assert Matrix.identity(F2, 3).rank() == 3
    Z = Matrix.zeros(F3, 2, 2)
    assert Z.rank() == 0
    assert row_reduce(Z).dim == 2
    M = Matrix(F2, [[1, 1], [1, 1]])
    assert M.rank() == 1
    assert row_reduce(M).basis.tolist() == [[1, 1]]
    assert column_space(M).basis.tolist() == [[1, 1]]


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
    assert X.tolist() == [[1], [0]]  # free variables pinned to zero
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
    assert hstack([A, B]).tolist() == [[1, 0, 0, 1]]
    assert vstack([A, B]).tolist() == [[1, 0], [0, 1]]


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
    assert S.ambient_dim == 2 and S.basis.tolist() == [[1, 0]] and S.field.modulus == (0, 1)


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


def test_row_reduce_image_costs_one_extra_reduction(monkeypatch):
    """The kernel costs a reduction of M and one of its kernel rows; the
    column space costs exactly one more, of the transpose."""
    calls = []
    real = linalg._rref

    def counting(field, arr):
        calls.append(arr.shape)
        return real(field, arr)

    monkeypatch.setattr(linalg, "_rref", counting)
    M = Matrix(F3, [[1, 2, 0, 1], [2, 1, 0, 2], [0, 0, 1, 1]])
    assert row_reduce(M).dim == 2
    assert calls == [(3, 4), (2, 4)]
    calls.clear()
    image = column_space(M)
    assert calls == [(4, 3)]
    assert image.basis.tolist() == [[1, 2, 0], [0, 0, 1]]
    assert image.dim == M.rank() == 2


# ---- the _rref memo ----


def _memo_cells():
    memo = linalg._RREF_MEMO
    return sum(k[1][0] * k[1][1] + memo.get(k)[0].size + ENTRY_OVERHEAD for k in memo.keys())


def test_rref_memo_hit_is_fresh_and_writable(fresh_memos):
    A = np.array([[1, 2, 0, 1], [2, 1, 0, 2], [0, 0, 1, 1], [1, 2, 1, 2]], dtype=np.int16)
    R0, p0 = _rref(F3, A)
    want, wpiv = R0.copy(), list(p0)
    assert len(linalg._RREF_MEMO) == 1
    R0[:] = 2  # writing into a cold result does not reach the memo
    p0.append(9)
    for _ in range(2):
        R, piv = _rref(F3, A)
        assert np.array_equal(R, want) and piv == wpiv == [0, 2]
        assert R.shape == A.shape and not R[2:].any()  # zero rows included
        assert R.flags.writeable and isinstance(piv, list)
        R[:] = 1  # nor does writing into a hit change the next one
        piv.clear()
    assert len(linalg._RREF_MEMO) == 1 and linalg._RREF_MEMO.cells == _memo_cells()


def test_rref_memo_keys_on_field_and_shape(fresh_memos):
    codes = np.array([1, 2, 3, 3, 1, 2], dtype=np.int16)  # codes of both F4 and F5
    for F in (F4, F5):
        for shape in ((2, 3), (3, 2)):
            A = codes.reshape(shape)
            R, piv = _rref(F, A)
            R_ref, piv_ref = ref_rref(F, A)
            assert np.array_equal(R, R_ref) and piv == piv_ref
    assert len(linalg._RREF_MEMO) == 4
    # the fields disagree on these bytes: over F4 the second row is w^2 times
    # the first, over F5 the rows are independent
    assert _rref(F4, codes.reshape(2, 3))[1] == [0]
    assert _rref(F5, codes.reshape(2, 3))[1] == [0, 2]


def test_rref_memo_stays_within_its_budget(fresh_memos):
    budget = 3 * ENTRY_OVERHEAD + 60  # room for at most three entries
    linalg._RREF_MEMO.budget = budget
    rng = np.random.default_rng(5)
    order = []
    for _ in range(40):
        A = rng.integers(0, 3, tuple(rng.integers(1, 5, 2))).astype(np.int16)
        R, piv = _rref(F3, A)
        R_ref, piv_ref = ref_rref(F3, A)
        assert np.array_equal(R, R_ref) and piv == piv_ref
        key = (F3.key(), A.shape, A.tobytes())
        if key in order:
            order.remove(key)
        order.append(key)
        assert linalg._RREF_MEMO.cells == _memo_cells() <= budget
        # the oldest entries go first: what is left is the newest suffix
        keys = linalg._RREF_MEMO.keys()
        assert keys == order[len(order) - len(keys) :]
    big = rng.integers(0, 3, (24, 24)).astype(np.int16)  # over the budget on its key cells alone
    before = {k: linalg._RREF_MEMO.get(k) for k in linalg._RREF_MEMO.keys()}
    R, piv = _rref(F3, big)
    R_ref, piv_ref = ref_rref(F3, big)
    assert np.array_equal(R, R_ref) and piv == piv_ref
    assert {k: linalg._RREF_MEMO.get(k) for k in linalg._RREF_MEMO.keys()} == before


def test_rref_memo_bounds_its_entry_count_on_tiny_reductions(fresh_memos):
    # a nonzero 1 x 2 row stores 2 key and 2 pivot-row cells; the per-entry
    # charge, not those 4 cells, bounds how many such entries fit
    F31 = FiniteField(31)
    cells = 2 + 2 + ENTRY_OVERHEAD
    linalg._RREF_MEMO.budget = budget = 40 * cells + cells // 2
    cap = budget // cells
    for a in range(1, 31):
        for b in range(10):  # 300 distinct reductions
            assert _rref(F31, np.array([[a, b]], dtype=np.int16))[1] == [0]
            assert len(linalg._RREF_MEMO) <= cap
    assert len(linalg._RREF_MEMO) == cap and linalg._RREF_MEMO.cells == cap * cells


class _SpyMemo(Memo):
    """A Memo that records each lookup and store."""

    def __init__(self, budget):
        super().__init__(budget)
        self.calls = []

    def get(self, key):
        self.calls.append(("get", key[1]))
        return super().get(key)

    def put(self, key, value, cells):
        self.calls.append(("put", key[1]))
        super().put(key, value, cells)


def test_rref_builds_no_key_for_a_reduction_the_memo_cannot_store(monkeypatch):
    """A reduction whose own cells and entry charge exceed the budget is
    computed as usual, with no lookup and no store; a small one still goes
    through the memo."""
    spy = _SpyMemo(ENTRY_OVERHEAD + 24)
    monkeypatch.setattr(linalg, "_RREF_MEMO", spy)
    rng = np.random.default_rng(11)
    big = rng.integers(0, 3, (5, 5)).astype(np.int16)  # 25 cells, one too many
    for _ in range(2):
        R, piv = _rref(F3, big)
        R_ref, piv_ref = ref_rref(F3, big)
        assert np.array_equal(R, R_ref) and piv == piv_ref
    assert spy.calls == [] and len(spy) == 0
    small = np.array([[1, 2], [2, 1]], dtype=np.int16)
    for _ in range(2):
        R, piv = _rref(F3, small)
        assert np.array_equal(R, ref_rref(F3, small)[0]) and piv == [0]
    assert spy.calls == [("get", (2, 2)), ("put", (2, 2)), ("get", (2, 2))]
    assert len(spy) == 1


def _oversized_system(builder):
    """A call of builder that, unrefused, would allocate at least 8 MB:
    each system has over four million int16 cells."""
    from modplab.catalog import cyclic_group
    from modplab.exact import _trace_operator, u_split_search
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
        return lambda: _trace_operator(reg, reg, E)  # 2,304 x 2,304
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
