"""Property tests of the exact kernels against oracles that share no code
with them.

Extension-field matrix products and row reduction are checked against
schoolbook arithmetic built only from ``_poly_mul`` and ``_poly_rem``;
reduction, rank, kernels and ``solve`` over GF(p) against sympy's
``DomainMatrix``.  The last section runs the benchmark's frozen commands
with every array kernel swapped for schoolbook code.
"""

import functools
import hashlib
import itertools
import json
import random
import time
from unittest import mock

import numpy as np
import pytest
from conftest import ROOT, profiled, runs_of, start_cold
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from modplab import catalog, cli, covers, exact, fields, linalg
from modplab.fields import FiniteField, _poly_rem, p_part
from modplab.linalg import Matrix, Subspace, _rref, column_space, row_reduce, solve

# F4, F8, F9, F_{2^10}, F_{31^2}
EXT = [(2, 2), (2, 3), (3, 2), (2, 10), (31, 2)]
PRIMES = [2, 3, 5, 7, 31]

PROPERTY = settings(max_examples=40, deadline=None)


@functools.cache
def field(p: int, k: int = 1) -> FiniteField:
    return FiniteField(p, k)


# ---- schoolbook F_{p^k} arithmetic on base-p digit tuples ----


def _poly_mul(a, b, p):
    """Product of two coefficient tuples over Z/p, trailing zeros trimmed."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _digits(F, a):
    return tuple((int(a) // F.p**i) % F.p for i in range(F.k))


def _code(F, coeffs):
    return sum(int(c) * F.p**i for i, c in enumerate(coeffs))


def ref_mul(F, a, b):
    return _code(F, _poly_rem(_poly_mul(_digits(F, a), _digits(F, b), F.p), F.modulus, F.p))


def ref_add(F, a, b):
    return _code(F, [(x + y) % F.p for x, y in zip(_digits(F, a), _digits(F, b))])


def ref_sub(F, a, b):
    return _code(F, [(x - y) % F.p for x, y in zip(_digits(F, a), _digits(F, b))])


def ref_inv(F, a):
    return next(b for b in range(1, F.order) if ref_mul(F, a, b) == 1)


def ref_matmul(F, A, B):
    n, m = A.shape
    r = B.shape[1]
    out = np.zeros((n, r), dtype=np.int64)
    for i in range(n):
        for j in range(r):
            acc = 0
            for t in range(m):
                acc = ref_add(F, acc, ref_mul(F, A[i, t], B[t, j]))
            out[i, j] = acc
    return out


def ref_rref(F, A):
    """Textbook Gauss-Jordan on Python lists, first nonzero pivot first."""
    M = [[int(x) for x in row] for row in A]
    pivots = []
    r = 0
    for c in range(A.shape[1]):
        i = next((i for i in range(r, len(M)) if M[i][c]), None)
        if i is None:
            continue
        M[r], M[i] = M[i], M[r]
        inv = ref_inv(F, M[r][c])
        M[r] = [ref_mul(F, inv, x) for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [ref_sub(F, x, ref_mul(F, f, y)) for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    return np.array(M, dtype=np.int64).reshape(A.shape), pivots


# ---- sympy over GF(p) ----


def _dm(p, A):
    K = GF(p, symmetric=False)
    return DomainMatrix([[K(int(x)) for x in row] for row in A], A.shape, K)


def _ints(dm):
    return np.array([[int(x) for x in row] for row in dm.to_list()], dtype=np.int64).reshape(
        dm.shape
    )


def sympy_rref(p, A):
    R, piv = _dm(p, A).rref()
    return _ints(R), list(piv)


# ---- strategies ----


def _codes(F, shape):
    return hnp.arrays(np.int16, shape, elements=st.integers(0, F.order - 1))


@st.composite
def ext_products(draw, pk):
    F = field(*pk)
    n, m, r = draw(st.tuples(st.integers(0, 4), st.integers(0, 12), st.integers(0, 4)))
    return F, draw(_codes(F, (n, m))), draw(_codes(F, (m, r)))


@st.composite
def gfp_matrices(draw, max_rows=7, max_cols=8):
    """Matrices over GF(p), half of them built with rank at most t."""
    F = field(draw(st.sampled_from(PRIMES)))
    rows, cols = draw(st.integers(0, max_rows)), draw(st.integers(0, max_cols))
    if draw(st.booleans()):
        return F, draw(_codes(F, (rows, cols)))
    t = draw(st.integers(0, min(rows, cols)))
    X = draw(_codes(F, (rows, t))).astype(np.int64)
    Y = draw(_codes(F, (t, cols))).astype(np.int64)
    return F, (X @ Y % F.p).astype(np.int16)


# ---- extension-field ax_matmul ----


@pytest.mark.parametrize("pk", EXT)
@PROPERTY
@given(data=st.data())
def test_ax_matmul_matches_polynomial_reference(pk, data):
    F, A, B = data.draw(ext_products(pk))
    got = F.ax_matmul(A, B)
    assert got.dtype == np.int16 and got.shape == (A.shape[0], B.shape[1])
    assert np.array_equal(got, ref_matmul(F, A, B))


@pytest.mark.parametrize("pk", EXT)
@pytest.mark.parametrize("shape", [(0, 3, 2), (2, 0, 3), (3, 2, 0), (3, 1, 4), (6, 9, 1), (1, 9, 1)])
def test_ax_matmul_edge_shapes(pk, shape):
    F = field(*pk)
    n, m, r = shape
    rng = np.random.default_rng(sum(shape) + F.order)
    A = rng.integers(0, F.order, (n, m)).astype(np.int16)
    B = rng.integers(0, F.order, (m, r)).astype(np.int16)
    assert np.array_equal(F.ax_matmul(A, B), ref_matmul(F, A, B))


def test_float32_threshold_of_f961():
    # float32 while k*k*m*(p-1)**3 < 2**24: m <= 155 for F_{31^2}
    F = field(31, 2)
    assert F.F32_INNER == 155
    assert 4 * 155 * 30**3 < 2**24 <= 4 * 156 * 30**3


@pytest.mark.parametrize("m", [155, 156, 701])
def test_ax_matmul_across_float32_threshold(m):
    F = field(31, 2)
    rng = np.random.default_rng(m)
    A = rng.integers(0, F.order, (3, m)).astype(np.int16)
    B = rng.integers(0, F.order, (m, 2)).astype(np.int16)
    # Digits (29, 29) make entry (0, 0) a sum of odd plane products 29*29
    # that passes 2**24 for odd m > 643, where float32 would round it.
    A[0] = 29 + 29 * 31
    B[:, 0] = 29 + 29 * 31
    assert np.array_equal(F.ax_matmul(A, B), ref_matmul(F, A, B))


# ---- prime-field ax_matmul ----


def test_float32_threshold_of_f31():
    # float32 while m*(p-1)**2 < 2**24: m <= 18641 for F_31
    assert field(31).F32_INNER == 18641
    assert 18641 * 30**2 < 2**24 <= 18642 * 30**2


@pytest.mark.parametrize("m", [18641, 18642])
def test_prime_ax_matmul_across_float32_threshold(m):
    F = field(31)
    A = np.full((1, m), 30, dtype=np.int16)
    B = np.full((m, 1), 30, dtype=np.int16)
    # One odd term 29*29 makes the sum odd; at m = 18642 it passes 2**24,
    # where float32 would round it.
    A[0, 0] = B[0, 0] = 29
    want = sum(int(a) * int(b) for a, b in zip(A[0], B[:, 0])) % 31
    assert F.ax_matmul(A, B).tolist() == [[want]]


# ---- row reduction ----


@pytest.mark.parametrize("pk", [(2, 2), (3, 2), (2, 3)])
@PROPERTY
@given(data=st.data())
def test_rref_over_extension_fields_matches_reference(pk, data):
    F = field(*pk)
    rows, cols = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 7))
    A = data.draw(_codes(F, (rows, cols)))
    R = A.copy()
    piv = _rref(F, R)
    R_ref, piv_ref = ref_rref(F, A)
    assert piv == piv_ref
    assert np.array_equal(R, R_ref)


def test_rref_of_the_same_codes_follows_the_field():
    """1, 2, 3 are codes of both F4 and F5, and the fields disagree on them:
    over F4 the second row of the 2 x 3 array is w^2 times the first, over
    F5 the rows are independent."""
    codes = np.array([1, 2, 3, 3, 1, 2], dtype=np.int16)
    for F, pivots in ((field(2, 2), [0]), (field(5), [0, 2])):
        for shape in ((2, 3), (3, 2)):
            R = codes.reshape(shape).copy()
            piv = _rref(F, R)
            R_ref, piv_ref = ref_rref(F, codes.reshape(shape))
            assert np.array_equal(R, R_ref) and piv == piv_ref
            if shape == (2, 3):
                assert piv == pivots


@PROPERTY
@given(gfp_matrices())
def test_rref_and_rank_match_sympy(case):
    F, A = case
    R = A.copy()
    piv = _rref(F, R)
    R_ref, piv_ref = sympy_rref(F.p, A)
    assert piv == piv_ref
    assert np.array_equal(R, R_ref)
    assert Matrix(F, A).rank() == _dm(F.p, A).rank()


# F2, F3, F4, F5, F9 and F_32749, the largest prime code an int16 holds
RREF_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (32749, 1)]
RREF_IDS = ["F2", "F3", "F4", "F5", "F9", "F32749"]


def _reference_rref(F, A):
    """ref_rref, or sympy's over F_32749, where ref_inv's search is slow."""
    if F.order > 1000:
        return sympy_rref(F.p, A)
    return ref_rref(F, A)


@pytest.mark.parametrize("pk", RREF_FIELDS, ids=RREF_IDS)
@PROPERTY
@given(data=st.data())
def test_rref_of_row_permuted_copies_matches_reference(pk, data):
    """_rref may take any nonzero entry as a pivot; the reduced form of
    every row order is the reference's, which takes the first."""
    F = field(*pk)
    rows, cols = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 7))
    A = data.draw(_codes(F, (rows, cols)))
    if data.draw(st.booleans()):  # repeat and scale rows, so pivots collide
        A = np.concatenate([A, F.ax_scale(A, data.draw(st.integers(1, F.order - 1)))])
    R_ref, piv_ref = _reference_rref(F, A)
    for _ in range(2):
        order = data.draw(st.permutations(range(len(A))))
        R = A[list(order)].copy()
        assert _rref(F, R) == piv_ref
        assert np.array_equal(R, R_ref)


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0), (1, 6), (1, 1)])
@pytest.mark.parametrize("pk", RREF_FIELDS, ids=RREF_IDS)
def test_rref_of_empty_and_single_row_arrays(pk, shape):
    F = field(*pk)
    rng = np.random.default_rng(F.order)
    for A in (np.zeros(shape, dtype=np.int16), rng.integers(0, F.order, shape).astype(np.int16)):
        R = A.copy()
        R_ref, piv_ref = _reference_rref(F, A)
        assert _rref(F, R) == piv_ref and np.array_equal(R, R_ref)


@pytest.mark.parametrize("rank", [0, 3, 7])
@pytest.mark.parametrize("pk", RREF_FIELDS, ids=RREF_IDS)
def test_rref_of_tall_systems_matches_reference(pk, rank):
    """400 x 193 arrays with rows Y (rank x 193) and 400 - rank
    combinations of them, shuffled: the row space is Y's, so the reduced
    form is the reference's of Y above zero rows."""
    F = field(*pk)
    rng = np.random.default_rng(rank + F.order)
    Y = rng.integers(0, F.order, (rank, 193)).astype(np.int16)
    X = rng.integers(0, F.order, (400 - rank, rank)).astype(np.int16)
    A = np.concatenate([Y, F.ax_matmul(X, Y)])[rng.permutation(400)]
    R_Y, piv_ref = _reference_rref(F, Y)
    R_ref = np.zeros((400, 193), dtype=np.int64)
    R_ref[: len(piv_ref)] = R_Y[: len(piv_ref)]
    R = A.copy()
    assert _rref(F, R) == piv_ref
    assert np.array_equal(R, R_ref)


@pytest.mark.parametrize("pk", RREF_FIELDS, ids=RREF_IDS)
def test_sub_outer_matches_schoolbook_arithmetic(pk):
    """ax_sub_outer(A, f, row)[i, j] = A[i, j] - f[i] * row[j], zero factors
    and zero row entries included; in characteristic 2 A is updated in
    place, elsewhere it is left as it was."""
    F = field(*pk)
    rng = np.random.default_rng(F.order)
    for k, n in ((1, 1), (3, 5), (6, 2), (0, 4), (4, 0)):
        A = rng.integers(0, F.order, (k, n)).astype(np.int16)
        f = rng.integers(0, F.order, k).astype(np.int16)
        row = rng.integers(0, F.order, n).astype(np.int16)
        f[:1] = 0
        row[-1:] = F.order - 1
        want = [[ref_sub(F, a, ref_mul(F, x, y)) for a, y in zip(Ai, row)] for Ai, x in zip(A, f)]
        A0, f0, row0 = A.copy(), f.copy(), row.copy()
        got = F.ax_sub_outer(A, f, row)
        assert got.dtype == np.int16 and got.shape == (k, n)
        assert np.array_equal(got, np.array(want, dtype=np.int64).reshape(k, n))
        assert np.array_equal(f, f0) and np.array_equal(row, row0)
        assert (got is A) if F.p == 2 else np.array_equal(A, A0)


@PROPERTY
@given(gfp_matrices())
def test_kernel_matches_sympy_nullspace(case):
    F, A = case
    kernel = row_reduce(Matrix(F, A))
    null = _ints(_dm(F.p, A).nullspace())
    if null.size == 0:
        assert kernel.dim == 0
        return
    N, piv = sympy_rref(F.p, null)
    assert np.array_equal(kernel.basis.a, N[: len(piv)])


def school_echelon(F, rows, width):
    """The nonzero rows of the reduced echelon form of a list of rows, by
    Gauss-Jordan with ref_add and the field's scalar mul and inv only,
    first nonzero pivot first; plus the pivot columns."""
    minus_one = next(y for y in range(F.order) if ref_add(F, 1, y) == 0)
    M = [[int(x) for x in row] for row in rows]
    pivots = []
    for c in range(width):
        r = len(pivots)
        i = next((i for i in range(r, len(M)) if M[i][c]), None)
        if i is None:
            continue
        M[r], M[i] = M[i], M[r]
        inv = F.inv(M[r][c])
        M[r] = [F.mul(inv, x) for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c]:
                f = F.mul(minus_one, M[i][c])
                M[i] = [ref_add(F, x, F.mul(f, y)) for x, y in zip(M[i], M[r])]
        pivots.append(c)
    return M[: len(pivots)], pivots


def school_kernel_and_columns(F, A):
    """The canonical bases of the right kernel and of the column space of A."""
    rows, cols = A.shape
    R, piv = school_echelon(F, A.tolist(), cols)
    minus_one = next(y for y in range(F.order) if ref_add(F, 1, y) == 0)
    kernel = []
    for free in (c for c in range(cols) if c not in piv):
        v = [0] * cols
        v[free] = 1
        for row, c in zip(R, piv):
            v[c] = F.mul(minus_one, row[free])
        kernel.append(v)
    columns = [[int(A[i, j]) for i in range(rows)] for j in range(cols)]
    return school_echelon(F, kernel, cols)[0], school_echelon(F, columns, rows)[0]


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_kernel_and_column_space_match_schoolbook_elimination(q):
    F = field(2, 2) if q == 4 else field(3, 2) if q == 9 else field(q)
    rng = np.random.default_rng(q)
    cases = [np.zeros((0, 3)), np.zeros((3, 0)), np.zeros((3, 4)), np.eye(4), np.eye(3)[:, ::-1]]
    for _ in range(30):
        cases.append(rng.integers(0, F.order, tuple(rng.integers(1, 7, 2))))
    for _ in range(10):  # rank at most 2, so kernels of every size occur
        r, c, k = rng.integers(1, 7), rng.integers(1, 7), rng.integers(1, 3)
        left, right = rng.integers(0, F.order, (r, k)), rng.integers(0, F.order, (k, c))
        cases.append(F.ax_matmul(left.astype(np.int16), right.astype(np.int16)))
    kinds = set()
    for A in cases:
        A = A.astype(np.int16)
        M = Matrix(F, A)
        want_kernel, want_columns = school_kernel_and_columns(F, A)
        kernel, columns = row_reduce(M), column_space(M)
        assert (kernel.ambient_dim, columns.ambient_dim) == (A.shape[1], A.shape[0])
        assert kernel.basis.a.tolist() == want_kernel, A
        assert columns.basis.a.tolist() == want_columns, A
        kinds.add((kernel.dim == 0, columns.dim == 0))
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


@PROPERTY
@given(gfp_matrices(), st.integers(1, 3), st.booleans(), st.data())
def test_solve_matches_sympy(case, width, in_image, data):
    F, A = case
    rows, cols = A.shape
    if in_image:
        Y = data.draw(_codes(F, (cols, width))).astype(np.int64)
        B = (A.astype(np.int64) @ Y % F.p).astype(np.int16)
    else:
        B = data.draw(_codes(F, (rows, width)))
    X = solve(Matrix(F, A), Matrix(F, B))
    R, piv = sympy_rref(F.p, np.hstack([A, B]))
    if any(c >= cols for c in piv):
        assert X is None and not in_image
        return
    want = np.zeros((cols, width), dtype=np.int64)
    for i, c in enumerate(piv):
        want[c] = R[i, cols:]
    assert X is not None and np.array_equal(X.a, want)
    assert np.array_equal(A.astype(np.int64) @ X.a % F.p, B)


# ---- membership and exactness against the old row-at-a-time checks ----

MEMBERSHIP_FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2)]  # F2, F3, F4, F9


def _random_codes(F, rows, cols, rng):
    return np.array(
        [[rng.randrange(F.order) for _ in range(cols)] for _ in range(rows)], dtype=np.int16
    ).reshape(rows, cols)


def ref_reduce(F, basis, vec):
    """Eliminate vec against an echelon basis one pivot at a time, in
    schoolbook arithmetic: the loop Subspace.reduce ran before it became
    one product."""
    v = [int(x) for x in vec]
    for row in basis:
        c = next(j for j, x in enumerate(row) if x)
        if v[c]:
            f = v[c]
            v = [ref_sub(F, x, ref_mul(F, f, y)) for x, y in zip(v, row)]
    return v


def ref_echelon_rows(F, A):
    R, piv = ref_rref(F, A)
    return R[: len(piv)]


def ref_kernel(F, A):
    """The canonical basis of the right kernel of A, one vector per free
    column of its textbook reduced form, reduced again."""
    R, piv = ref_rref(F, A)
    free = [c for c in range(A.shape[1]) if c not in piv]
    K = np.zeros((len(free), A.shape[1]), dtype=np.int64)
    for t, c in enumerate(free):
        K[t, c] = 1
        for i, pc in enumerate(piv):
            K[t, pc] = ref_sub(F, 0, R[i, c])
    return ref_echelon_rows(F, K)


def ref_exactness(F, L, R):
    """The old verdict on 0 -> . -L-> . -R-> . -> 0 in schoolbook
    arithmetic: the first failing check's message, or None."""
    (dm, ds), dt = L.shape, R.shape[0]
    if len(ref_rref(F, L)[1]) != ds:
        return "left map is not injective"
    if len(ref_rref(F, R)[1]) != dt:
        return "right map is not surjective"
    if ds + dt != dm:
        return "dimension count fails"
    if not np.array_equal(ref_echelon_rows(F, L.T), ref_kernel(F, R)):
        return "image of left map differs from kernel of right map"
    return None


@pytest.mark.parametrize("pk", MEMBERSHIP_FIELDS)
def test_subspace_reduce_matches_per_pivot_loop(pk):
    F = field(*pk)
    rng = random.Random(pk[0] ** pk[1])
    verdicts = set()
    for _ in range(30):
        n = rng.randrange(0, 6)
        spanned = Subspace.from_rows(F, n, _random_codes(F, rng.randrange(1, 4), n, rng))
        for S in (Subspace.zero(F, n), Subspace.full(F, n), spanned):
            basis = S.basis.a.tolist()
            vecs = _random_codes(F, rng.randrange(0, 4), n, rng)
            assert S.reduce(vecs).tolist() == [ref_reduce(F, basis, v) for v in vecs.tolist()]
            inner = S.basis.a[: rng.randrange(0, S.dim + 1)]
            for T in (Subspace.from_rows(F, n, Matrix(F, inner)), spanned):
                want = all(not any(ref_reduce(F, basis, v)) for v in T.basis.a.tolist())
                assert S.contains_space(T) == want
                verdicts.add(want)
    assert verdicts == {True, False}


@pytest.mark.parametrize("pk", MEMBERSHIP_FIELDS)
def test_short_exact_seq_matches_image_kernel_verdict(pk):
    from modplab.catalog import cyclic_group
    from modplab.reps import RepMap, ShortExactSeq, trivial_rep

    F = field(*pk)
    G = cyclic_group(2)  # between trivial reps every linear map is equivariant
    rng = random.Random(pk[0] ** pk[1])
    seen = set()
    for _ in range(60):
        dm = rng.randrange(0, 5)
        R = _random_codes(F, rng.randrange(0, dm + 1), dm, rng)
        if rng.random() < 0.7:
            # the kernel of R as columns, sometimes with one entry changed
            L = ref_kernel(F, R).T.astype(np.int16)
            if L.size and rng.random() < 0.5:
                i, j = rng.randrange(L.shape[0]), rng.randrange(L.shape[1])
                L[i, j] = (L[i, j] + 1 + rng.randrange(F.order - 1)) % F.order
        else:
            L = _random_codes(F, dm, rng.randrange(0, dm + 1), rng)
        mid = trivial_rep(G, F, dm)
        left = RepMap(trivial_rep(G, F, L.shape[1]), mid, Matrix(F, L))
        right = RepMap(mid, trivial_rep(G, F, R.shape[0]), Matrix(F, R))
        try:
            ShortExactSeq(left, right)
            got = None
        except ValueError as exc:
            got = str(exc)
        want = ref_exactness(F, L, R)
        assert got == want
        seen.add(want)
    assert len(seen) == 5  # acceptance and each of the four rejections occur


# ---- operation tables ----


@pytest.mark.parametrize("pk", [(2, 3), (3, 2), (5, 2), (3, 3), (2, 10)])
def test_tables_match_polynomial_arithmetic(pk):
    """ADD, MUL, NEG, SUB and INV against _poly_mul/_poly_rem arithmetic:
    every pair for F8, F9, F25, F27, a seeded sample for F_{2^10}."""
    F = field(*pk)
    q = F.order
    if q <= 27:
        pairs = [(a, b) for a in range(q) for b in range(q)]
        units = range(1, q)
    else:
        rng = np.random.default_rng(2024)
        pairs = [tuple(int(x) for x in ab) for ab in rng.integers(0, q, (3000, 2))]
        units = sorted({int(a) for a in rng.integers(1, q, 200)})
    for a, b in pairs:
        assert F.ADD[a, b] == ref_add(F, a, b)
        assert F.SUB[a, b] == ref_sub(F, a, b)
        assert F.MUL[a, b] == ref_mul(F, a, b)
    for a in range(q):
        assert F.NEG[a] == ref_sub(F, 0, a)
    for a in units:
        assert ref_mul(F, a, int(F.INV[a])) == 1
    for T in (F.ADD, F.MUL, F.SUB):
        assert T.dtype == np.int16 and T.shape == (q, q)


# ---- kernel outputs are fresh int16 codes (Matrix._of relies on it) ----


@PROPERTY
@given(pk=st.sampled_from([(2, 1), (3, 1), (2, 2), (3, 2)]), data=st.data())
def test_kernels_return_fresh_int16_codes(pk, data):
    F = field(*pk)
    n, m, r = data.draw(st.tuples(st.integers(0, 4), st.integers(0, 5), st.integers(0, 4)))
    A = data.draw(_codes(F, (n, m)))
    B = data.draw(_codes(F, (n, m)))
    C = data.draw(_codes(F, (m, r)))
    s = data.draw(st.integers(0, F.order - 1))
    outs = [
        F.ax_add(A, B),
        F.ax_sub(A, B),
        F.ax_neg(A),
        F.ax_mul(A, B),
        F.ax_scale(A, s),
        F.ax_matmul(A, C),
    ]
    for out in outs:
        assert out.dtype == np.int16
        assert ((out >= 0) & (out < F.order)).all()
        assert not np.shares_memory(out, A) and not np.shares_memory(out, B)


# ---- hom_space against Frobenius reciprocity ----


def _small_groups():
    from modplab.catalog import catalog_groups

    return sorted(name for name, G in catalog_groups().items() if G.order <= 12)


def _equivariant(F, M, rho1, rho2):
    """M rho1(g) == rho2(g) M, multiplied out with scalar field operations."""
    add = functools.partial(ref_add, F)

    def mul(X, Y):
        return [
            [
                functools.reduce(add, (F.mul(X[i][t], Y[t][j]) for t in range(len(Y))), 0)
                for j in range(len(Y[0]))
            ]
            for i in range(len(X))
        ]

    return mul(M, rho1) == mul(rho2, M)


@settings(max_examples=30, deadline=None)
@given(
    gname=st.sampled_from(_small_groups()),
    fname=st.sampled_from(["F2", "F3", "F4"]),
    data=st.data(),
)
def test_hom_space_satisfies_frobenius_reciprocity(gname, fname, data):
    from modplab.catalog import catalog_fields, catalog_groups, catalog_reps
    from modplab.groups import all_subgroups
    from modplab.reps import hom_space, induce, restrict

    G, F = catalog_groups()[gname], catalog_fields()[fname]
    U = data.draw(st.sampled_from(all_subgroups(G)))
    W_pool = catalog_reps(U.as_group(), F, 2)
    V_pool = catalog_reps(G, F, 3)
    W = W_pool[data.draw(st.sampled_from(sorted(W_pool)))]
    V = V_pool[data.draw(st.sampled_from(sorted(V_pool)))]
    IndW, ResV = induce(U, W), restrict(V, U)
    pairs = [(IndW, V), (V, IndW), (W, ResV), (ResV, W)]
    spaces = [hom_space(X, Y) for X, Y in pairs]
    assert spaces[0].dim == spaces[2].dim  # Hom_G(Ind W, V) = Hom_U(W, Res V)
    assert spaces[1].dim == spaces[3].dim  # Hom_G(V, Ind W) = Hom_U(Res V, W)
    for (X, Y), space in zip(pairs, spaces):
        for flat in space.basis.a:
            M = flat.reshape(Y.dim, X.dim).tolist()
            for g in range(X.group.order):
                assert _equivariant(F, M, X.T[g].tolist(), Y.T[g].tolist())


# ---- batched ax_matmul_batch against a scalar add/mul triple loop ----

BATCH_FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (31, 2)]


@st.composite
def batched_products(draw, pk):
    """Operands of ax_matmul_batch: stack x stack (with broadcasting),
    2-d x stack or stack x 2-d; any axis may be empty."""
    F = field(*pk)
    n, m, r = draw(st.tuples(st.integers(0, 3), st.integers(0, 4), st.integers(0, 3)))
    mode = draw(st.sampled_from(["stack x stack", "2d x stack", "stack x 2d"]))
    lead = draw(st.lists(st.integers(0, 3), min_size=1, max_size=2))
    if mode == "stack x stack":
        # broadcast: B takes lead with some axes collapsed to 1
        other = [draw(st.sampled_from([1, x])) for x in lead]
        shapes = (tuple(lead) + (n, m), tuple(other) + (m, r))
    elif mode == "2d x stack":
        shapes = ((n, m), tuple(lead) + (m, r))
    else:
        shapes = (tuple(lead) + (n, m), (m, r))
    return F, draw(_codes(F, shapes[0])), draw(_codes(F, shapes[1]))


@pytest.mark.parametrize("pk", BATCH_FIELDS)
@PROPERTY
@given(data=st.data())
def test_ax_matmul_batch_matches_scalar_loop(pk, data):
    F, A, B = data.draw(batched_products(pk))
    got = F.ax_matmul_batch(A, B)
    lead = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    assert got.dtype == np.int16 and got.shape == lead + (A.shape[-2], B.shape[-1])
    A = np.broadcast_to(A, lead + A.shape[-2:])
    B = np.broadcast_to(B, lead + B.shape[-2:])
    for idx in np.ndindex(*lead):
        assert np.array_equal(got[idx], ref_matmul(F, A[idx], B[idx]))


@pytest.mark.parametrize("m", [155, 156])
def test_ax_matmul_batch_across_float32_threshold(m):
    F = field(31, 2)
    rng = np.random.default_rng(m)
    A = rng.integers(0, F.order, (2, 2, m)).astype(np.int16)
    B = rng.integers(0, F.order, (2, m, 2)).astype(np.int16)
    A[:, 0] = 29 + 29 * 31
    B[:, :, 0] = 29 + 29 * 31
    got = F.ax_matmul_batch(A, B)
    for i in range(2):
        assert np.array_equal(got[i], ref_matmul(F, A[i], B[i]))


def test_ax_matmul_batch_slices_large_batches():
    # (3*12) * (40*12) * k*k product cells exceed BATCH_CELLS, so the batch
    # is computed in slices; every slice must land in its place
    from modplab.fields import BATCH_CELLS

    F = field(2, 2)
    rng = np.random.default_rng(7)
    A = rng.integers(0, F.order, (3, 1, 12, 12)).astype(np.int16)
    B = rng.integers(0, F.order, (40, 12, 12)).astype(np.int16)
    assert (A.size // 12) * (B.size // 12) * F.k**2 > BATCH_CELLS
    got = F.ax_matmul_batch(A, B)
    assert got.shape == (3, 40, 12, 12)
    for i in range(3):
        for j in range(40):
            assert np.array_equal(got[i, j], F.ax_matmul(A[i, 0], B[j]))
    for i in (0, 39):
        assert np.array_equal(got[2, i], ref_matmul(F, A[2, 0], B[i]))


@pytest.mark.parametrize("pk", [(2, 1), (2, 2)])
def test_ax_matmul_rejects_stacks(pk):
    F = field(*pk)
    A = np.zeros((2, 3, 3), dtype=np.int16)
    with pytest.raises(ValueError):
        F.ax_matmul(A, A[0])
    with pytest.raises(ValueError):
        F.ax_matmul(A[0], A)
    with pytest.raises(ValueError):
        F.ax_matmul_batch(A, np.zeros((2, 4, 3), dtype=np.int16))  # inner dims differ


# ---- characteristic-2 products: the XOR gather against ref_matmul and the gemm ----

CHAR2 = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 8), (2, 10)]  # F4, F8, F16, F32, F256, F1024


def _gemm(F, A, B):
    """F._matmul with the gather bound at zero, so that the gemm computes."""
    with mock.patch.object(fields, "MATMUL_MEMO_ENTRY_CELLS", 0):
        return F._matmul(A, B)


def ref_matmul_batch(F, A, B):
    """ref_matmul on every entry of the broadcast batch."""
    lead = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
    A = np.broadcast_to(A, lead + A.shape[-2:])
    B = np.broadcast_to(B, lead + B.shape[-2:])
    out = np.zeros(lead + (A.shape[-2], B.shape[-1]), dtype=np.int64)
    for idx in np.ndindex(*lead):
        out[idx] = ref_matmul(F, A[idx], B[idx])
    return out


def _assert_gather_product(F, A, B):
    """_matmul and ax_matmul_batch of A and B equal ref_matmul on every
    batch entry and the gemm, as fresh writable int16 arrays, and leave
    A and B as they were."""
    A0, B0 = A.copy(), B.copy()
    want = ref_matmul_batch(F, A, B)
    assert np.array_equal(_gemm(F, A, B), want)
    for got in (F._matmul(A, B), F.ax_matmul_batch(A, B)):
        assert got.dtype == np.int16 and got.flags.writeable
        assert not any(np.shares_memory(got, X) for X in (A, B, F.MUL))
        assert got.shape == want.shape and np.array_equal(got, want)
    assert np.array_equal(A, A0) and np.array_equal(B, B0)


@st.composite
def char2_products(draw, pk):
    """Small operands of _matmul over a field of characteristic 2: 2-d,
    a batch of 1 against s, or a batch against a 2-d operand; any axis may
    be empty, and all codes may be the largest one."""
    F = field(*pk)
    n, m, r = draw(st.tuples(st.integers(0, 4), st.integers(0, 5), st.integers(0, 4)))
    s = draw(st.integers(0, 3))
    shapes = draw(
        st.sampled_from(
            [
                ((n, m), (m, r)),
                ((1, n, m), (s, m, r)),
                ((s, n, m), (1, m, r)),
                ((s, n, m), (m, r)),
                ((n, m), (s, m, r)),
            ]
        )
    )
    if draw(st.booleans()):
        return F, *(np.full(shape, F.order - 1, dtype=np.int16) for shape in shapes)
    return F, draw(_codes(F, shapes[0])), draw(_codes(F, shapes[1]))


@pytest.mark.parametrize("pk", CHAR2, ids=[f"F{2**k}" for _, k in CHAR2])
@PROPERTY
@given(data=st.data())
def test_char2_gather_matches_reference_and_gemm(pk, data):
    _assert_gather_product(*data.draw(char2_products(pk)))


# (A shape, B shape) with (batch * n * m * r) at, just under and just over
# MATMUL_MEMO_ENTRY_CELLS = 4096
BOUND_SHAPES = {
    "at": ((16, 16), (16, 16)),
    "at-batched": ((1, 8, 4), (4, 4, 32)),
    "under": ((15, 13), (13, 21)),
    "over": ((17, 1), (1, 241)),
}


@pytest.mark.parametrize("where", sorted(BOUND_SHAPES))
@pytest.mark.parametrize("pk", CHAR2, ids=[f"F{2**k}" for _, k in CHAR2])
def test_char2_products_at_the_gather_bound(pk, where):
    F = field(*pk)
    shapes = BOUND_SHAPES[where]
    m = shapes[0][-1]
    cells = (np.prod(shapes[0]) // m) * (np.prod(shapes[1]) // m) * m
    assert (cells > fields.MATMUL_MEMO_ENTRY_CELLS) == (where == "over")
    assert (cells == fields.MATMUL_MEMO_ENTRY_CELLS) == where.startswith("at")
    rng = np.random.default_rng(F.order + cells)
    A, B = (rng.integers(0, F.order, shape).astype(np.int16) for shape in shapes)
    A[..., 0, :] = F.order - 1  # an all-maximal row and column
    B[..., :, 0] = F.order - 1
    _assert_gather_product(F, A, B)


class _SpyDict(dict):
    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


@pytest.mark.parametrize(
    "pk, shapes, gemm",
    [
        ((2, 2), ((4, 4), (4, 4)), False),
        ((2, 4), ((2, 8, 8), (8, 8)), False),
        ((2, 2), ((16, 16), (16, 17)), True),  # 4,352 cells, over the bound
        ((2, 2), ((2, 16, 16), (16, 16)), True),
        ((3, 2), ((4, 4), (4, 4)), True),  # odd characteristic
        ((5, 2), ((1, 3, 3), (2, 3, 3)), True),
    ],
)
def test_gemm_takes_odd_characteristic_and_products_over_the_bound(pk, shapes, gemm):
    F = FiniteField(*pk)  # a private field: its digit planes are replaced
    F._planes = _SpyDict(F._planes)
    F._planes.reads = 0
    rng = np.random.default_rng(F.order)
    A, B = (rng.integers(0, F.order, shape).astype(np.int16) for shape in shapes)
    got = F._matmul(A, B)
    assert (F._planes.reads > 0) == gemm
    assert np.array_equal(got, ref_matmul_batch(F, A, B))


# ---- induction and equivariance systems against the per-element constructions ----


def ref_induce(U, W):
    """Induction built one group element and one coset block at a time."""
    from modplab.groups import coset_lookup
    from modplab.reps import Rep

    G = U.parent
    field = W.field
    reps, pos = coset_lookup(G, U)
    dW = W.dim
    dim = len(reps) * dW
    mats = []
    for g in range(G.order):
        M = np.zeros((dim, dim), dtype=np.int16)
        ginv = G.inv(g)
        for i, r in enumerate(reps):
            j = pos[G.mul(r, ginv)]
            u = G.mul(G.mul(reps[j], g), G.inv(r))  # lies in U
            M[j * dW : (j + 1) * dW, i * dW : (i + 1) * dW] = W.T[U.local(u)]
        mats.append(M)
    return Rep(G, field, mats)


def ref_sub_arrays(F, A, B):
    """Entrywise A - B by schoolbook arithmetic."""
    return np.vectorize(lambda a, b: ref_sub(F, a, b), otypes=[np.int64])(A, B)


def ref_equivariance_system(V1, V2, elements):
    """Rows of X @ rho1(g) - rho2(g) @ X, on d2 x d1 matrices X flattened
    row major, from numpy Kronecker products of codes: one factor of each
    is an identity, so every entry is a code times 0 or 1."""
    F, d1, d2 = V1.field, V1.dim, V2.dim
    I1, I2 = np.eye(d1, dtype=np.int64), np.eye(d2, dtype=np.int64)
    blocks = [ref_sub_arrays(F, np.kron(I2, V1.T[g].T), np.kron(V2.T[g], I1)) for g in elements]
    return np.vstack(blocks) if blocks else np.zeros((0, d1 * d2), dtype=np.int64)


@settings(max_examples=30, deadline=None)
@given(
    gname=st.sampled_from(_small_groups()),
    fname=st.sampled_from(["F2", "F3", "F4"]),
    data=st.data(),
)
def test_induce_matches_blockwise_construction(gname, fname, data):
    from modplab.catalog import catalog_fields, catalog_groups, catalog_reps
    from modplab.groups import all_subgroups
    from modplab.reps import induce

    G, F = catalog_groups()[gname], catalog_fields()[fname]
    U = data.draw(st.sampled_from(all_subgroups(G)))
    pool = catalog_reps(U.as_group(), F, 2)
    W = pool[data.draw(st.sampled_from(sorted(pool)))]
    got, want = induce(U, W), ref_induce(U, W)
    assert got == want
    assert np.array_equal(got.T, want.T)


@settings(max_examples=30, deadline=None)
@given(
    gname=st.sampled_from(_small_groups()),
    fname=st.sampled_from(["F2", "F3", "F4", "F9"]),
    data=st.data(),
)
def test_equivariance_system_matches_kron_construction(gname, fname, data):
    from modplab.catalog import catalog_fields, catalog_groups, catalog_reps
    from modplab.reps import equivariance_system

    G, F = catalog_groups()[gname], catalog_fields()[fname]
    pool = catalog_reps(G, F, 3)
    V1 = pool[data.draw(st.sampled_from(sorted(pool)))]
    V2 = pool[data.draw(st.sampled_from(sorted(pool)))]
    elements = data.draw(st.lists(st.integers(0, G.order - 1), max_size=3))
    got = equivariance_system(F, V1.T[elements], V2.T[elements])
    assert got.a.shape == (len(elements) * V1.dim * V2.dim, V1.dim * V2.dim)
    assert np.array_equal(got.a, ref_equivariance_system(V1, V2, elements))


def ref_u_split(f, U, kind):
    """The canonical U-equivariant one-sided inverse X of f (a ds x dt
    matrix), or None: equivariance under every member of U stacked on
    F @ X = I or X @ F = I, both from numpy Kronecker products of codes,
    solved by ref_rref with the free variables zero."""
    S, T, M = f.source, f.target, f.matrix.a.astype(np.int64)
    F, ds, dt = S.field, S.dim, T.dim
    equi = ref_equivariance_system(T, S, U.members)  # X @ rho_T(u) - rho_S(u) @ X
    if kind == "section":
        d, fixed = dt, np.kron(M, np.eye(dt, dtype=np.int64))
    else:
        d, fixed = ds, np.kron(np.eye(ds, dtype=np.int64), M.T)
    rhs = np.concatenate([np.zeros(len(equi), dtype=np.int64), np.eye(d, dtype=np.int64).reshape(-1)])
    R, piv = ref_rref(F, np.hstack([np.vstack([equi, fixed]), rhs[:, None]]))
    if ds * dt in piv:
        return None
    x = np.zeros(ds * dt, dtype=np.int64)
    for r, c in enumerate(piv):
        x[c] = R[r, -1]
    return x.reshape(ds, dt)


def _assert_split_matches_reference(f, U, kind):
    from modplab.exact import u_split_search

    want = ref_u_split(f, U, kind)
    for _ in range(2):  # the second call reads the solve memo
        got = u_split_search(f, U, kind)
        assert (got is None) == (want is None)
        if want is not None:
            assert np.array_equal(got.a, want)
    return got


@settings(max_examples=50, deadline=None)
@given(
    gname=st.sampled_from(["C2", "C3", "C4", "V4", "S3"]),
    fname=st.sampled_from(["F2", "F3", "F4", "F9"]),
    kind=st.sampled_from(["section", "retraction"]),
    data=st.data(),
)
def test_u_split_search_matches_kron_system(gname, fname, kind, data):
    """G-maps out of and into direct sums split; a hom basis element may
    or may not; the zero representation gives 0-dimensional ends."""
    from modplab.catalog import catalog_fields, catalog_groups, catalog_reps
    from modplab.groups import all_subgroups
    from modplab.reps import RepMap, direct_sum, hom_space, trivial_rep

    G, F = catalog_groups()[gname], catalog_fields()[fname]
    pool = {**catalog_reps(G, F, 3), "zero": trivial_rep(G, F, 0)}
    V1 = pool[data.draw(st.sampled_from(sorted(pool)))]
    V2 = pool[data.draw(st.sampled_from(sorted(pool)))]
    shape = data.draw(st.sampled_from(["hom", "projection", "inclusion"]))
    if shape == "hom":
        S, T = V1, V2
        hs = hom_space(S, T)
        M = np.zeros((T.dim, S.dim), dtype=np.int16)
        if hs.dim:
            M = hs.basis.a[data.draw(st.integers(0, hs.dim - 1))].reshape(T.dim, S.dim)
    else:
        both = direct_sum([V1, V2])
        E = np.eye(both.dim, dtype=np.int16)
        S, T, M = (both, V2, E[V1.dim :]) if shape == "projection" else (V1, both, E[:, : V1.dim])
    U = data.draw(st.sampled_from(all_subgroups(G)))
    _assert_split_matches_reference(RepMap(S, T, Matrix(F, M)), U, kind)


@pytest.mark.parametrize("fname", ["F2", "F3", "F4", "F9"])
def test_u_split_search_at_zero_dimension(fname):
    """With no unknowns a section exists iff the target is 0 and a
    retraction iff the source is."""
    from modplab.catalog import catalog_fields, catalog_groups
    from modplab.groups import all_subgroups
    from modplab.reps import RepMap, trivial_rep

    G, F = catalog_groups()["S3"], catalog_fields()[fname]
    zero, triv2 = trivial_rep(G, F, 0), trivial_rep(G, F, 2)
    for S, T in ((zero, triv2), (triv2, zero), (zero, zero)):
        f = RepMap(S, T, Matrix.zeros(F, T.dim, S.dim))
        for U in all_subgroups(G):
            for kind, end in (("section", T), ("retraction", S)):
                got = _assert_split_matches_reference(f, U, kind)
                assert (got is not None) == (end.dim == 0)


# ---- stable homs through the relative trace against the induced-module construction ----

TRACE_GROUPS = ["C4", "V4", "S3", "D4", "Q8", "A4", "C6", "C9"]


def ref_stable_hom(V1, V2, U, flavor):
    """The G-maps V1 -> V2 that factor through the adjunction unit on V1
    (flavor "injective") or the counit onto V2 (flavor "projective"), from
    every G-map out of or into the induced module Ind Res."""
    from modplab.exact import adjunction_counit, adjunction_unit
    from modplab.linalg import Subspace
    from modplab.reps import hom_space

    field = V1.field
    amb = V1.dim * V2.dim
    if flavor == "injective":
        A = adjunction_unit(U, V1)
        through = hom_space(A.target, V2)
        H = through.basis.a.reshape(through.dim, V2.dim, A.target.dim)
        moved = field.ax_matmul_batch(H, A.matrix.a)
    else:
        B = adjunction_counit(U, V2)
        through = hom_space(V1, B.source)
        H = through.basis.a.reshape(through.dim, B.source.dim, V1.dim)
        moved = field.ax_matmul_batch(B.matrix.a, H)
    return Subspace.from_rows(field, amb, Matrix._of(field, moved.reshape(through.dim, amb)))


def ref_trace_operator(F, left, right):
    """The sum over r of the Kronecker products left[r] (x) right[r]^T,
    entry by entry in schoolbook arithmetic: the matrix of X |-> the sum
    of left[r] X right[r] on row-major flattened X."""
    n, a, b = left.shape
    c, e = right.shape[1:]
    out = np.zeros((a * e, b * c), dtype=np.int64)
    for r, i, j, k, l in itertools.product(range(n), range(a), range(e), range(b), range(c)):
        out[i * e + j, k * c + l] = ref_add(F, out[i * e + j, k * c + l], ref_mul(F, left[r, i, k], right[r, l, j]))
    return out


@pytest.mark.parametrize("pk", MEMBERSHIP_FIELDS, ids=["F2", "F3", "F4", "F9"])
def test_trace_operator_matches_summed_kronecker_products(pk):
    """Random stacks of every shape up to 3, zero included: the operator is
    the summed Kronecker products, and it sends X to the sum of the
    schoolbook products left[r] X right[r]."""
    from modplab.reps import _trace_operator

    F = field(*pk)
    rng = np.random.default_rng(list(pk))
    for _ in range(40):
        n, a, b, c, e = (int(x) for x in rng.integers(0, 4, size=5))
        left = rng.integers(0, F.order, size=(n, a, b)).astype(np.int16)
        right = rng.integers(0, F.order, size=(n, c, e)).astype(np.int16)
        want = ref_trace_operator(F, left, right)
        got = _trace_operator(F, left, right).a
        assert got.dtype == np.int16 and np.array_equal(got, want)
        X = rng.integers(0, F.order, size=(b, c))
        summed = np.zeros((a, e), dtype=np.int64)
        for r in range(n):
            term = ref_matmul(F, ref_matmul(F, left[r], X), right[r])
            for i, j in itertools.product(range(a), range(e)):
                summed[i, j] = ref_add(F, summed[i, j], term[i, j])
        assert np.array_equal(ref_matmul(F, want, X.reshape(-1, 1)).reshape(a, e), summed)


def _split_flags(P, U):
    """Relative projectivity by the split search on the counit, and
    relative injectivity by the split search on the unit."""
    from modplab.exact import adjunction_counit, adjunction_unit, u_split_search
    from modplab.groups import Subgroup

    full = Subgroup.full(P.group)
    section = u_split_search(adjunction_counit(U, P), full, "section")
    retraction = u_split_search(adjunction_unit(U, P), full, "retraction")
    return section is not None, retraction is not None


@settings(max_examples=100, deadline=None)
@given(
    gname=st.sampled_from(TRACE_GROUPS),
    fname=st.sampled_from(["F2", "F3", "F4"]),
    data=st.data(),
)
def test_stable_hom_matches_induced_construction(gname, fname, data):
    from modplab.catalog import catalog_fields, catalog_groups, catalog_reps
    from modplab.exact import _trace_operator, _trace_stacks, relative_projectivity_test, stable_hom
    from modplab.groups import all_subgroups
    from modplab.linalg import Subspace
    from modplab.reps import hom_space, restrict

    G, F = catalog_groups()[gname], catalog_fields()[fname]
    U = data.draw(st.sampled_from(all_subgroups(G)))
    pool = catalog_reps(G, F, 3)
    V1 = pool[data.draw(st.sampled_from(sorted(pool)))]
    V2 = pool[data.draw(st.sampled_from(sorted(pool)))]
    amb = V1.dim * V2.dim
    local = hom_space(restrict(V1, U), restrict(V2, U))
    trace = _trace_operator(F, *_trace_stacks(V1, V2, U))
    image = Subspace.from_rows(F, amb, local.basis @ trace.transpose())
    for flavor in ("injective", "projective"):
        assert image == ref_stable_hom(V1, V2, U, flavor), flavor
    got = stable_hom(V1, V2, U)
    total = hom_space(V1, V2)
    assert (got.total_dim, got.factoring_dim) == (total.dim, image.dim)
    assert got.stable_dim == total.dim - image.dim
    flag, witness = relative_projectivity_test(V1, U)
    assert (flag, flag) == _split_flags(V1, U)
    assert (witness is not None) == flag


@settings(max_examples=60, deadline=None)
@given(
    gname=st.sampled_from(TRACE_GROUPS),
    fname=st.sampled_from(["F2", "F3", "F4"]),
    data=st.data(),
)
def test_higman_index_prime_to_p(gname, fname, data):
    """Every module is relatively U-projective when [G:U] is prime to p,
    so no G-map survives in the stable category."""
    from modplab.catalog import catalog_fields, catalog_groups, catalog_reps
    from modplab.exact import relative_projectivity_test, stable_hom
    from modplab.groups import all_subgroups

    G, F = catalog_groups()[gname], catalog_fields()[fname]
    U = data.draw(st.sampled_from([U for U in all_subgroups(G) if U.index % F.p]))
    pool = catalog_reps(G, F, 3)
    V1 = pool[data.draw(st.sampled_from(sorted(pool)))]
    V2 = pool[data.draw(st.sampled_from(sorted(pool)))]
    assert stable_hom(V1, V2, U).stable_dim == 0
    assert relative_projectivity_test(V1, U)[0]


def _symmetric(n):
    from itertools import permutations

    from modplab.catalog import _perm_group

    perms = list(permutations(range(n)))
    return _perm_group(perms, ["".join(map(str, p)) for p in perms])


@pytest.mark.parametrize(
    "order, p", [(8, 2), (12, 3), (1, 2), (1, 3)], ids=["sylow2-F2", "A4-F3", "trivial-F2", "trivial-F3"]
)
def test_higman_on_regular_rep_of_s4(order, p):
    from modplab.exact import relative_projectivity_test, stable_hom
    from modplab.groups import all_subgroups
    from modplab.reps import regular_rep, trivial_rep

    G = _symmetric(4)
    F = field(p)
    U = next(U for U in all_subgroups(G) if U.order == order)
    reg, triv = regular_rep(G, F), trivial_rep(G, F)
    flag, witness = relative_projectivity_test(reg, U)
    assert flag and witness.rows == U.index * reg.dim
    for V1, V2 in ((reg, reg), (triv, reg)):
        res = stable_hom(V1, V2, U)
        assert res.total_dim > 0 and res.stable_dim == 0
    # the trivial module is U-projective exactly when p does not divide the
    # index (index 3 or 2 above; 24 for the trivial subgroup, where p | 24)
    prime_to_p = U.index % p != 0
    assert relative_projectivity_test(triv, U)[0] == prime_to_p
    res = stable_hom(triv, triv, U)
    assert res.total_dim > 0 and res.stable_dim == (0 if prime_to_p else 1)


# ---- Higman's criterion without the induced module, against the Ind round trip ----


def ref_trace_solution(P, U):
    """The canonical U-endomorphism Y of P with Tr_U^G(Y) = 1, as a d x d
    array, from one solve of the stacked system and no memo; None if there
    is none."""
    from modplab.exact import _trace_operator, _trace_stacks
    from modplab.linalg import vstack
    from modplab.reps import equivariance_system

    F, d = P.field, P.dim
    gens = list(U.generators())
    equi = equivariance_system(F, P.T[gens], P.T[gens])
    rhs = np.zeros((equi.rows + d * d, 1), dtype=np.int16)
    rhs[equi.rows :, 0] = np.eye(d, dtype=np.int16).reshape(-1)
    y = solve(vstack([equi, _trace_operator(F, *_trace_stacks(P, P, U))]), Matrix._of(F, rhs))
    return None if y is None else y.a.reshape(d, d)


def ref_relative_projectivity(P, U):
    """The trace test as it was before it stopped building Ind Res P: solve
    Tr_U^G(Y) = 1 for a U-endomorphism Y, then check X = (Y rho(r))_r
    against the counit of the materialised induced module and validate it
    as a dense G-map into that module."""
    from modplab.exact import adjunction_counit
    from modplab.groups import coset_lookup
    from modplab.reps import RepMap, induce, restrict

    F, d = P.field, P.dim
    y = ref_trace_solution(P, U)
    if y is None:
        return False, None
    ind = induce(U, restrict(P, U))
    reps, _ = coset_lookup(P.group, U)
    X = Matrix._of(F, F.ax_matmul_batch(y, P.T[list(reps)]).reshape(ind.dim, d))
    assert adjunction_counit(U, P).matrix @ X == Matrix.identity(F, d)
    RepMap(P, ind, X, validate=True)
    return True, X


def _fits_induce(P, U):
    from modplab.reps import INDUCE_CELLS

    G = U.parent
    D = U.index * P.dim
    return G.order * D * D <= INDUCE_CELLS


@pytest.mark.parametrize("gname", sorted(catalog.catalog_groups()))
def test_relative_projectivity_matches_induced_round_trip(gname):
    """Every subgroup and pool rep over the standard fields: the flag and
    the witness equal the Ind round trip's, and the witness sections the
    counit and is a G-map into Ind Res P."""
    from modplab.catalog import catalog_fields, catalog_groups, catalog_reps
    from modplab.exact import _induced_from_restriction, adjunction_counit, relative_projectivity_test
    from modplab.groups import all_subgroups
    from modplab.reps import RepMap
    from modplab.suites import STANDARD_FIELDS

    G = catalog_groups()[gname]
    checked = 0
    for fname in STANDARD_FIELDS:
        F = catalog_fields()[fname]
        for U in all_subgroups(G):
            for name, P in catalog_reps(G, F, 4).items():
                if not _fits_induce(P, U):
                    continue
                flag, witness = relative_projectivity_test(P, U)
                want_flag, want_X = ref_relative_projectivity(P, U)
                assert flag == want_flag, (fname, U, name)
                if not flag:
                    assert witness is None
                    continue
                assert witness == want_X
                counit = adjunction_counit(U, P)
                assert counit.matrix @ witness == Matrix.identity(F, P.dim)
                RepMap(P, _induced_from_restriction(U, P), witness, validate=True)
                checked += 1
    assert checked > 0


def _projective_case():
    """S3 over F2 with U = C3 (index 2, prime to 2): the regular rep is
    U-projective, with a trace solution Y."""
    from modplab.catalog import sym3
    from modplab.exact import relative_projectivity_test
    from modplab.groups import Subgroup
    from modplab.reps import regular_rep

    G = sym3()
    U, P = Subgroup(G, [0, 1, 2]), regular_rep(G, field(2))
    flag, witness = relative_projectivity_test(P, U)
    assert flag
    Y = witness.a[: P.dim]  # block of the identity coset: Y rho(e) = Y
    return P, U, Y


def test_trace_witness_check_rejects_a_non_equivariant_y(monkeypatch):
    """Y plus a kernel element of the trace keeps Tr(Y) = 1 but breaks
    U-equivariance; only the equivariance check can catch it."""
    from modplab.exact import _trace_operator, _trace_stacks, relative_projectivity_test
    from modplab.reps import intertwines, restrict

    P, U, Y = _projective_case()
    F, local = P.field, restrict(P, U)
    kernel = row_reduce(_trace_operator(F, *_trace_stacks(P, P, U))).basis.a
    bad = next(
        Yb
        for z in kernel
        if not intertwines(local, local, Yb := F.ax_add(Y, z.reshape(P.dim, P.dim)))
    )
    monkeypatch.setattr(exact, "_equivariant_solve", lambda *args: Matrix(F, bad))
    with pytest.raises(AssertionError, match="not U-equivariant"):
        relative_projectivity_test(P, U)


def test_trace_witness_check_rejects_a_y_of_wrong_trace(monkeypatch):
    """The zero map is U-equivariant, but its relative trace is 0, not 1."""
    from modplab.exact import relative_projectivity_test

    P, U, _ = _projective_case()
    zero = Matrix.zeros(P.field, P.dim, P.dim)
    monkeypatch.setattr(exact, "_equivariant_solve", lambda *args: zero)
    with pytest.raises(AssertionError, match="section the counit"):
        relative_projectivity_test(P, U)


def test_trace_test_never_builds_the_induced_module(monkeypatch):
    """relative_projectivity_test reaches neither induce nor the memo of
    Ind Res P, and the higman suite never calls the latter."""
    from modplab.catalog import catalog_fields, catalog_groups, catalog_reps
    from modplab.groups import all_subgroups
    from modplab.suites import run_suite

    calls = []
    real = exact._induced_from_restriction
    monkeypatch.setattr(exact, "_IND_SELF_CACHE", {})
    monkeypatch.setattr(exact, "_induced_from_restriction", lambda *a: calls.append(a) or real(*a))
    rep = run_suite("higman")
    assert rep["summary"]["pass"] == rep["summary"]["total"] and calls == []
    G, F = catalog_groups()["A4"], catalog_fields()["F4"]
    pool = catalog_reps(G, F, 4)

    def refuse(*args):
        raise AssertionError("the trace test built an induced module")

    monkeypatch.setattr(exact, "induce", refuse)
    monkeypatch.setattr(exact, "_induced_from_restriction", refuse)
    for U in all_subgroups(G):
        for P in pool.values():
            exact.relative_projectivity_test(P, U)


@pytest.mark.parametrize("gname, primes", [("C48", [3]), ("S4", [2, 3])], ids=["C48-F3", "S4-F2-F3"])
def test_higman_passes_where_the_induced_module_was_over_budget(gname, primes):
    """C48 over F3 ended in an error while the trace test built Ind Res P:
    48 x 2304^2 cells, over INDUCE_CELLS."""
    from modplab.catalog import cyclic_group
    from modplab.suites import run_suite

    G = cyclic_group(48) if gname == "C48" else _symmetric(4)
    fields = {f"F{p}": field(p) for p in primes}
    rep = run_suite("higman", catalog={"groups": {gname: G}, "fields": fields})
    assert [c["outcome"] for c in rep["cases"]] == ["pass"] * len(primes)


# ---- subgroup enumeration against set-based closure ----


def ref_closure(G, seed):
    """The subgroup generated by seed, grown one product at a time in sets."""
    got = set(seed) | {G.identity}
    frontier = list(got)
    while frontier:
        new = []
        for a in frontier:
            for b in list(got):
                for c in (G.mul(a, b), G.mul(b, a)):
                    if c not in got:
                        got.add(c)
                        new.append(c)
        frontier = new
    return frozenset(got)


def ref_generators(G, members):
    """Each member, in the given order, that the earlier ones do not reach."""
    gens, reach = [], {G.identity}
    for g in members:
        if g not in reach:
            gens.append(g)
            reach = ref_closure(G, reach | {g})
            if len(reach) == len(members):
                break
    return tuple(gens)


def ref_all_subgroups(G):
    """Member tuples of every subgroup, closing each known one with every
    element, sorted by order and then members."""
    found = {frozenset({G.identity})}
    frontier = list(found)
    while frontier:
        new = []
        for S in frontier:
            for g in range(G.order):
                T = ref_closure(G, S | {g})
                if T not in found:
                    found.add(T)
                    new.append(T)
        frontier = new
    return sorted((tuple(sorted(S)) for S in found), key=lambda s: (len(s), s))


@pytest.mark.parametrize("gname", sorted(catalog.catalog_groups()) + ["S4"])
def test_subgroups_and_generators_match_set_closure(gname):
    from modplab.groups import Subgroup, all_subgroups

    G = _symmetric(4) if gname == "S4" else catalog.catalog_groups()[gname]
    subs = all_subgroups(G)
    assert [U.members for U in subs] == ref_all_subgroups(G)
    assert G.generators() == ref_generators(G, range(G.order))
    for U in subs:
        assert U.generators() == ref_generators(G, U.members)
        assert Subgroup.generate(G, U.generators()) is U


def test_all_subgroups_of_s5():
    from collections import Counter

    from modplab.groups import all_subgroups

    G = _symmetric(5)
    start = time.perf_counter()
    subs = all_subgroups(G)
    assert time.perf_counter() - start < 30  # set-based closure took over a minute
    # conjugacy classes of S5's subgroups, by order (156 in all)
    counts = {1: 1, 2: 25, 3: 10, 4: 35, 5: 6, 6: 30, 8: 15, 10: 6, 12: 15, 20: 6, 24: 5, 60: 1, 120: 1}
    assert Counter(U.order for U in subs) == counts
    assert G.generators() == ref_generators(G, range(G.order))


# ---- p-parts and echelon pivots ----

PRIMES_TO_97 = [q for q in range(2, 98) if all(q % d for d in range(2, q))]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**6), st.sampled_from(PRIMES_TO_97))
def test_p_part_splits_off_the_full_p_power(n, p):
    e, m = p_part(n, p)
    assert e >= 0 and p**e * m == n and m % p != 0


def test_p_part_rejects_nonpositive_n_and_p_below_two():
    for n, p in ((0, 2), (-4, 2), (8, 1), (8, 0)):
        with pytest.raises(ValueError):
            p_part(n, p)


@pytest.mark.parametrize("pk", [(2, 1), (3, 1), (2, 2), (3, 2)], ids=["F2", "F3", "F4", "F9"])
@PROPERTY
@given(data=st.data())
def test_subspace_pivots_match_rref_and_first_nonzero_scan(pk, data):
    F = field(*pk)
    rows, cols = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 8))
    S = Subspace.from_rows(F, cols, Matrix(F, data.draw(_codes(F, (rows, cols)))))
    scan = [next(j for j, x in enumerate(row) if x) for row in S.basis.a.tolist()]
    assert S.pivots == _rref(F, S.basis.a.copy()) == scan
    assert Subspace.zero(F, cols).pivots == []


# ---- Frobenius reciprocity stack maps and qualifying subgroups ----


def ref_right_coset_reps(G, U):
    """The least element of each right coset Ug, in increasing order."""
    return sorted({min(G.mul(u, g) for u in U.members) for g in range(G.order)})


@settings(max_examples=40, deadline=None)
@given(
    gname=st.sampled_from(_small_groups()),
    fname=st.sampled_from(["F2", "F3", "F4"]),
    flavor=st.sampled_from(["lower", "upper"]),
    data=st.data(),
)
def test_stack_maps_match_per_coset_products(gname, fname, flavor, data):
    from modplab.catalog import catalog_fields, catalog_groups, catalog_reps
    from modplab.groups import all_subgroups
    from modplab.linalg import hstack, vstack
    from modplab.reps import (
        hom_space,
        induce,
        intertwines,
        lower_drop,
        lower_lift,
        restrict,
        upper_drop,
        upper_lift,
    )

    G, F = catalog_groups()[gname], catalog_fields()[fname]
    U = data.draw(st.sampled_from(all_subgroups(G)))
    W_pool, V_pool = catalog_reps(U.as_group(), F, 2), catalog_reps(G, F, 3)
    W = W_pool[data.draw(st.sampled_from(sorted(W_pool)))]
    V = V_pool[data.draw(st.sampled_from(sorted(V_pool)))]
    down, ind = restrict(V, U), induce(U, W)
    if flavor == "lower":
        src, dst, lift, drop, big = W, down, lower_lift, lower_drop, (ind, V)
    else:
        src, dst, lift, drop, big = down, W, upper_lift, upper_drop, (V, ind)
    space = hom_space(src, dst)
    X = space.basis.a.reshape(space.dim, dst.dim, src.dim)
    moved = lift(U, V, X)
    assert intertwines(*big, moved)
    reps = ref_right_coset_reps(G, U)
    for f, got in zip(X, moved):
        t = Matrix(F, f)
        if flavor == "lower":  # block column i is rho_V(r_i^-1) t
            want = hstack([Matrix(F, V.T[G.inv(r)]) @ t for r in reps])
        else:  # block row i is t rho_V(r_i)
            want = vstack([t @ Matrix(F, V.T[r]) for r in reps])
        assert np.array_equal(got, want.a)
    assert np.array_equal(drop(U, W, moved), X)


def ref_adjunction_matrices(U, P):
    """The unit, counit, unit retraction, counit section and Higman witness
    (None when there is none) of U and P, laid out block by block as induce
    lays out its basis: one block per least coset representative, the coset
    U itself at the position of the identity."""
    from modplab.groups import coset_lookup

    G, F, d = U.parent, P.field, P.dim
    reps, pos = coset_lookup(G, U)
    n = len(reps)
    i0 = pos[G.identity]
    r0 = reps[i0]
    unit = P.T[list(reps)].reshape(n * d, d)
    counit = P.T[G.inverse[list(reps)]].transpose(1, 0, 2).reshape(d, n * d)
    retraction = np.zeros((d, n * d), dtype=np.int16)
    retraction[:, i0 * d : (i0 + 1) * d] = P.T[G.inv(r0)]
    section = np.zeros((n * d, d), dtype=np.int16)
    section[i0 * d : (i0 + 1) * d, :] = P.T[r0]
    Y = ref_trace_solution(P, U)
    witness = None if Y is None else Matrix(F, F.ax_matmul_batch(Y, P.T[list(reps)]).reshape(n * d, d))
    return {
        "unit": Matrix(F, unit),
        "counit": Matrix(F, counit),
        "retraction": Matrix(F, retraction),
        "section": Matrix(F, section),
        "witness": witness,
    }


def ref_cover_columns(U, V, v):
    """Column i of the cover map is the inverse of the i-th coset
    representative applied to v."""
    from modplab.groups import coset_lookup

    G = U.parent
    reps, _ = coset_lookup(G, U)
    orbit = V.orbit(v)
    return Matrix(V.field, orbit[G.inverse[list(reps)]].T)


@pytest.mark.parametrize("gname", sorted(catalog.catalog_groups()))
def test_adjunction_matrices_match_block_layout(gname):
    """Every subgroup, standard field and pool rep: the unit, counit,
    retraction, section, cover maps and Higman witness equal the matrices
    written out block by block."""
    from modplab.catalog import catalog_fields, catalog_groups, catalog_reps
    from modplab.groups import all_subgroups
    from modplab.reps import fixed_points, restrict
    from modplab.suites import STANDARD_FIELDS

    G = catalog_groups()[gname]
    checked = 0
    for fname in STANDARD_FIELDS:
        F = catalog_fields()[fname]
        for U in all_subgroups(G):
            for name, P in catalog_reps(G, F, 4).items():
                fixed = fixed_points(restrict(P, U)).basis.a
                for v, phi in zip(fixed, covers.cover_map(U, P, fixed)):
                    assert Matrix(F, phi) == ref_cover_columns(U, P, v), (fname, U, name)
                if not _fits_induce(P, U):
                    continue
                want = ref_adjunction_matrices(U, P)
                assert exact.adjunction_unit(U, P).matrix == want["unit"], (fname, U, name)
                assert exact.adjunction_counit(U, P).matrix == want["counit"], (fname, U, name)
                assert exact.unit_retraction(U, P) == want["retraction"], (fname, U, name)
                assert exact.counit_section(U, P) == want["section"], (fname, U, name)
                flag, witness = exact.relative_projectivity_test(P, U)
                assert flag == (want["witness"] is not None), (fname, U, name)
                assert witness == want["witness"], (fname, U, name)
                checked += 1
    assert checked > 0


def old_identity_lifts(U, P):
    """The unit, counit, unit retraction and counit section as lifts and
    drops of an identity through batched products, block i for the i-th
    least right coset representative r_i: the unit's block row i is
    I rho(r_i), the counit's block column i is rho(r_i^-1) I, and the
    retraction and section are rho(r0^-1) and rho(r0) applied to the rows
    and the columns of the identity of Ind Res P at the block of U's own
    coset, whose least element is r0."""
    G, F, d = U.parent, P.field, P.dim
    reps = ref_right_coset_reps(G, U)
    n, r0 = len(reps), min(U.members)
    block = slice(reps.index(r0) * d, (reps.index(r0) + 1) * d)
    I, big = np.eye(d, dtype=np.int16)[None], np.eye(n * d, dtype=np.int16)[None]
    lower = F.ax_matmul_batch(P.T[G.inverse[reps]], I[:, None])
    return {
        "unit": F.ax_matmul_batch(I[:, None], P.T[reps]).reshape(n * d, d),
        "counit": lower.transpose(0, 2, 1, 3).reshape(d, n * d),
        "retraction": F.ax_matmul_batch(P.T[G.inv(r0)], big[:, block])[0],
        "section": F.ax_matmul_batch(big[:, :, block], P.T[r0])[0],
    }


def _relabelled(name, at):
    """A catalog group on new element indices: the other elements in
    reverse order, with the identity moved from 0 to index at."""
    from modplab.groups import FinGroup

    G = catalog.catalog_groups()[name]
    old = [x for x in reversed(range(G.order)) if x != G.identity]
    old.insert(at, G.identity)  # new index i is the old element old[i]
    new = np.argsort(old)
    return FinGroup(new[G.table[np.ix_(old, old)]])


RELABELLED = {"S3-relabelled": ("S3", 3), "A4-relabelled": ("A4", 5)}


@pytest.mark.parametrize("gname", sorted(catalog.catalog_groups()) + sorted(RELABELLED))
def test_adjunction_gathers_match_identity_lifts(gname):
    """Every subgroup and pool rep over F2, F3 and F4: the unit, counit,
    retraction and section equal the lifts and drops of an identity, also
    where the identity is not element 0 and U's own coset has a least
    element other than the identity, of order 2 in S3 and 3 in A4."""
    from modplab.catalog import catalog_fields, catalog_reps
    from modplab.groups import all_subgroups

    G = _relabelled(*RELABELLED[gname]) if gname in RELABELLED else catalog.catalog_groups()[gname]
    checked, moved = 0, 0
    for fname in ("F2", "F3", "F4"):
        F = catalog_fields()[fname]
        for U in all_subgroups(G):
            moved += min(U.members) != G.identity
            for name, P in catalog_reps(G, F, 4).items():
                if not _fits_induce(P, U):
                    continue
                want, where = old_identity_lifts(U, P), (fname, U.members, name)
                assert np.array_equal(exact.adjunction_unit(U, P).matrix.a, want["unit"]), where
                assert np.array_equal(exact.adjunction_counit(U, P).matrix.a, want["counit"]), where
                assert np.array_equal(exact.unit_retraction(U, P).a, want["retraction"]), where
                assert np.array_equal(exact.counit_section(U, P).a, want["section"]), where
                checked += 1
    assert checked > 0
    if gname in RELABELLED:
        assert G.identity == RELABELLED[gname][1] and moved > 0


@pytest.mark.parametrize("gname", sorted(catalog.catalog_groups()) + sorted(RELABELLED))
def test_coset_stacks_match_per_coset_gathers(gname):
    """Every subgroup: the stacks of the regular rep, which is faithful,
    gather rho(r) and rho(r^-1) for the least representative r of each
    coset in increasing order, the own block is that of the coset U, and
    the drops invert the lifts of the identity of Res V, also where the
    identity is not element 0."""
    from modplab.catalog import catalog_fields
    from modplab.groups import all_subgroups
    from modplab.reps import (
        coset_stack,
        lower_drop,
        lower_lift,
        own_block,
        regular_rep,
        restrict,
        upper_drop,
        upper_lift,
    )

    G = _relabelled(*RELABELLED[gname]) if gname in RELABELLED else catalog.catalog_groups()[gname]
    V = regular_rep(G, catalog_fields()["F2"])
    for U in all_subgroups(G):
        reps = ref_right_coset_reps(G, U)
        assert np.array_equal(coset_stack(U, V), np.array([V.T[r] for r in reps]))
        assert np.array_equal(coset_stack(U, V, inverse=True), np.array([V.T[G.inv(r)] for r in reps]))
        W, i0 = restrict(V, U), reps.index(min(U.members))
        want = np.zeros(U.index * W.dim, dtype=bool)
        want[i0 * W.dim : (i0 + 1) * W.dim] = True
        assert np.array_equal(own_block(U, W.dim), want)
        I = np.eye(V.dim, dtype=np.int16)[None]
        assert np.array_equal(lower_drop(U, W, lower_lift(U, V, I)), I)
        assert np.array_equal(upper_drop(U, W, upper_lift(U, V, I)), I)


def ref_join(G, A, B):
    got = {G.identity} | set(A) | set(B)
    while True:
        more = {G.mul(a, b) for a in got for b in got} - got
        if not more:
            return got
        got |= more


@settings(max_examples=60, deadline=None)
@given(
    gname=st.sampled_from(_small_groups()),
    fname=st.sampled_from(["F2", "F3", "F4"]),
    central=st.booleans(),
    data=st.data(),
)
def test_qualifying_subgroups_match_brute_force(gname, fname, central, data):
    from modplab.catalog import catalog_fields, catalog_groups, catalog_reps
    from modplab.covers import qualifying_subgroups
    from modplab.groups import all_subgroups

    G, F = catalog_groups()[gname], catalog_fields()[fname]
    pool = catalog_reps(G, F, 3)
    V = pool[data.draw(st.sampled_from(sorted(pool)))]
    v = tuple(data.draw(st.lists(st.integers(0, F.order - 1), min_size=V.dim, max_size=V.dim)))
    assume(any(v))

    orbit = V.orbit(v)

    def fixes(members):
        return bool((orbit[list(members)] == v).all())

    C = None
    if central:
        C = data.draw(st.sampled_from([S for S in all_subgroups(G) if S.is_central()]))
        if not fixes(C.members):
            with pytest.raises(ValueError):
                qualifying_subgroups(V, v, C)
            return
    rank = len(ref_rref(F, orbit)[1])
    want = [
        U.members
        for U in all_subgroups(G)
        if fixes(U.members)
        and G.order // len(ref_join(G, U.members, C.members if C else ())) > rank
    ]
    assert [U.members for U in qualifying_subgroups(V, v, C)] == want


# ---- generator extension against the breadth-first search it replaced ----


def ref_rep_from_generators(G, F, images):
    """The action on every element from generator images, by a
    breadth-first search that checks every product it meets against the
    value already found: T[g x] = images[g] T[x] for every key g and every
    element x, which with T[1] = I makes T a homomorphism."""
    dim = len(next(iter(images.values())))
    mats = [None] * G.order
    mats[G.identity] = np.eye(dim, dtype=np.int64)
    frontier = [G.identity]
    while frontier:
        new = []
        for x in frontier:
            for g, Mg in images.items():
                y = int(G.table[g, x])
                cand = ref_matmul(F, np.asarray(Mg), mats[x])
                if mats[y] is None:
                    mats[y] = cand
                    new.append(y)
                elif not np.array_equal(mats[y], cand):
                    raise ValueError("generator images are inconsistent")
        frontier = new
    if any(M is None for M in mats):
        raise ValueError("images do not generate the group")
    return np.array(mats)


def ref_element_order(G, g):
    n, x = 1, g
    while x != G.identity:
        x, n = int(G.table[g, x]), n + 1
    return n


def ref_group_characters(G, F):
    """Value tuples of every multiplicative map G -> F*, one per extending
    choice of units on the generators, in the order of those choices."""
    gens = ref_generators(G, range(G.order))
    if not gens:
        return [(1,) * G.order]
    choices = []
    for g in gens:
        n = ref_element_order(G, g)
        units = []
        for u in range(1, F.order):
            power = 1
            for _ in range(n):
                power = ref_mul(F, power, u)
            if power == 1:
                units.append(u)
        choices.append(units)
    found = []
    for combo in itertools.product(*choices):
        try:
            T = ref_rep_from_generators(G, F, {g: [[u]] for g, u in zip(gens, combo)})
        except ValueError:
            continue
        vals = tuple(int(v) for v in T[:, 0, 0])
        if vals not in found:
            found.append(vals)
    return found


@pytest.mark.parametrize("name", ["builtin", "small", "large"])
def test_generator_extension_matches_breadth_first_search(name):
    from modplab.jordan import jordan_block_rep
    from modplab.reps import group_characters, rep_from_generators

    if name == "builtin":
        groups, fields = catalog.catalog_groups(), catalog.catalog_fields()
    else:
        cat = catalog.load_catalog(str(ROOT / "perfbench" / "catalogs" / f"{name}.json"))
        groups, fields = cat["groups"], cat["fields"]
    for gname, G in sorted(groups.items()):
        for fname, F in sorted(fields.items()):
            assert group_characters(G, F) == ref_group_characters(G, F), (gname, fname)
            # every catalog rep is the extension of its own generator images
            for vname, V in sorted(catalog.catalog_reps(G, F, 2).items()):
                images = {g: V.T[g] for g in ref_generators(G, range(G.order))}
                if not images:
                    continue
                want = ref_rep_from_generators(G, F, images)
                got = rep_from_generators(G, F, {g: Matrix(F, M) for g, M in images.items()})
                assert np.array_equal(got.T, want) and np.array_equal(want, V.T), vname
            order, p_power = G.order, p_part(G.order, F.p)[1] == 1
            gen = next((g for g in range(order) if ref_element_order(G, g) == order), None)
            if gen is None or not p_power:
                continue
            for size in range(1, order + 1):
                block = np.eye(size, dtype=np.int64) + np.eye(size, k=1, dtype=np.int64)
                want = ref_rep_from_generators(G, F, {gen: block})
                assert np.array_equal(jordan_block_rep(G, F, size).T, want), (gname, fname, size)


@pytest.mark.parametrize(
    "gname, fname, images",
    [
        ("S3", "F3", {1: [[2]], 3: [[2]]}),  # (012) would need order dividing 2
        ("C4", "F5", {1: [[2]], 2: [[2]]}),  # the square of 2 is 4, not 2
        ("V4", "F2", {1: [[1, 1], [0, 1]]}),  # reaches only half of V4
        ("C3", "F4", {0: [[2]], 1: [[2]]}),  # the identity must act as 1
        ("C2", "F3", {0: [[2]], 1: [[1]]}),  # ... beside a consistent generator
    ],
    ids=["inconsistent", "wrong-square", "not-generating", "identity-key", "identity-beside-gen"],
)
def test_generator_extension_rejects_bad_images(gname, fname, images):
    from modplab.reps import rep_from_generators

    G, F = catalog.catalog_groups()[gname], catalog.catalog_fields()[fname]
    with pytest.raises(ValueError):
        ref_rep_from_generators(G, F, images)
    with pytest.raises(ValueError):
        rep_from_generators(G, F, {g: Matrix(F, M) for g, M in images.items()})


# ---- the frozen commands on reference kernels ----

DIGESTS = json.loads((ROOT / "perfbench" / "digests.json").read_text(encoding="utf-8"))


def _use_reference_kernels(monkeypatch, add=ref_add):
    """Swap FiniteField's array kernels (ax_matmul_batch with its product
    memo) and linalg._rref, the one elimination, for schoolbook code over
    q x q tables built from polynomial arithmetic, and start cold, so that
    everything is rebuilt on these kernels.  Returns the shapes of the
    arrays the reference elimination reduces, as it reduces them."""
    tables = {}

    def tabled(F):
        if F.key() not in tables:
            q = range(F.order)
            T = {
                name: np.array([[op(F, a, b) for b in q] for a in q], dtype=np.int16)
                for name, op in (("add", add), ("sub", ref_sub), ("mul", ref_mul))
            }
            T["inv"] = np.array([0] + [ref_inv(F, a) for a in q[1:]], dtype=np.int16)
            tables[F.key()] = T
        return tables[F.key()]

    def matmul_batch(F, A, B):
        if A.ndim < 2 or B.ndim < 2 or A.shape[-1] != B.shape[-2]:
            raise ValueError(f"shape mismatch {A.shape} @ {B.shape}")
        ADD, MUL = tabled(F)["add"], tabled(F)["mul"]
        P = MUL[A[..., :, :, None], B[..., None, :, :]]  # P[..., i, t, j] = a_it b_tj
        if P.shape[-2] == 0:
            return np.zeros(P.shape[:-2] + P.shape[-1:], dtype=np.int16)
        while P.shape[-2] > 1:  # add the products up in pairs along t
            h = P.shape[-2] // 2
            P = np.concatenate([ADD[P[..., :h, :], P[..., h : 2 * h, :]], P[..., 2 * h :, :]], axis=-2)
        return P[..., 0, :]

    def scale(F, A, s):
        if not 0 <= s < F.order:
            raise ValueError(f"scalar {s} is not an element code of {F!r}")
        return tabled(F)["mul"][A, s]

    reductions = []

    def rref(F, M):  # in place, as linalg._rref
        reductions.append(M.shape)
        SUB, MUL, INV = (tabled(F)[name] for name in ("sub", "mul", "inv"))
        pivots = []
        for c in range(M.shape[1]):
            r = len(pivots)
            below = np.flatnonzero(M[r:, c])
            if not len(below):
                continue
            M[[r, r + below[0]]] = M[[r + below[0], r]]
            M[r] = MUL[INV[M[r, c]], M[r]]
            others = np.flatnonzero(M[:, c])
            others = others[others != r]
            M[others] = SUB[M[others], MUL[M[others, c, None], M[r]]]  # clear column c
            pivots.append(c)
        return pivots

    for name, kernel in (
        ("ax_matmul_batch", matmul_batch),
        ("ax_add", lambda F, A, B: tabled(F)["add"][A, B]),
        ("ax_sub", lambda F, A, B: tabled(F)["sub"][A, B]),
        ("ax_mul", lambda F, A, B: tabled(F)["mul"][A, B]),
        ("ax_neg", lambda F, A: tabled(F)["sub"][0, A]),
        ("ax_scale", scale),
    ):
        monkeypatch.setattr(FiniteField, name, kernel)
    monkeypatch.setattr(linalg, "_rref", rref)
    start_cold(monkeypatch)
    return reductions


def _prints_frozen_bytes(command, capsys):
    try:
        code = cli.main(command.split())
    except Exception:  # a broken kernel may crash the command outright
        code = None
    out = capsys.readouterr().out.encode("utf-8")
    return code == 0 and hashlib.sha256(out).hexdigest() == DIGESTS[command]


def test_frozen_commands_on_reference_kernels(capsys, monkeypatch):
    """Every frozen command prints its frozen bytes when all array
    arithmetic and every reduction run on the schoolbook kernels above.
    The reference elimination reduces the same arrays, in the same order,
    as linalg._rref's code in a cold production run of the same commands,
    and no reduction runs that code under the swap: both runs count
    executions of the code object, so a call through an alias counts too
    (that every reduction calls linalg._rref is tests/test_linalg.py's to
    check)."""
    monkeypatch.chdir(ROOT)  # the commands name catalogs relative to the root
    code = linalg._rref.__code__
    production, escaped = [], []
    with monkeypatch.context() as m:
        start_cold(m)
        codes = profiled(
            runs_of(code, production), lambda: [cli.main(c.split()) for c in sorted(DIGESTS)]
        )
        assert codes == [0] * len(DIGESTS)
        capsys.readouterr()
    reductions = _use_reference_kernels(monkeypatch)
    failing = profiled(
        runs_of(code, escaped),
        lambda: [c for c in sorted(DIGESTS) if not _prints_frozen_bytes(c, capsys)],
    )
    assert failing == []
    assert escaped == []
    assert len(reductions) == len(production) and reductions == production


def test_reference_gate_catches_a_dropped_mod_p(capsys, monkeypatch):
    def unreduced_add(F, a, b):  # ref_add without its % p
        return _code(F, [x + y for x, y in zip(_digits(F, a), _digits(F, b))])

    monkeypatch.chdir(ROOT)
    _use_reference_kernels(monkeypatch, add=unreduced_add)
    assert not _prints_frozen_bytes("stable --group C3 --field F3", capsys)
