import random

import numpy as np
import pytest

from modplab.fields import FiniteField, is_prime, smallest_irreducible
from modplab.linalg import Matrix


def test_is_prime_small():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)


def test_smallest_irreducible_frozen():
    # lex-least monic irreducibles, checked by hand against root/factor scans
    assert smallest_irreducible(2, 2) == (1, 1, 1)  # x^2 + x + 1
    assert smallest_irreducible(3, 2) == (1, 0, 1)  # x^2 + 1
    assert smallest_irreducible(2, 3) == (1, 1, 0, 1)


def test_constructor_rejects_bad_parameters():
    with pytest.raises(ValueError):
        FiniteField(4, 1)
    with pytest.raises(ValueError):
        FiniteField(2, 0)


def test_element_codes_fit_int16():
    with pytest.raises(ValueError, match="too large"):
        FiniteField(32771)  # the least prime above 2**15
    with pytest.raises(ValueError, match="too large"):
        FiniteField(2**61 - 1)  # rejected before any primality test
    F = FiniteField(32749)  # the largest prime below 2**15
    M = Matrix(F, [[32748, 2]])
    assert (M @ M.transpose()).a.tolist() == [[5]]


def test_oversized_extension_is_refused_before_the_modulus_search(monkeypatch):
    import modplab.fields as fields

    def searched(p, k):
        raise AssertionError("searched for a modulus")

    monkeypatch.setattr(fields, "smallest_irreducible", searched)
    for k in (11, 10**8):  # 2**11 > TABLE_LIMIT; 2**(10**8) is never formed
        with pytest.raises(ValueError, match="table limit"):
            FiniteField(2, k)
    with pytest.raises(ValueError, match="table limit"):
        FiniteField(3, 7)


def test_field_parameters_must_be_integers():
    for p, k in ((2.0, 1), (2, 1.5), (2, 1e9)):
        with pytest.raises(TypeError):
            FiniteField(p, k)
    assert FiniteField(np.int64(3), np.int64(2)).order == 9


def _add(F, a, b, sign=1):
    """a + sign * b in F, digit by digit mod p on the base-p digits of the
    codes: how a code encodes its residue polynomial."""
    out, place = 0, 1
    for _ in range(F.k):
        out += place * ((a % F.p + sign * (b % F.p)) % F.p)
        a, b, place = a // F.p, b // F.p, place * F.p
    return out


def _order(F, a):
    """The multiplicative order of a nonzero code a, by repeated products."""
    return next(n for n in range(1, F.order) if F.pow(a, n) == 1)


def test_prime_field_arithmetic():
    F3 = FiniteField(3)
    assert F3.mul(2, 2) == 1
    assert F3.inv(2) == 2
    assert F3.mul(1, F3.inv(2)) == 2
    assert F3.pow(2, 5) == 2
    with pytest.raises(ZeroDivisionError):
        F3.inv(0)


def test_f4_table_arithmetic():
    # elements coded 0,1,w,w+1 as 0,1,2,3 with w^2 = w + 1
    F4 = FiniteField(2, 2)
    assert F4.modulus == (1, 1, 1)
    assert F4.mul(2, 2) == 3
    assert F4.mul(2, 3) == 1
    assert F4.ADD[2, 3] == 1
    assert F4.inv(2) == 3
    assert [_order(F4, a) for a in (1, 2, 3)] == [1, 3, 3]
    assert F4.ADD[2, 1] == 3  # code 3 is x + 1


def test_f9_arithmetic():
    F9 = FiniteField(3, 2)
    assert F9.order == 9
    # 3 codes x, and x^2 = -1 = 2 under the modulus x^2 + 1
    assert F9.mul(3, 3) == 2
    # multiplicative group is cyclic of order 8
    orders = {_order(F9, a) for a in range(1, 9)}
    assert max(orders) == 8
    assert all(8 % o == 0 for o in orders)


def test_field_axioms_random():
    rng = random.Random(20260814)
    for F in (FiniteField(2), FiniteField(5), FiniteField(2, 2), FiniteField(3, 2)):
        for _ in range(200):
            a, b, c = (rng.randrange(F.order) for _ in range(3))
            assert F.mul(a, b) == F.mul(b, a)
            assert F.mul(a, _add(F, b, c)) == _add(F, F.mul(a, b), F.mul(a, c))
            if a:
                assert F.mul(a, F.inv(a)) == 1


def test_vectorized_ops_match_scalar():
    rng = np.random.default_rng(7)
    for F in (FiniteField(2), FiniteField(3), FiniteField(2, 2), FiniteField(3, 2)):
        A = rng.integers(0, F.order, size=(6, 6), dtype=np.int16)
        B = rng.integers(0, F.order, size=(6, 6), dtype=np.int16)
        for name, axop, op in (
            ("add", F.ax_add, lambda a, b: _add(F, a, b)),
            ("sub", F.ax_sub, lambda a, b: _add(F, a, b, -1)),
            ("mul", F.ax_mul, F.mul),
        ):
            got = axop(A, B)
            want = np.array([[op(int(x), int(y)) for x, y in zip(r, s)] for r, s in zip(A, B)])
            assert np.array_equal(got, want), name
        assert np.array_equal(F.ax_neg(A), np.vectorize(lambda a: _add(F, 0, a, -1))(A))
        C = F.ax_matmul(A, B)
        for i in range(6):
            for j in range(6):
                acc = 0
                for k in range(6):
                    acc = _add(F, acc, F.mul(int(A[i, k]), int(B[k, j])))
                assert int(C[i, j]) == acc


def test_descriptor_and_key():
    F4 = FiniteField(2, 2)
    assert F4.modulus == (1, 1, 1)
    assert FiniteField(2, 2).key() == F4.key()
    assert FiniteField(2).key() != F4.key()


def test_equal_fields_hash_equal():
    F4, other = FiniteField(2, 2), FiniteField(2, 2)
    assert F4 is not other and F4 == other and hash(F4) == hash(other)
    assert {F4: "F4"}[other] == "F4"
    for different in (FiniteField(2), FiniteField(5), FiniteField(3, 2)):
        assert F4 != different and hash(F4) != hash(different)


def _trial_division(n):
    return n >= 2 and all(n % f for f in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division_below_1e5():
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5) if _trial_division(n)
    ]


def test_is_prime_rejects_strong_pseudoprimes():
    # 3825123056546413051 is a strong pseudoprime to every base up to 31
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)


def test_is_prime_accepts_mersenne_61():
    assert is_prime(2**61 - 1)
    assert is_prime(2**64 - 59)


def test_is_prime_refuses_beyond_deterministic_bound():
    with pytest.raises(ValueError):
        is_prime(10**24 + 7)


def test_scale_takes_element_codes():
    F4 = FiniteField(2, 2)
    M = np.array([[1, 2]], dtype=np.int16)
    # code 3 is x + 1: x * (x + 1) = x^2 + x = 1
    assert F4.ax_scale(M, 3).tolist() == [[F4.mul(1, 3), F4.mul(2, 3)]] == [[3, 1]]
    with pytest.raises(ValueError):
        F4.ax_scale(M, -1)  # used to index MUL from the end: [[3, 1]]
    with pytest.raises(ValueError):
        F4.ax_scale(M, 4)  # used to raise IndexError


def test_scale_over_prime_field_rejects_non_codes():
    F3 = FiniteField(3)
    M = np.array([[1, 2]], dtype=np.int16)
    assert F3.ax_scale(M, 2).tolist() == [[2, 1]]
    assert F3.ax_scale(M, 0).tolist() == [[0, 0]]
    for s in (-1, 3, 5):
        with pytest.raises(ValueError):
            F3.ax_scale(M, s)
