"""Exact arithmetic in finite fields F_{p^k}.

A field element is a plain int in ``[0, p**k)``: the integer ``a`` encodes
the residue polynomial ``sum(d_i * x**i)`` where ``d_0, d_1, ...`` are the
base-p digits of ``a``.  Prime fields compute with modular arithmetic
directly; extension fields go through small precomputed operation tables.
All arithmetic is exact.  The one place floats appear is
``ax_matmul_batch``, which multiplies integer-valued float32/float64
matrices with BLAS (the codes themselves over a prime field, their digit
planes over an extension field); every sum it forms stays below 2**24
(float32) or 2**53 (float64), where those types hold integers exactly.
Small products over an extension field of characteristic 2 use no floats:
they gather products from the MUL table and add them with XOR.
It memoises small products in a bounded memo.
"""

from __future__ import annotations

import operator

import numpy as np

from .memo import ENTRY_OVERHEAD, Memo

# largest extension-field order we materialize q x q tables for
TABLE_LIMIT = 1024
# matrices store element codes as int16
CODE_LIMIT = 2**15
# ax_matmul_batch slices a batch whose products would span more cells of
# float products (digit-plane products over an extension field) than this
BATCH_CELLS = 2**16

# ax_matmul_batch's memo: (field key, dtypes, shapes, bytes of both
# operands) -> a read-only product.  Only products whose operands total at
# most MATMUL_MEMO_ENTRY_CELLS are stored: those are bound by call overhead,
# and large ones rarely repeat.  An entry counts its operand cells, its
# product cells and memo.ENTRY_OVERHEAD, so the budget bounds the memo at
# about 2 MB and fewer than 4,096 entries.  The same bound on the
# (batch, n, m, r) cells of a product over an extension field of
# characteristic 2 picks the XOR gather over the gemm.
MATMUL_MEMO_ENTRY_CELLS = 2**12
MATMUL_MEMO_CELLS = 2**20
_MATMUL_MEMO = Memo(MATMUL_MEMO_CELLS)


# Miller-Rabin with the first twelve prime bases is exact for every
# n < 3.18 * 10**23 (Sorenson & Webster 2017), which covers all n < 2**64.
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MR_LIMIT = 318665857834031151167461


def p_part(n: int, p: int) -> tuple[int, int]:
    """(e, m) with n = p**e * m and p not dividing m, for n >= 1 and p >= 2."""
    if n < 1 or p < 2:
        raise ValueError(f"p_part needs n >= 1 and p >= 2, got n = {n}, p = {p}")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


def is_prime(n: int) -> bool:
    """Deterministic primality for n < MR_LIMIT; larger n raise ValueError."""
    if n >= MR_LIMIT:
        raise ValueError(f"n = {n} is beyond the deterministic primality bound")
    if n < 2:
        return False
    for b in MR_BASES:
        if n % b == 0:
            return n == b
    s, d = p_part(n - 1, 2)
    for b in MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _poly_trim(c: tuple[int, ...]) -> tuple[int, ...]:
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return c[:i]


def _poly_rem(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Remainder of a mod b with b monic."""
    a = list(a)
    db = len(b) - 1
    while len(a) - 1 >= db and a:
        lead = a[-1] % p
        if lead:
            shift = len(a) - 1 - db
            for i in range(db + 1):
                a[shift + i] = (a[shift + i] - lead * b[i]) % p
        a.pop()
    return _poly_trim(tuple(x % p for x in a))


def _monics(p: int, d: int):
    """The monic polynomials of degree d over Z/p, constant coefficient
    first, in increasing order of their base-p digit encoding (constant
    coefficient least significant)."""
    for m in range(p**d):
        yield tuple(m // p**i % p for i in range(d)) + (1,)


def _is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg//2."""
    deg = len(modulus) - 1
    if deg < 1:
        return False
    return all(
        _poly_rem(modulus, cand, p) for d in range(1, deg // 2 + 1) for cand in _monics(p, d)
    )


def smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over Z/p,
    scanning the candidates in the order of _monics."""
    if k == 1:
        return (0, 1)
    for cand in _monics(p, k):
        if _is_irreducible(cand, p):
            return cand
    raise ValueError(f"no irreducible of degree {k} over F_{p}")  # unreachable


class FiniteField:
    """The field with p**k elements modulo smallest_irreducible(p, k)."""

    def __init__(self, p: int, k: int = 1):
        p, k = operator.index(p), operator.index(k)  # TypeError on floats
        if p >= CODE_LIMIT:
            raise ValueError(f"p = {p} is too large: element codes are int16, so p < {CODE_LIMIT}")
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if k < 1:
            raise ValueError("k must be >= 1")
        # refuse before the modulus search, whose cost grows like p**k; a k
        # at least TABLE_LIMIT's bit length is refused without forming p**k
        if k > 1 and (k >= TABLE_LIMIT.bit_length() or p**k > TABLE_LIMIT):
            raise ValueError(f"extension order {p}^{k} exceeds table limit {TABLE_LIMIT}")
        self.p = p
        self.k = k
        self.order = p**k
        self.modulus = smallest_irreducible(p, k)
        self._key = (p, k, self.modulus)
        self.zero = 0
        self.one = 1
        # ax_matmul_batch's largest inner dimension m whose sums stay exact
        # in float32 and in float64: entries of a product of codes are at
        # most m*(p-1)**2; over an extension field the folded digit sums
        # reach k*k*m*(p-1)**3
        worst = (p - 1) ** 2 if k == 1 else k * k * (p - 1) ** 3
        self.F32_INNER = (2**24 - 1) // worst
        self.F64_INNER = (2**53 - 1) // worst
        if k > 1:
            self._build_tables()

    # ---- tables ---------------------------------------------------------

    def _build_tables(self):
        p, k, q = self.p, self.k, self.order
        codes = np.arange(q)
        digits = np.empty((q, k), dtype=np.int64)
        rest = codes.copy()
        for i in range(k):
            digits[:, i] = rest % p
            rest //= p
        pw = p ** np.arange(k)

        # reduction of x^t mod modulus for t < 2k-1
        red = np.zeros((2 * k - 1, k), dtype=np.int64)
        for t in range(2 * k - 1):
            r = _poly_rem((0,) * t + (1,), self.modulus, p)
            red[t, : len(r)] = r
        # x^r * x^s reduces to red[r + s]; W[j, r, s] is its digit j
        W = red[np.add.outer(np.arange(k), np.arange(k))].transpose(2, 0, 1)

        # Build the tables one (q, q) digit plane at a time: digit j of
        # a + b is (a_j + b_j) mod p, and digit j of a * b is
        # sum_{r,s} a_r b_s W[j, r, s] mod p, a rank-k product.
        add = np.zeros((q, q), dtype=np.int64)
        mul = np.zeros((q, q), dtype=np.int64)
        for j in range(k):
            add += pw[j] * (np.add.outer(digits[:, j], digits[:, j]) % p)
            mul += pw[j] * (digits @ (W[j] @ digits.T) % p)
        self.ADD = add.astype(np.int16)
        self.MUL = mul.astype(np.int16)
        self.NEG = (((-digits) % p) @ pw).astype(np.int16)
        self.SUB = self.ADD[:, self.NEG]

        # ax_matmul_batch's digit planes, one set per float type: DIGITS[j, a]
        # is digit j of a, CONV[j, r*k + s] is digit j of x^(r+s) mod f, and
        # PW[j] = p**j.
        conv = red[np.add.outer(np.arange(k), np.arange(k)).reshape(-1)].T
        self._planes = {dt: (digits.T.astype(dt), conv.astype(dt)) for dt in (np.float32, np.float64)}
        self._PW = pw
        self._J = np.arange(k)[:, None]

        inv = np.zeros(q, dtype=np.int16)
        for a in range(1, q):
            hits = np.nonzero(self.MUL[a] == 1)[0]
            if len(hits) != 1:
                raise ValueError("modulus is not irreducible")  # defensive
            inv[a] = hits[0]
        self.INV = inv

    # ---- scalar operations ----------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if self.k == 1:
            return (a * b) % self.p
        return int(self.MUL[a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        return int(self.INV[a])

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            a, n = self.inv(a), -n
        out = 1
        while n:
            if n & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            n >>= 1
        return out

    # ---- vectorized kernels (arrays of element codes) ---------------------

    def ax_add(self, A, B):
        if self.p == 2:
            return np.bitwise_xor(A, B)  # codes are bit vectors in char 2
        if self.k == 1:
            return ((A.astype(np.int64) + B) % self.p).astype(np.int16)
        return self.ADD[A, B]

    def ax_sub(self, A, B):
        if self.p == 2:
            return np.bitwise_xor(A, B)
        if self.k == 1:
            return ((A.astype(np.int64) - B) % self.p).astype(np.int16)
        return self.SUB[A, B]

    def ax_neg(self, A):
        if self.p == 2:
            return A.copy()
        if self.k == 1:
            return ((-A.astype(np.int64)) % self.p).astype(np.int16)
        return self.NEG[A]

    def ax_mul(self, A, B):
        """Elementwise product, broadcasting like numpy."""
        if self.k == 1:
            return ((A.astype(np.int64) * B) % self.p).astype(np.int16)
        return self.MUL[A, B]

    def ax_scale(self, A, s: int):
        """Every entry times the field element with code s."""
        if not 0 <= s < self.order:
            raise ValueError(f"scalar {s} is not an element code of {self!r}")
        if s == 1:
            return A.copy()
        if self.k == 1:
            return ((A.astype(np.int64) * s) % self.p).astype(np.int16)
        return self.MUL[A, s]

    def ax_sub_outer(self, A, f, row):
        """A - f[:, None] * row, for a (k, n) array A, k factors f and an
        n-long row: an elimination step on k rows at once.  In
        characteristic 2 the result is A itself, XORed in place."""
        if self.p == 2:
            A ^= self.MUL[f[:, None], row] if self.k > 1 else f[:, None] & row
            return A
        if self.k == 1:
            return ((A - f[:, None].astype(np.int64) * row) % self.p).astype(np.int16)
        return self.SUB[A, self.MUL[f[:, None], row]]

    def ax_matmul(self, A, B):
        """Product of two 2-d code arrays; stacks go to ax_matmul_batch."""
        if A.ndim != 2 or B.ndim != 2:
            raise ValueError(f"ax_matmul takes 2-d operands, not {A.shape} @ {B.shape}")
        return self.ax_matmul_batch(A, B)

    def ax_matmul_batch(self, A, B):
        """Products over the last two axes; leading axes broadcast like
        numpy.matmul.  The result is a fresh array, computed or read from
        the memo."""
        if A.ndim < 2 or B.ndim < 2 or A.shape[-1] != B.shape[-2]:
            raise ValueError(f"shape mismatch {A.shape} @ {B.shape}")
        cells = A.size + B.size
        if cells > MATMUL_MEMO_ENTRY_CELLS:
            return self._matmul(A, B)
        key = (self._key, A.dtype, B.dtype, A.shape, B.shape, A.tobytes(), B.tobytes())
        known = _MATMUL_MEMO.get(key)
        if known is not None:
            return known.copy()
        C = self._matmul(A, B)
        stored = C.copy()
        stored.flags.writeable = False
        _MATMUL_MEMO.put(key, stored, cells + C.size + ENTRY_OVERHEAD)
        return C

    def _matmul(self, A, B):
        """ax_matmul_batch past its shape check and its memo."""
        (n, m), r = A.shape[-2:], B.shape[-1]
        if not (n and m and r):
            lead = np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
            return np.zeros(lead + (n, r), dtype=np.int16)
        # (batch, n, r) output cells, counting both operands' batches
        cells = (A.size // m) * (B.size // m)
        if self.p == 2 and self.k > 1 and cells * m <= MATMUL_MEMO_ENTRY_CELLS:
            # A small product in characteristic 2 is one gather of the
            # (batch, n, m, r) products from MUL and an XOR sum over m,
            # since addition of bit-vector codes is XOR
            return np.bitwise_xor.reduce(self.MUL[A[..., :, :, None], B[..., None, :, :]], axis=-2)
        if cells * self.k**2 > BATCH_CELLS and max(A.ndim, B.ndim) > 2:
            return self._matmul_slices(A, B)
        # One gemm per product, in a float type that holds every sum exactly
        # (FFLAS, Dumas, Giorgi & Pernet 2008); the reduction mod p runs on
        # integers.
        assert m <= self.F64_INNER
        ftype, itype = (np.float32, np.int32) if m <= self.F32_INNER else (np.float64, np.int64)
        if self.k == 1:
            C = (A.astype(ftype) @ B.astype(ftype)).astype(itype)
            C %= self.p
            return C.astype(np.int16)
        # Over an extension field the gemm multiplies every pair of digit
        # planes; CONV then folds plane pair (r, s) into the digits of
        # x^(r+s) mod f.  Entries of P are at most m*(p-1)**2 and those of C
        # at most k*k*m*(p-1)**3.
        k = self.k
        digits, conv = self._planes[ftype]
        # rows (i, j) of L hold digit j of row i of A; columns (s, c) of R
        # hold digit s of column c of B
        L = digits[self._J, A[..., :, None, :]].reshape(A.shape[:-2] + (n * k, m))
        R = digits[self._J, B[..., :, None, :]].reshape(B.shape[:-2] + (m, k * r))
        P = L @ R
        lead = P.shape[:-2]
        P = P.reshape(-1, k * k, r).swapaxes(0, 1).reshape(k * k, -1)
        C = (conv @ P).astype(itype)
        C %= self.p
        return (self._PW @ C).reshape(lead + (n, r)).astype(np.int16)

    def _matmul_slices(self, A, B):
        """_matmul in slices along the first batch axis, so that a large
        batch never holds more than about BATCH_CELLS product cells."""
        nd = max(A.ndim, B.ndim)
        A = A.reshape((1,) * (nd - A.ndim) + A.shape)
        B = B.reshape((1,) * (nd - B.ndim) + B.shape)
        s = max(A.shape[0], B.shape[0])
        if s == 1:
            return self._matmul(A[0], B[0])[None]
        cells = (A.size // A.shape[-1]) * (B.size // B.shape[-2]) * self.k**2
        step = max(1, s * BATCH_CELLS // cells)
        out = None
        for i in range(0, s, step):
            part = self._matmul(
                A[i : i + step] if A.shape[0] > 1 else A, B[i : i + step] if B.shape[0] > 1 else B
            )
            if out is None:
                out = np.empty((s,) + part.shape[1:], dtype=np.int16)
            out[i : i + step] = part
        return out

    # ---- misc -------------------------------------------------------------

    def key(self):
        return self._key

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, FiniteField) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        if self.k == 1:
            return f"F{self.p}"
        return f"F{self.order}(mod={list(self.modulus)})"
