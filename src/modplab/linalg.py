"""Dense exact linear algebra over a FiniteField.

Matrices are immutable, row major, with entries stored as element codes in
a numpy int16 array.  Code arrays from outside (lists, JSON, catalogs,
caller arrays) are checked and cast by ``field_codes``, for ``Matrix(...)``
and ``reps.Rep(...)`` alike; results of the field kernels and
rearrangements of existing matrices are wrapped by ``Matrix._of`` without
a rescan.  Reduction is Gauss-Jordan to the reduced row echelon
form, which is unique, so echelon forms (and everything derived from them:
ranks, kernels, solutions) are canonical whichever nonzero entry of a
column serves as its pivot.  One function, ``_rref``, eliminates: in
place, on a private copy that ``rank``, ``Subspace.from_rows``,
``row_reduce`` or ``solve`` makes of its input, one field call
(``FiniteField.ax_sub_outer``) clearing each pivot column.
Nothing here memoises a reduction; the equivariant kernels and solves of
``reps`` memoise their answers.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .fields import FiniteField


def field_codes(field: FiniteField, raw: np.ndarray) -> np.ndarray:
    """A fresh int16 copy of an outside array of codes of field, after
    checking that its entries are integers in 0..q-1: the cast alone would
    truncate 1.5 to 1 and wrap large entries."""
    if raw.size and raw.dtype.kind not in "biu":
        raise ValueError("entries must be integer field codes")
    if raw.size and (raw.min() < 0 or raw.max() >= field.order):
        raise ValueError("entry out of field range")
    return np.array(raw, dtype=np.int16)


class Matrix:
    __slots__ = ("field", "a")

    def __init__(self, field: FiniteField, data):
        raw = np.asarray(data)
        if raw.ndim != 2:
            raise ValueError("matrix data must be two dimensional")
        a = field_codes(field, raw)
        a.flags.writeable = False
        self.field = field
        self.a = a

    @classmethod
    def _of(cls, field: FiniteField, a: np.ndarray) -> "Matrix":
        """Wrap a 2-d int16 array whose entries are already codes of field:
        a FiniteField.ax_* result, a rearrangement of existing matrices, or
        a view of a read-only array.  No copy and no range scan; the array
        becomes read-only, so the caller must not keep writing to it."""
        a.flags.writeable = False
        M = cls.__new__(cls)
        M.field = field
        M.a = a
        return M

    # ---- constructors ----

    @staticmethod
    def zeros(field: FiniteField, rows: int, cols: int) -> "Matrix":
        return Matrix._of(field, np.zeros((rows, cols), dtype=np.int16))

    @staticmethod
    def identity(field: FiniteField, n: int) -> "Matrix":
        return Matrix._of(field, np.eye(n, dtype=np.int16))

    # ---- shape ----

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    # ---- arithmetic ----

    def _need_same(self, other: "Matrix"):
        if self.field is not other.field and self.field != other.field:
            raise ValueError("field mismatch")

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._need_same(other)
        return Matrix._of(self.field, self.field.ax_sub(self.a, other.a))

    def __neg__(self) -> "Matrix":
        return Matrix._of(self.field, self.field.ax_neg(self.a))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._need_same(other)
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.a.shape} @ {other.a.shape}")
        return Matrix._of(self.field, self.field.ax_matmul(self.a, other.a))

    def transpose(self) -> "Matrix":
        return Matrix._of(self.field, self.a.T.copy())

    # ---- equality and display ----

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.a.shape == other.a.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __hash__(self):
        return hash((self.field.key(), self.a.shape, self.a.tobytes()))

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.a.tolist()})"

    # ---- reduction ----

    def rank(self) -> int:
        return len(_rref(self.field, self.a.copy()))


# The dense systems (equivariance, relative trace, split search, solve's
# augmented matrix) refuse to allocate more int16 cells than this (512 MiB;
# their reductions take about ten bytes a cell).  Higman's trace operator of
# a group of order 120 has 14,400 ** 2 cells and fits; one of order 192
# has 36,864 ** 2.
SYSTEM_CELLS = 1 << 28


def check_cells(what: str, rows: int, cols: int) -> None:
    """Refuse a rows x cols system over SYSTEM_CELLS before it is built."""
    if rows * cols > SYSTEM_CELLS:
        raise ValueError(
            f"{what} needs a {rows} x {cols} matrix, {rows * cols} cells,"
            f" over the budget of {SYSTEM_CELLS}"
        )


def _rref(field: FiniteField, M: np.ndarray) -> list[int]:
    """Bring the caller's writable int16 array M to reduced row echelon
    form in place, and return its pivot columns."""
    rows, cols = M.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        # Rows r onwards are zero left of c, so any row there with a nonzero
        # entry in column c may be the pivot row, since the reduced form is
        # unique: the one with the largest code, nonzero unless all are.
        i = r + int(M[r:, c].argmax())
        pv = int(M[i, c])
        if not pv:
            continue
        if i != r or pv != 1:
            row = field.ax_scale(M[i, c:], field.inv(pv))
            M[i, c:] = M[r, c:]
            M[r, c:] = row
        # Only the other rows with a nonzero factor change, and only in
        # columns c onwards.
        M[r, c] = 0
        hit = M[:, c].nonzero()[0]
        M[r, c] = 1
        if len(hit):
            A = M[hit, c:]
            M[hit, c:] = field.ax_sub_outer(A, A[:, 0], M[r, c:])
        pivots.append(c)
        r += 1
    return pivots


class Subspace:
    """A subspace of F^n held as its unique reduced-echelon row basis."""

    __slots__ = ("field", "ambient_dim", "basis")

    def __init__(self, field: FiniteField, ambient_dim: int, basis: Matrix):
        if basis.cols != ambient_dim:
            raise ValueError("basis width != ambient dimension")
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = basis

    @staticmethod
    def from_rows(field: FiniteField, ambient_dim: int, rows) -> "Subspace":
        """The span of rows: a Matrix over field, or row sequences that are
        range-checked, each ambient_dim long."""
        if isinstance(rows, Matrix):
            _common_field(field, [rows])
        else:
            rows = list(rows)
            if not rows:
                return Subspace.zero(field, ambient_dim)
            rows = Matrix(field, rows)
        if rows.cols != ambient_dim:
            raise ValueError("row width != ambient dimension")
        R = rows.a.copy()
        piv = _rref(field, R)
        return Subspace(field, ambient_dim, Matrix._of(field, R[: len(piv)]))

    @staticmethod
    def full(field: FiniteField, n: int) -> "Subspace":
        return Subspace(field, n, Matrix.identity(field, n))

    @staticmethod
    def zero(field: FiniteField, n: int) -> "Subspace":
        return Subspace(field, n, Matrix.zeros(field, 0, n))

    @property
    def dim(self) -> int:
        return self.basis.rows

    @property
    def pivots(self) -> list[int]:
        """The leading column of each basis row."""
        if not self.dim:
            return []
        return (self.basis.a != 0).argmax(axis=1).tolist()

    def reduce(self, rows) -> np.ndarray:
        """Remainders of the rows of a (k, n) code array, range-checked,
        after eliminating against the echelon basis B.  B is the identity on
        its pivot columns, so this is one product: rows - rows[:, pivots] @ B."""
        f = self.field
        v = Matrix(f, rows).a
        if v.shape[1] != self.ambient_dim:
            raise ValueError("vector length mismatch")
        return f.ax_sub(v, f.ax_matmul(v[:, self.pivots], self.basis.a))

    def contains_space(self, other: "Subspace") -> bool:
        _common_field(self.field, [other.basis])  # reduce checks the width
        return not self.reduce(other.basis.a).any()

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field.key(), self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def row_reduce(M: Matrix) -> Subspace:
    """The right kernel of M, from one reduction of M with its columns
    reversed.  There the kernel vector of a free column f is 1 at f and
    nonzero elsewhere only at pivot columns left of f.  Back in the
    original order it leads at f with a 1, where every other kernel vector
    is zero, so these vectors, ordered by leading column, are the kernel's
    reduced echelon basis."""
    f, n = M.field, M.cols
    R = M.a[:, ::-1].copy()
    piv = _rref(f, R)
    is_piv = np.zeros(n, dtype=bool)
    is_piv[piv] = True
    # one vector per free column, minus the pivot rows' entries there
    free = (~is_piv).nonzero()[0]
    krows = np.zeros((len(free), n), dtype=np.int16)
    if len(free):
        krows[np.arange(len(free)), free] = 1
        krows[:, is_piv] = f.ax_neg(R[: len(piv), free].T)
    return Subspace(f, n, Matrix._of(f, krows[::-1, ::-1].copy()))


def column_space(M: Matrix) -> Subspace:
    """The span of the columns of M: one reduction of the transpose."""
    return Subspace.from_rows(M.field, M.rows, M.transpose())


def solve(A: Matrix, B: Matrix) -> Matrix | None:
    """The canonical X with A @ X = B (free variables zero), or None."""
    if A.field != B.field:
        raise ValueError("field mismatch")
    if A.rows != B.rows:
        raise ValueError("row count mismatch")
    f, n = A.field, A.cols
    check_cells("solve", A.rows, n + B.cols)
    R = np.concatenate([A.a, B.a], axis=1)
    piv = _rref(f, R)
    if piv and piv[-1] >= n:
        return None  # a pivot landed in the augmented block: inconsistent
    X = np.zeros((n, B.cols), dtype=np.int16)
    X[piv] = R[: len(piv), n:]
    return Matrix._of(f, X)


def _common_field(field: FiniteField, mats: Sequence[Matrix]) -> None:
    if any(m.field is not field and m.field != field for m in mats):
        raise ValueError("field mismatch")


def hstack(mats: Sequence[Matrix]) -> Matrix:
    f = mats[0].field
    _common_field(f, mats)
    return Matrix._of(f, np.concatenate([m.a for m in mats], axis=1))


def vstack(mats: Sequence[Matrix]) -> Matrix:
    f = mats[0].field
    _common_field(f, mats)
    return Matrix._of(f, np.concatenate([m.a for m in mats]))

