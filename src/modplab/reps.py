"""Finite-dimensional representations of table groups, and the functors
between them: restriction, induction from a subgroup (which at finite index
is simultaneously the left and right adjoint of restriction), equivariant
hom spaces, fixed points, and multiplicative characters of abelian
subgroups.

A Rep's action is a read-only (|G|, d, d) int16 tensor ``T``, slice T[g]
the matrix of element g, and ``on(elements)`` gives the read-only stack
of the action at a few elements; most readers want only the generators'.
A Rep built from a tensor stores it.  induce and direct_sum return
modules that keep the data that define them instead: the subgroup's coset
action with the induced-from module, or the summands.  They gather on()
from that data, keep what they gather below twice T's size, apply their
action to vectors (orbit, lower_lift) from the same data, and build T,
by the same gather over every element, only when a caller reads it or
asks for more than they keep.  Two
Reps are equal when group, field and the generators' matrices agree,
which determine the action, so neither equality nor hashing builds T.
The homomorphism property is verified when a Rep wraps a tensor: the
identity must map to the identity matrix and action(g*h) = action(g) @
action(h) is checked for every generator g against every h, which by
induction on word length forces the property for all pairs.  induce
skips that dense check: groups.coset_action proves the same two things
once per subgroup, on the integer data induce gathers its blocks from.
hom_space, fixed_points and the character eigenspaces of covers are all
one memoised kernel, equivariant_kernel; the split searches and the trace
test of exact are one memoised affine solve, _equivariant_solve: X
commutes with two stacks and the sum of left[r] X right[r] is the
identity, a one-term sum for a split search.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

import numpy as np

from .fields import FiniteField, p_part
from .groups import FinGroup, Subgroup, coset_action, coset_lookup
from .linalg import Matrix, Subspace, check_cells, column_space, field_codes, row_reduce, solve, vstack
from .memo import ENTRY_OVERHEAD, Memo

__all__ = [
    "Rep",
    "RepMap",
    "ShortExactSeq",
    "Character",
    "trivial_rep",
    "regular_rep",
    "character_rep",
    "rep_from_generators",
    "direct_sum",
    "restrict",
    "induce",
    "coset_stack",
    "own_block",
    "unit_matrix",
    "counit_matrix",
    "lower_lift",
    "upper_lift",
    "lower_drop",
    "upper_drop",
    "equivariance_system",
    "equivariant_kernel",
    "intertwines",
    "hom_space",
    "fixed_points",
    "cyclic_span",
    "group_characters",
    "characters_of",
]

# induce refuses to allocate an action tensor of more int16 cells than this
# (256 MiB); the regular rep of a group of order 64, induced back up from
# the trivial subgroup, would need 2**30
INDUCE_CELLS = 1 << 27


class Rep:
    __slots__ = ("group", "field", "dim", "T", "_hash")

    def __init__(self, group: FinGroup, field: FiniteField, T):
        """Wrap outside data: a (|G|, d, d) array of field codes whose slice
        T[g] is the matrix of element g.  It is copied, checked to be an
        action of the group, and made read-only."""
        a = np.asarray(T)
        if a.ndim != 3 or a.shape[0] != group.order or a.shape[1] != a.shape[2]:
            raise ValueError("need one square matrix per group element")
        self._set(group, field, field_codes(field, a))
        self._validate()

    @classmethod
    def _of(cls, group: FinGroup, field: FiniteField, T: np.ndarray) -> "Rep":
        """Wrap a fresh (|G|, d, d) int16 tensor of field codes, such as a
        kernel result; it becomes read-only.  The caller proves that it is
        an action, or calls _validate."""
        V = cls.__new__(cls)
        V._set(group, field, T)
        return V

    def _set(self, group: FinGroup, field: FiniteField, T: np.ndarray):
        T.flags.writeable = False
        self.group = group
        self.field = field
        self.dim = T.shape[1]
        self.T = T
        self._hash = None

    def _validate(self):
        G, T = self.group, self.T
        if not np.array_equal(T[G.identity], np.eye(self.dim, dtype=np.int16)):
            raise ValueError("identity does not act as the identity matrix")
        gens = list(G.generators())
        # every generator against every element, in one batched product
        products = self.field.ax_matmul_batch(T[gens][:, None], T[None])
        if not np.array_equal(products, T[G.table[gens]]):
            raise ValueError("action is not a homomorphism")

    def on(self, elements: Sequence[int]) -> np.ndarray:
        """The read-only (k, d, d) stack of the action at the k listed
        elements, in order."""
        stack = self.T.take(elements, axis=0)
        stack.flags.writeable = False
        return stack

    # on() for an index array, a stack that no module keeps
    _take = on

    def _apply(self, at: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The (k, d, m) stack of the matrices of the k elements of the
        index array at, each times the (d, m) int16 array cols."""
        return self.field.ax_matmul_batch(self._take(at), cols)

    def orbit(self, vec: Sequence[int]) -> np.ndarray:
        """The (|G|, d) array whose row g is the image of vec under g; vec
        must be d field codes."""
        raw = np.asarray(vec)
        if raw.shape != (self.dim,):
            raise ValueError("vector length differs from the representation dimension")
        col = field_codes(self.field, raw).reshape(-1, 1)
        return self._apply(np.arange(self.group.order), col)[:, :, 0]

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Rep) or self.group != other.group or self.field != other.field:
            return False
        gens = self.group.generators()
        return bool(np.array_equal(self.on(gens), other.on(gens)))

    def __hash__(self):
        if self._hash is None:
            stack = self.on(self.group.generators())
            self._hash = hash((self.group, self.field.key(), stack.shape, stack.tobytes()))
        return self._hash

    def __repr__(self):
        return f"Rep(dim={self.dim}, group_order={self.group.order}, field={self.field!r})"


class _Deferred(Rep):
    """A module kept as the data that define it: _gather(at) builds the
    (k, d, d) stack of the action at the k elements of the index array at,
    and _apply works from the same data without building that stack.
    on() keeps the stacks it gathers, keyed by the element list, while
    they hold fewer than 2 |G| matrices together: room for the generators
    and for what one trace test reads against a subgroup of order 2, its
    coset representatives, their inverses and its members, but not for
    two stacks as long as T.  So a rerun gathers nothing, and a module
    never holds twice the dense one it stands for.  T is the gather over
    every element, built on its first read or when a gather would reach
    that bound; it replaces the kept stacks, and later stacks are taken
    from it."""

    __slots__ = ("_stacks", "_kept")

    def _defer(self, group: FinGroup, field: FiniteField, dim: int):
        self.group, self.field, self.dim = group, field, dim
        self._hash, self._stacks, self._kept = None, {}, 0

    def on(self, elements: Sequence[int]) -> np.ndarray:
        at = np.asarray(elements, dtype=np.intp)
        if self._stacks is None:  # T is built
            return self._take(at)
        key = at.tobytes()
        stack = self._stacks.get(key)
        if stack is None:
            if self._kept + len(at) >= 2 * self.group.order:
                return Rep._take(self, at)  # reads T, so builds it
            stack = self._stacks[key] = self._take(at)
            self._kept += len(at)
        return stack

    def _take(self, at: np.ndarray) -> np.ndarray:
        if self._stacks is None:
            return super()._take(at)
        stack = self._gather(at)
        stack.flags.writeable = False
        return stack

    def __getattr__(self, name):
        # reached only for an unset slot, and T is the one left unset
        if name != "T":
            raise AttributeError(name)
        T = self._gather(np.arange(self.group.order))
        T.flags.writeable = False
        self.T, self._stacks = T, None
        return T


class _Induced(_Deferred):
    """induce(U, W): functions on the right cosets of U valued in W, kept
    as U, whose coset_action is already checked, and W.  g sends block i
    to block j[g, i], acting there by W at u[g, i], for (j, u) =
    coset_action(U); coset_action has checked that (j, u) compose as G
    does, which makes these block matrices an action for any
    representation W of U."""

    __slots__ = ("_sub", "_inner")

    def __init__(self, U: Subgroup, W: Rep):
        self._defer(U.parent, W.field, U.index * W.dim)
        self._sub, self._inner = U, W

    def _blocks(self, at: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """j[at], where each element sends each block, and the (k, n, dW,
        dW) stack of W at u[at], how it acts there."""
        U = self._sub
        j, u = coset_action(U)
        k, n, dW = len(at), j.shape[1], self._inner.dim
        return j[at], self._inner._take(U.local_index[u[at]].reshape(-1)).reshape(k, n, dW, dW)

    def _gather(self, at: np.ndarray) -> np.ndarray:
        to, blocks = self._blocks(at)
        k, n, dW = blocks.shape[:3]
        out = np.zeros((k, n, dW, n, dW), dtype=np.int16)
        out[np.arange(k)[:, None], to, :, np.arange(n)[None, :], :] = blocks
        return out.reshape(k, n * dW, n * dW)

    def _apply(self, at: np.ndarray, cols: np.ndarray) -> np.ndarray:
        to, blocks = self._blocks(at)
        (k, n, dW), m = blocks.shape[:3], cols.shape[1]
        # block i of the columns, moved by W at u[g, i] into block j[g, i]
        moved = self.field.ax_matmul_batch(blocks, cols.reshape(n, dW, m))
        out = np.zeros(moved.shape, dtype=np.int16)
        out[np.arange(k)[:, None], to] = moved
        return out.reshape(k, n * dW, m)


class _Sum(_Deferred):
    """direct_sum(reps), kept as its block-diagonal summands."""

    __slots__ = ("_parts",)

    def __init__(self, reps: Sequence[Rep]):
        self._defer(reps[0].group, reps[0].field, sum(V.dim for V in reps))
        self._parts = tuple(reps)

    def _gather(self, at: np.ndarray) -> np.ndarray:
        out = np.zeros((len(at), self.dim, self.dim), dtype=np.int16)
        o = 0
        for V in self._parts:
            out[:, o : o + V.dim, o : o + V.dim] = V._take(at)
            o += V.dim
        return out

    def _apply(self, at: np.ndarray, cols: np.ndarray) -> np.ndarray:
        out, o = [], 0
        for V in self._parts:
            out.append(V._apply(at, cols[o : o + V.dim]))
            o += V.dim
        return np.concatenate(out, axis=1)


class RepMap:
    """An equivariant linear map between two reps of the same group."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: Rep, target: Rep, matrix: Matrix, validate: bool = True):
        if source.group != target.group or source.field != target.field:
            raise ValueError("source/target live over different groups or fields")
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise ValueError("matrix shape does not match source/target dims")
        self.source = source
        self.target = target
        self.matrix = matrix
        if validate and not intertwines(source, target, matrix.a):
            raise ValueError("map is not equivariant")

    def __matmul__(self, other: "RepMap") -> "RepMap":
        if other.target != self.source:
            raise ValueError("maps are not composable")
        return RepMap(other.source, self.target, self.matrix @ other.matrix, validate=False)

    def rank(self) -> int:
        return self.matrix.rank()

    def is_injective(self) -> bool:
        return self.rank() == self.source.dim

    def is_surjective(self) -> bool:
        return self.rank() == self.target.dim

    def image(self) -> Subspace:
        return column_space(self.matrix)

    def __eq__(self, other):
        return (
            isinstance(other, RepMap)
            and self.source == other.source
            and self.target == other.target
            and self.matrix == other.matrix
        )

    def __repr__(self):
        return f"RepMap({self.source.dim} -> {self.target.dim})"


class ShortExactSeq:
    """0 -> V' -> V -> V'' -> 0, validated: monic, epic, image = kernel."""

    __slots__ = ("left", "right")

    def __init__(self, left: RepMap, right: RepMap):
        if left.target != right.source:
            raise ValueError("middle objects differ")
        if not left.is_injective():
            raise ValueError("left map is not injective")
        if not right.is_surjective():
            raise ValueError("right map is not surjective")
        if left.source.dim + right.target.dim != left.target.dim:
            raise ValueError("dimension count fails")
        # once the dimensions add up, the image of the monic left map has
        # the dimension of the kernel of the epic right map, so it is that
        # kernel exactly when it lies inside it: when the composite is zero
        if (right.matrix @ left.matrix).a.any():
            raise ValueError("image of left map differs from kernel of right map")
        self.left = left
        self.right = right

    def __repr__(self):
        return (
            f"ShortExactSeq({self.left.source.dim} -> {self.left.target.dim}"
            f" -> {self.right.target.dim})"
        )


# ---------------------------------------------------------------------------
# builders


def trivial_rep(G: FinGroup, field: FiniteField, dim: int = 1) -> Rep:
    T = np.repeat(np.eye(dim, dtype=np.int16)[None], G.order, axis=0)
    return Rep._of(G, field, T)


def regular_rep(G: FinGroup, field: FiniteField) -> Rep:
    """Left translation on the group algebra: g sends basis vector h to gh."""
    n = G.order
    T = np.zeros((n, n, n), dtype=np.int16)
    T[np.arange(n)[:, None], G.table, np.arange(n)[None, :]] = 1
    return Rep._of(G, field, T)


def character_rep(G: FinGroup, field: FiniteField, values: Sequence[int]) -> Rep:
    return Rep(G, field, np.array(values).reshape(-1, 1, 1))


def rep_from_generators(
    G: FinGroup, field: FiniteField, images: Mapping[int, Matrix]
) -> Rep:
    """Extend generator images along the group, failing on inconsistency.

    The action is filled along one breadth-first spanning tree from the
    identity; it then has to agree with every given image and pass the
    homomorphism check of ``Rep``, which together hold exactly when the
    images extend to a representation.
    """
    keys = list(images)
    if not keys:
        raise ValueError("no generator images given")
    dim = images[keys[0]].rows
    for M in images.values():
        if M.field != field or M.rows != dim or M.cols != dim:
            raise ValueError("generator images must share one square shape and field")
    A = np.array([images[g].a for g in keys], dtype=np.int16)
    keys = [G._element(g) for g in keys]
    T = np.zeros((G.order, dim, dim), dtype=np.int16)
    T[G.identity] = np.eye(dim, dtype=np.int16)
    reached = np.zeros(G.order, dtype=bool)
    reached[G.identity] = True
    frontier = [G.identity]
    while frontier:
        # one level of the tree, in one batched product: T[y] = A[k] T[x]
        # for the first pair (x, key k) whose product g_k x reaches y
        ys, ks, xs = [], [], []
        for x in frontier:
            for k, g in enumerate(keys):
                y = int(G.table[g, x])
                if not reached[y]:
                    reached[y] = True
                    ys.append(y)
                    ks.append(k)
                    xs.append(x)
        T[ys] = field.ax_matmul_batch(A[ks], T[xs])
        frontier = ys
    if not reached.all():
        raise ValueError("images do not generate the group")
    if not np.array_equal(T[keys], A):
        raise ValueError("generator images are inconsistent")
    V = Rep._of(G, field, T)
    V._validate()
    return V


def direct_sum(reps: Sequence[Rep]) -> Rep:
    if not reps:
        raise ValueError("no summands given")
    G, field = reps[0].group, reps[0].field
    if any(V.group != G or V.field != field for V in reps):
        raise ValueError("reps live over different groups or fields")
    return _Sum(reps)


# ---------------------------------------------------------------------------
# functors


def restrict(V: Rep, U: Subgroup) -> Rep:
    """V as a representation of U.as_group()."""
    if U.parent != V.group:
        raise ValueError("subgroup of a different group")
    return Rep._of(U.as_group(), V.field, V.on(U.members))


def induce(U: Subgroup, W: Rep) -> Rep:
    """Functions f on the coset space U\\G with f(ux) = u f(x), valued in W;
    the group acts by right translation.

    The basis is (coset block, W basis vector), blocks ordered by the
    minimal-index coset representatives.  At finite index this single
    functor is both adjoints of restriction.  The module keeps U and W
    and gathers its action from coset_action(U); the dense tensor that a
    reader of its T would build must fit INDUCE_CELLS.
    """
    G = U.parent
    if W.group != U.as_group():
        raise ValueError("W must be a representation of U.as_group()")
    d = G.order // U.order * W.dim
    if G.order * d * d > INDUCE_CELLS:
        raise ValueError(
            f"induce needs a {G.order} x {d} x {d} action tensor, {G.order * d * d} cells,"
            f" over the budget of {INDUCE_CELLS}"
        )
    coset_action(U)  # checks the coset data now, not at the first gather
    return _Induced(U, W)


# Every map written in induce's block layout: block i for the coset of the
# i-th coset_lookup representative r_i.  The unit is the column of blocks
# rho(r_i) and the counit the row of blocks rho(r_i^-1); Frobenius
# reciprocity moves (k, rows, cols) stacks of maps across the adjunction
# with the same stacks.  A lifted stack is equivariant exactly when the
# stack it came from is; no map here checks that.


def _coset_elements(U: Subgroup, V: Rep, inverse: bool = False) -> np.ndarray:
    """The representatives r_i, or their inverses when inverse is set, in
    block order, for a representation V of U's parent."""
    if V.group != U.parent:
        raise ValueError("V must be a representation of U's parent group")
    reps = coset_lookup(U.parent, U)[0]
    return U.parent.inverse[reps] if inverse else reps


def coset_stack(U: Subgroup, V: Rep, inverse: bool = False) -> np.ndarray:
    """The (index, d, d) stack of rho_V(r_i), or of rho_V(r_i^-1) when
    inverse is set, in block order."""
    return V.on(_coset_elements(U, V, inverse))


def own_block(U: Subgroup, d: int) -> np.ndarray:
    """Whether each coordinate of Ind W, for a W of dimension d, lies in the
    block of U's own coset, pos[identity].  That coset's representative r0
    is the least member of U, element 0 of U.as_group()."""
    G = U.parent
    return np.arange(U.index * d) // d == coset_lookup(G, U)[1][G.identity]


def unit_matrix(U: Subgroup, X: Rep) -> Matrix:
    """x goes to g |-> gx: the column of blocks rho_X(r_i)."""
    stack = coset_stack(U, X)
    return Matrix._of(X.field, stack.reshape(len(stack) * X.dim, X.dim))


def counit_matrix(U: Subgroup, X: Rep) -> Matrix:
    """f goes to the sum of r^-1 f(r) over the representatives r: the row
    of blocks rho_X(r_i^-1)."""
    return _block_row(X.field, coset_stack(U, X, inverse=True))


def _block_row(field: FiniteField, stack: np.ndarray) -> Matrix:
    """The (d, n d) row of the blocks of an (n, d, d) stack."""
    n, d = len(stack), stack.shape[1]
    return Matrix._of(field, stack.transpose(1, 0, 2).reshape(d, n * d))


def lower_lift(U: Subgroup, V: Rep, X: np.ndarray) -> np.ndarray:
    """U-maps W -> Res V to G-maps Ind W -> V: block column i is
    rho_V(r_i^-1) X, from the k dW columns of all X at once."""
    at = _coset_elements(U, V, inverse=True)
    k, dV, dW = X.shape
    moved = V._apply(at, X.transpose(1, 0, 2).reshape(dV, k * dW))
    return moved.reshape(len(at), dV, k, dW).transpose(2, 1, 0, 3).reshape(k, dV, len(at) * dW)


def upper_lift(U: Subgroup, V: Rep, X: np.ndarray) -> np.ndarray:
    """U-maps Res V -> W to G-maps V -> Ind W: block row i is
    X rho_V(r_i)."""
    return _lift_rows(V.field, X, coset_stack(U, V))


def _lift_rows(field: FiniteField, X: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """upper_lift for the stack of rho_V(r_i): block row i is X stack[i]."""
    k, dW, dV = X.shape
    return field.ax_matmul_batch(X[:, None], stack).reshape(k, len(stack) * dW, dV)


def lower_drop(U: Subgroup, W: Rep, F: np.ndarray) -> np.ndarray:
    """The inverse of lower_lift: F[:, :, own block] rho_W(r0)."""
    if W.group != U.as_group():
        raise ValueError("W must be a representation of U.as_group()")
    return W.field.ax_matmul_batch(F[:, :, own_block(U, W.dim)], W.on([0])[0])


def upper_drop(U: Subgroup, W: Rep, F: np.ndarray) -> np.ndarray:
    """The inverse of upper_lift: rho_W(r0^-1) F[:, own block]."""
    if W.group != U.as_group():
        raise ValueError("W must be a representation of U.as_group()")
    return W.field.ax_matmul_batch(W.on([W.group.inv(0)])[0], F[:, own_block(U, W.dim)])


def equivariance_system(field: FiniteField, T1: np.ndarray, T2: np.ndarray) -> Matrix:
    """Stacked rows of X |-> X @ rho1(g) - rho2(g) @ X for each matrix pair
    (rho1(g), rho2(g)) of the (s, d1, d1) and (s, d2, d2) stacks T1, T2, on
    d2 x d1 matrices X flattened row major: the blocks
    I (x) rho1(g)^T - rho2(g) (x) I, built without Kronecker products."""
    s, d1, d2 = T1.shape[0], T1.shape[1], T2.shape[1]
    check_cells("equivariance_system", s * d2 * d1, d2 * d1)
    out = np.zeros((s, d2, d1, d2, d1), dtype=np.int16)
    a1, a2 = np.arange(d1), np.arange(d2)
    # entry ((a, c), (a, b)) of I (x) rho1^T is rho1[b, c] ...
    out[:, a2, :, a2, :] = T1.transpose(0, 2, 1)
    # ... and rho2[a, e] is subtracted at ((a, c), (e, c))
    out[:, :, a1, :, a1] = field.ax_sub(out[:, :, a1, :, a1], T2)
    return Matrix._of(field, out.reshape(s * d2 * d1, d2 * d1))


def _trace_operator(field: FiniteField, left: np.ndarray, right: np.ndarray) -> Matrix:
    """Matrix of X |-> sum over r of left[r] X right[r], for the (n, a, b)
    stack left and the (n, c, e) stack right, on b x c matrices X
    flattened row major: (a e) x (b c), entry ((i, j), (k, l)) the sum
    over r of left[r][i, k] right[r][l, j].  The relative trace and the
    one-sided inverses of a map are all of this form."""
    n, a, b = left.shape
    c, e = right.shape[1:]
    # the sum over r of left[r] (x) right[r]^T as one product
    rows = left.reshape(n, a * b)  # row r: (i, k)
    cols = right.transpose(0, 2, 1).reshape(n, e * c)  # row r: (j, l)
    op = field.ax_matmul(rows.T, cols).reshape(a, b, e, c).transpose(0, 2, 1, 3)
    return Matrix._of(field, op.reshape(a * e, b * c))


# The memo of equivariant_kernel and _equivariant_solve.  A kernel entry is
# (field key, both stack shapes, both stacks' int16 bytes) -> the kernel,
# and counts both stacks' cells, its basis cells and memo.ENTRY_OVERHEAD.
# A solve entry is ("solve", field key, then the shape and int16 bytes of
# T_in, T_out, left and right) -> (the solution or None,), and counts the
# four stacks' and the solution's cells and memo.ENTRY_OVERHEAD: the
# constraint they build, d**4 cells for a relative trace, is neither kept
# nor counted.  A kernel key begins with a field key, a tuple, so it never
# equals a solve key.
KERNEL_MEMO_CELLS = 1 << 22
_KERNEL_MEMO = Memo(KERNEL_MEMO_CELLS)


def equivariant_kernel(field: FiniteField, T1: np.ndarray, T2: np.ndarray) -> Subspace:
    """The d2 x d1 matrices X with X @ T1[i] == T2[i] @ X for every i, as
    row-major flattened vectors in canonical form: the kernel of
    equivariance_system(field, T1, T2) for two int16 stacks.  It is
    memoised on the field and both stacks; a repeat call returns the same
    Subspace, whose basis is read-only.  With no pair of matrices, or no
    entry in X, every X qualifies, and nothing is stored."""
    if not len(T1) or not T1.shape[1] * T2.shape[1]:
        return Subspace.full(field, T1.shape[1] * T2.shape[1])
    key = (field.key(), T1.shape, T2.shape, T1.tobytes(), T2.tobytes())
    space = _KERNEL_MEMO.get(key)
    if space is None:
        space = row_reduce(equivariance_system(field, T1, T2))
        _KERNEL_MEMO.put(key, space, T1.size + T2.size + space.basis.a.size + ENTRY_OVERHEAD)
    return space


def _equivariant_solve(
    field: FiniteField, T_in: np.ndarray, T_out: np.ndarray, left: np.ndarray, right: np.ndarray
) -> Matrix | None:
    """The canonical X with X T_in[i] == T_out[i] X for every i, for the
    int16 stacks T_in (s, d_in, d_in) and T_out (s, d_out, d_out), and
    sum over r of left[r] X right[r] == I_d, d = left.shape[1]; None if
    there is none.  The answer is memoised on the field and the four
    stacks, None included, and the trace operator is built only on a
    miss; a repeat call returns the same read-only Matrix."""
    stacks = (T_in, T_out, left, right)
    cells = sum(a.size for a in stacks) + ENTRY_OVERHEAD
    # the key copies every input, so it is built only when the memo could
    # store the entry
    key = None
    if cells <= _KERNEL_MEMO.budget:
        key = ("solve", field.key()) + tuple(part for a in stacks for part in (a.shape, a.tobytes()))
        known = _KERNEL_MEMO.get(key)
        if known is not None:
            return known[0]
    d = left.shape[1]
    equi = equivariance_system(field, T_in, T_out)
    rhs = np.zeros((equi.rows + d * d, 1), dtype=np.int16)
    rhs[equi.rows :, 0] = np.eye(d, dtype=np.int16).reshape(-1)
    x = solve(vstack([equi, _trace_operator(field, left, right)]), Matrix._of(field, rhs))
    if x is not None:
        x = Matrix._of(field, x.a.reshape(T_out.shape[1], T_in.shape[1]))
    if key is not None:
        _KERNEL_MEMO.put(key, (x,), cells + (0 if x is None else x.a.size))
    return x


def intertwines(S: Rep, T: Rep, X: np.ndarray, U: Subgroup | None = None) -> bool:
    """Whether every map in the (..., dT, dS) stack X is equivariant from S
    to T, or U-equivariant for a subgroup U of their group: X @ rho_S(g) ==
    rho_T(g) @ X for each generator g of either, in two batched products."""
    if U is not None and U.parent != S.group:
        raise ValueError("subgroup of a different group")
    gens = S.group.generators() if U is None else U.generators()
    if not gens:
        return True
    f, X = S.field, X[..., None, :, :]
    return bool(np.array_equal(f.ax_matmul_batch(X, S.on(gens)), f.ax_matmul_batch(T.on(gens), X)))


def hom_space(V1: Rep, V2: Rep) -> Subspace:
    """Equivariant maps V1 -> V2 as row-major flattened d2 x d1 matrices,
    canonicalized by reduced echelon form."""
    if V1.group != V2.group or V1.field != V2.field:
        raise ValueError("reps live over different groups or fields")
    gens = V1.group.generators()
    return equivariant_kernel(V1.field, V1.on(gens), V2.on(gens))


def fixed_points(V: Rep) -> Subspace:
    """The subspace of vectors fixed by every element of the group: the
    maps from the trivial module."""
    gens = V.group.generators()
    return equivariant_kernel(V.field, np.ones((len(gens), 1, 1), dtype=np.int16), V.on(gens))


def cyclic_span(V: Rep, v: Sequence[int]) -> Subspace:
    return Subspace.from_rows(V.field, V.dim, Matrix._of(V.field, V.orbit(v)))


# ---------------------------------------------------------------------------
# characters of abelian (sub)groups


class Character:
    """A multiplicative map from an abelian subgroup into the field units.

    values[i] is the value on C.members[i].  In characteristic p any
    p-power-order element is forced to 1; that is revalidated here.
    """

    __slots__ = ("domain", "field", "values")

    def __init__(self, domain: Subgroup, field: FiniteField, values: Sequence[int]):
        C = domain.as_group()
        if not C.is_abelian():
            raise ValueError("character domain must be abelian")
        vals = tuple(int(v) for v in values)
        if len(vals) != domain.order:
            raise ValueError("need one value per member")
        if any(not 0 < v < field.order for v in vals):
            raise ValueError("character values must be codes of nonzero field elements")
        a = np.array(vals, dtype=np.int64)
        if not np.array_equal(field.ax_mul(a[:, None], a[None, :]), a[C.table]):
            raise ValueError("values are not multiplicative")
        for i in range(domain.order):
            if p_part(C.element_order(i), field.p)[1] == 1 and vals[i] != 1:
                raise ValueError("nontrivial value on a p-power-order element")
        self.domain = domain
        self.field = field
        self.values = vals

    def value(self, member: int) -> int:
        """Value on a parent-group element index; KeyError outside the domain."""
        return self.values[self.domain.local(member)]

    def is_trivial(self) -> bool:
        return all(v == 1 for v in self.values)

    def __eq__(self, other):
        return (
            isinstance(other, Character)
            and self.domain == other.domain
            and self.field == other.field
            and self.values == other.values
        )

    def __repr__(self):
        return f"Character({self.values})"


def group_characters(G: FinGroup, field: FiniteField) -> list[tuple[int, ...]]:
    """All multiplicative maps G -> field units, as value tuples: each
    choice of units of fitting order on the generators that extends to a
    one-dimensional representation."""
    gens = G.generators()
    if not gens:
        return [(1,) * G.order]
    unit_choices = []
    for g in gens:
        n = G.element_order(g)
        unit_choices.append([u for u in range(1, field.order) if field.pow(u, n) == 1])
    found: list[tuple[int, ...]] = []
    for combo in itertools.product(*unit_choices):
        images = {g: Matrix(field, [[u]]) for g, u in zip(gens, combo)}
        try:
            V = rep_from_generators(G, field, images)
        except ValueError:
            continue
        found.append(tuple(V.T[:, 0, 0].tolist()))
    return found


def characters_of(C: Subgroup, field: FiniteField) -> list[Character]:
    """All characters of an abelian subgroup, trivial one first."""
    out = [Character(C, field, vals) for vals in group_characters(C.as_group(), field)]
    out.sort(key=lambda ch: (not ch.is_trivial(), ch.values))
    return out
