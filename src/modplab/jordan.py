"""Jordan-type classification for cyclic p-groups in characteristic p.

Over such a group every representation is determined up to isomorphism by
the multiset of Jordan block sizes of any full-order generator's action
matrix, read off from the rank profile of powers of (M - I).  This file
deliberately shares no code with the suspension/loop constructions so it
can serve as an independent cross-check on them.
"""

from __future__ import annotations

from .fields import FiniteField, p_part
from .groups import FinGroup
from .linalg import Matrix
from .reps import Rep, rep_from_generators

__all__ = [
    "cyclic_generator",
    "unipotent_block",
    "jordan_block_rep",
    "jordan_type",
    "stable_jordan_type",
]


def unipotent_block(field: FiniteField, size: int) -> Matrix:
    """Single Jordan block with eigenvalue one."""
    a = Matrix.zeros(field, size, size).a.copy()
    for i in range(size):
        a[i, i] = 1
        if i + 1 < size:
            a[i, i + 1] = 1
    return Matrix._of(field, a)


def jordan_block_rep(G: FinGroup, field: FiniteField, size: int) -> Rep:
    """The generator of a cyclic p-group acting by one unipotent block.

    Needs size <= |G| so the block's order divides the group's (in
    characteristic p a unipotent block of size s has order p^ceil(log_p s)).
    """
    gen = _full_order_generator(G, field.p)
    if size < 1 or size > G.order:
        raise ValueError("block size must lie between 1 and the group order")
    return rep_from_generators(G, field, {gen: unipotent_block(field, size)})


def cyclic_generator(G: FinGroup, p: int) -> int | None:
    """The least element of order |G| when |G| is a power of p (so G is a
    cyclic p-group), else None; the trivial group is generated by 0."""
    n = G.order
    if p_part(n, p)[1] != 1:
        return None
    return next((g for g in range(n) if G.element_order(g) == n), None)


def _full_order_generator(G: FinGroup, p: int) -> int:
    if p_part(G.order, p)[1] != 1:
        raise ValueError("group order is not a power of the characteristic")
    gen = cyclic_generator(G, p)
    if gen is None:
        raise ValueError("group is not cyclic")
    return gen


def jordan_type(V: Rep) -> tuple[int, ...]:
    """Block sizes, largest first, of the canonical generator's action."""
    G = V.group
    p = V.field.p
    gen = _full_order_generator(G, p)
    I = Matrix.identity(V.field, V.dim)
    N = Matrix._of(V.field, V.on([gen])[0]) - I
    ranks = [V.dim]
    power = I
    while ranks[-1] > 0:
        power = power @ N
        ranks.append(power.rank())
    blocks = []
    for j in range(1, len(ranks)):
        count_ge_j = ranks[j - 1] - ranks[j]
        blocks.append(count_ge_j)
    out = []
    for size in range(len(blocks), 0, -1):
        exact = blocks[size - 1] - (blocks[size] if size < len(blocks) else 0)
        out.extend([size] * exact)
    return tuple(sorted(out, reverse=True))


def stable_jordan_type(V: Rep) -> tuple[int, ...]:
    """Jordan type with the free blocks (size = group order) removed; two
    representations agree here iff they agree up to free summands."""
    return tuple(s for s in jordan_type(V) if s != V.group.order)
