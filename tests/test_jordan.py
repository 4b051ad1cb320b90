import pytest

from modplab.catalog import catalog_groups, cyclic_group, klein_group
from modplab.groups import FinGroup
from modplab.fields import FiniteField
from modplab.linalg import Matrix
from modplab.jordan import (
    cyclic_generator,
    jordan_block_rep,
    jordan_type,
    stable_jordan_type,
    unipotent_block,
)
from modplab.reps import direct_sum, regular_rep, trivial_rep

F2 = FiniteField(2)
F3 = FiniteField(3)
F9 = FiniteField(3, 2)


def test_unipotent_block_shape():
    assert unipotent_block(F3, 3).a.tolist() == [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
    assert unipotent_block(F2, 1) == Matrix.identity(F2, 1)


def test_jordan_block_rep_valid():
    C9 = cyclic_group(9)
    for size in (1, 4, 9):
        V = jordan_block_rep(C9, F3, size)
        assert V.dim == size
        assert jordan_type(V) == (size,)
    with pytest.raises(ValueError):
        jordan_block_rep(cyclic_group(3), F3, 4)  # block larger than the group order
    with pytest.raises(ValueError):
        jordan_block_rep(cyclic_group(3), F2, 2)  # characteristic mismatch


def test_jordan_type_frozen():
    assert jordan_type(regular_rep(cyclic_group(2), F2)) == (2,)
    assert jordan_type(regular_rep(cyclic_group(3), F3)) == (3,)
    assert jordan_type(regular_rep(cyclic_group(9), F3)) == (9,)
    assert jordan_type(trivial_rep(cyclic_group(2), F2, 3)) == (1, 1, 1)
    C3 = cyclic_group(3)
    s = direct_sum([jordan_block_rep(C3, F3, 1), jordan_block_rep(C3, F3, 2)])
    assert jordan_type(s) == (2, 1)  # sorted descending


def test_jordan_type_works_over_extension_field():
    C3 = cyclic_group(3)
    assert jordan_type(regular_rep(C3, F9)) == (3,)


def test_jordan_type_rejections():
    with pytest.raises(ValueError):
        jordan_type(trivial_rep(klein_group(), F2))  # not cyclic
    with pytest.raises(ValueError):
        jordan_type(trivial_rep(cyclic_group(2), F3))  # order not a p-power
    with pytest.raises(ValueError):
        jordan_type(trivial_rep(cyclic_group(6), F3))


def test_jordan_type_counts_dimension():
    C9 = cyclic_group(9)
    V = direct_sum([jordan_block_rep(C9, F3, s) for s in (5, 3, 3, 1)])
    t = jordan_type(V)
    assert t == (5, 3, 3, 1)
    assert sum(t) == V.dim


def test_stable_jordan_type_strips_free_blocks():
    C3 = cyclic_group(3)
    assert stable_jordan_type(regular_rep(C3, F3)) == ()
    assert stable_jordan_type(jordan_block_rep(C3, F3, 2)) == (2,)
    mixed = direct_sum(
        [jordan_block_rep(C3, F3, 3), jordan_block_rep(C3, F3, 2), jordan_block_rep(C3, F3, 3)]
    )
    assert stable_jordan_type(mixed) == (2,)


def _brute_cyclic_generator(G, p):
    """Powers of each element by table lookups, in index order."""
    n = G.order
    while n % p == 0:
        n //= p
    if n != 1:
        return None
    for g in range(G.order):
        x, order = g, 1
        while x != G.identity:
            x, order = int(G.table[x, g]), order + 1
        if order == G.order:
            return g
    return None


GROUPS = {**catalog_groups(), "E": FinGroup([[0]])}


@pytest.mark.parametrize("name", sorted(GROUPS))
@pytest.mark.parametrize("p", [2, 3, 5])
def test_cyclic_generator_matches_brute_force(name, p):
    G = GROUPS[name]
    assert cyclic_generator(G, p) == _brute_cyclic_generator(G, p)


def test_cyclic_generator_on_the_edge_cases():
    G = GROUPS
    assert [cyclic_generator(G["E"], p) for p in (2, 3, 5)] == [0, 0, 0]
    assert cyclic_generator(G["V4"], 2) is None and cyclic_generator(G["Q8"], 2) is None
    assert cyclic_generator(G["C9"], 3) == 1 and cyclic_generator(G["C9"], 2) is None
