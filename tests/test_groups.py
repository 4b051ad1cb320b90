import pytest

from modplab.catalog import alt4, cyclic_group, dihedral4, klein_group, quaternion8, sym3
from modplab.groups import (
    FinGroup,
    Subgroup,
    all_subgroups,
    conjugate_intersect,
    coset_lookup,
    group_from_table,
)


def test_table_validation():
    with pytest.raises(ValueError):
        group_from_table([[0, 1], [1, 1]])  # not a latin square
    with pytest.raises(ValueError):
        group_from_table([[0, 1, 2], [1, 2, 0], [2, 1, 0]])  # not associative
    G = group_from_table([[0, 1], [1, 0]], labels=["e", "g"])
    assert G.order == 2 and G.label(1) == "g"


@pytest.mark.parametrize(
    "table",
    [[[0, 1.5], [1, 0]], [[0, 70000], [1, 0]], [[0, 10**30], [1, 0]], [[True, False], [False, True]]],
    ids=["float", "beyond-int16", "huge", "bool"],
)
def test_table_entries_must_be_integers_in_range(table):
    # the int16 cast used to truncate 1.5 to 1 and overflow on large entries
    with pytest.raises(ValueError):
        group_from_table(table)


def test_equal_subgroups_of_equal_groups_hash_equal():
    S3 = sym3()
    twin = group_from_table(S3.table.tolist())
    assert twin is not S3 and twin == S3
    a, b = Subgroup(S3, [0, 1, 2]), Subgroup(twin, [0, 1, 2])
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1


def test_cyclic_group_basics():
    C4 = cyclic_group(4)
    assert C4.order == 4
    assert C4.is_abelian()
    assert [C4.element_order(g) for g in range(4)] == [1, 4, 2, 4]
    assert C4.inv(1) == 3
    assert C4.center_members() == (0, 1, 2, 3)


def test_sym3_structure():
    S3 = sym3()
    assert S3.order == 6
    assert not S3.is_abelian()
    assert [S3.label(i) for i in range(6)] == ["e", "(012)", "(021)", "(01)", "(02)", "(12)"]
    assert S3.center_members() == (0,)
    assert S3.table[S3.table[1, 3], S3.inverse[1]] != 3  # transpositions are not central
    assert S3.mul(1, 1) == 2 and S3.mul(1, 2) == 0


def test_from_elements_and_direct_product():
    pairs = FinGroup.direct_product(cyclic_group(2), cyclic_group(3))
    assert pairs.order == 6
    assert pairs.is_abelian()
    assert sorted(pairs.element_order(g) for g in range(6)) == [1, 2, 3, 3, 6, 6]
    perms = FinGroup.from_elements(
        [(0, 1), (1, 0)], lambda a, b: tuple(a[b[i]] for i in range(2))
    )
    assert perms.order == 2


def test_subgroup_constructor_validates():
    S3 = sym3()
    with pytest.raises(ValueError):
        Subgroup(S3, [0, 1])  # not closed: (012)^2 = (021) missing
    with pytest.raises(ValueError):
        Subgroup(S3, [1, 2])  # missing identity
    U = Subgroup(S3, [0, 3])
    assert U.order == 2 and U.index == 3
    assert U.contains(3) and not U.contains(1)


def test_subgroup_validation_reports_the_first_failing_member():
    # C2 x C3, element 3i + j for (i, j); members are checked in increasing
    # order, each for its inverse before its products
    C6 = FinGroup.direct_product(cyclic_group(2), cyclic_group(3))
    for members, message in [
        ((1, 2), "identity missing"),
        ((0, 1, 3), "not closed under inverse"),  # 1's inverse 2 and 1 * 1 = 2 both missing
        ((0, 3, 4), "not closed under product"),  # 3 * 4 = 1 missing before 4's inverse 5
    ]:
        with pytest.raises(ValueError, match=message):
            Subgroup(C6, members)


def test_subgroup_generate_frozen():
    S3 = sym3()
    assert Subgroup.generate(S3, [1]).members == (0, 1, 2)
    assert Subgroup.generate(S3, [3, 1]).members == (0, 1, 2, 3, 4, 5)
    assert Subgroup.trivial(S3).members == (0,)
    assert Subgroup.full(S3).order == 6


def test_subgroup_as_group_local():
    S3 = sym3()
    U = Subgroup(S3, [0, 1, 2])
    H = U.as_group()
    assert H.order == 3
    assert H.mul(U.local(1), U.local(2)) == U.local(0)
    assert U.generators() and all(U.contains(g) for g in U.generators())


def test_subgroup_lattice_ops():
    S3 = sym3()
    A = Subgroup(S3, [0, 3])
    B = Subgroup(S3, [0, 1, 2])
    assert A.intersect(B).members == (0,)
    assert A.join(B).order == 6
    assert not A.is_central()


def test_all_subgroups_sorted():
    C4 = cyclic_group(4)
    assert [s.members for s in all_subgroups(C4)] == [(0,), (0, 2), (0, 1, 2, 3)]
    S3 = sym3()
    subs = [s.members for s in all_subgroups(S3)]
    assert subs == [(0,), (0, 3), (0, 4), (0, 5), (0, 1, 2), (0, 1, 2, 3, 4, 5)]
    V4 = klein_group()
    assert len(all_subgroups(V4)) == 5  # trivial, three C2s, full


def test_cosets_frozen():
    S3 = sym3()
    U = Subgroup(S3, [0, 3])
    reps, pos = coset_lookup(S3, U)
    assert reps.tolist() == [0, 1, 2]
    assert pos.tolist() == [0, 1, 2, 0, 2, 1]  # element -> position of its coset
    assert not reps.flags.writeable and not pos.flags.writeable
    assert coset_lookup(S3, Subgroup.full(S3))[0].tolist() == [0]
    with pytest.raises(ValueError, match="parent"):
        coset_lookup(alt4(), U)


def test_conjugate_intersect_frozen():
    S3 = sym3()
    H = Subgroup(S3, [0, 3])
    assert conjugate_intersect(H, H, 0).members == (0, 3)
    assert conjugate_intersect(H, H, 1).members == (0,)
    C3 = Subgroup(S3, [0, 1, 2])
    for g in range(6):
        assert conjugate_intersect(C3, C3, g).members == (0, 1, 2)  # normal


def test_named_groups_shape():
    assert quaternion8().order == 8
    assert sum(1 for g in range(8) if quaternion8().element_order(g) == 2) == 1
    assert dihedral4().order == 8 and not dihedral4().is_abelian()
    A4 = alt4()
    assert A4.order == 12
    assert sorted({s.order for s in all_subgroups(A4)}) == [1, 2, 3, 4, 12]  # no order 6


def test_json_roundtrip_equality():
    S3 = sym3()
    assert FinGroup(S3.table) == S3  # labels do not affect equality
    data = S3.to_json()
    assert set(data) == {"order", "table", "labels"}


def test_coset_lookup_is_memoised_per_subgroup():
    A4 = alt4()
    for U in all_subgroups(A4):
        first = coset_lookup(A4, U)
        assert coset_lookup(A4, U) is first
        reps, pos = first
        assert reps.tolist() == sorted({min(A4.mul(u, g) for u in U.members) for g in range(A4.order)})
        want = [None] * A4.order
        for i, r in enumerate(reps):
            for u in U.members:
                want[A4.mul(u, r)] = i
        assert pos.tolist() == want
