import itertools

import numpy as np
import pytest

from modplab.catalog import (
    alt4,
    catalog_groups,
    cyclic_group,
    dihedral4,
    klein_group,
    quaternion8,
    sym3,
)
from modplab.groups import (
    FinGroup,
    Subgroup,
    all_subgroups,
    conjugate_intersect,
    coset_lookup,
)


def test_table_validation():
    with pytest.raises(ValueError):
        FinGroup([[0, 1], [1, 1]])  # not a latin square
    with pytest.raises(ValueError):
        FinGroup([[0, 1, 2], [1, 2, 0], [2, 1, 0]])  # not associative
    G = FinGroup([[0, 1], [1, 0]], labels=["e", "g"])
    assert G.order == 2 and G.label(1) == "g"


@pytest.mark.parametrize(
    "table",
    [[[0, 1.5], [1, 0]], [[0, 70000], [1, 0]], [[0, 10**30], [1, 0]], [[True, False], [False, True]]],
    ids=["float", "beyond-int16", "huge", "bool"],
)
def test_table_entries_must_be_integers_in_range(table):
    # the int16 cast used to truncate 1.5 to 1 and overflow on large entries
    with pytest.raises(ValueError):
        FinGroup(table)


def test_equal_subgroups_of_equal_groups_hash_equal():
    S3 = sym3()
    twin = FinGroup(S3.table.tolist())
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


TRANSPOSITION = Subgroup(sym3(), [0, 3])


@pytest.mark.parametrize(
    "call, bad",
    [
        pytest.param(lambda: Subgroup(cyclic_group(2), [-1, 0]), -1, id="subgroup-negative"),
        pytest.param(lambda: Subgroup(klein_group(), [0, 7]), 7, id="subgroup-beyond"),
        pytest.param(lambda: Subgroup(klein_group(), [0, 9, -2]), 9, id="subgroup-given-order"),
        pytest.param(lambda: Subgroup.generate(sym3(), [-1]), -1, id="generate"),
        pytest.param(lambda: conjugate_intersect(TRANSPOSITION, TRANSPOSITION, -1), -1, id="conjugate-intersect"),
        *(
            pytest.param(call, bad, id=f"{name}-{bad}")
            for bad in (-1, 6)
            for name, call in [
                ("contains", lambda bad=bad: TRANSPOSITION.contains(bad)),
                ("local", lambda bad=bad: TRANSPOSITION.local(bad)),
                ("mul-left", lambda bad=bad: sym3().mul(bad, 1)),
                ("mul-right", lambda bad=bad: sym3().mul(1, bad)),
                ("inv", lambda bad=bad: sym3().inv(bad)),
                ("label", lambda bad=bad: sym3().label(bad)),
                ("element-order", lambda bad=bad: sym3().element_order(bad)),
            ]
        ),
    ],
)
def test_outside_element_indices_are_checked(call, bad):
    # numpy used to wrap -1 to the last element and raise IndexError beyond
    # the order; the first bad index in the order given is named
    with pytest.raises(ValueError, match=rf"^element index {bad} out of range$"):
        call()


@pytest.mark.parametrize(
    "H",
    [
        pytest.param(lambda: Subgroup(alt4(), [0, 8]), id="larger-parent"),
        pytest.param(lambda: Subgroup(cyclic_group(4), [0, 2]), id="smaller-parent"),
    ],
)
def test_conjugate_intersect_names_a_parent_mismatch(H):
    # used to raise IndexError, or "not closed under inverse" from the
    # subgroup built on the wrong parent's indices
    with pytest.raises(ValueError, match="^different parents$"):
        conjugate_intersect(TRANSPOSITION, H(), 1)


@pytest.mark.parametrize("H", [lambda: Subgroup(cyclic_group(4), [0, 2]), lambda: Subgroup(alt4(), [0, 8])])
def test_join_and_intersect_name_a_parent_mismatch(H):
    """Subgroups of two groups have no join: the member indices of one
    mean other elements in the other, so the join is refused, in either
    order, before its memo is read, as the intersection is."""
    A, B = Subgroup(sym3(), [0, 3]), H()
    cached = (dict(A.parent._join_cache), dict(B.parent._join_cache))
    for op in ("join", "intersect"):
        with pytest.raises(ValueError, match="^different parents$"):
            getattr(A, op)(B)
        with pytest.raises(ValueError, match="^different parents$"):
            getattr(B, op)(A)
    assert (A.parent._join_cache, B.parent._join_cache) == cached


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


@pytest.mark.parametrize("make", [lambda: cyclic_group(5), alt4, quaternion8], ids=["C5", "A4", "Q8"])
def test_full_and_trivial_return_the_cached_subgroup(make):
    G = make()
    full, triv = Subgroup.full(G), Subgroup.trivial(G)
    assert full.members == tuple(range(G.order)) and triv.members == (G.identity,)
    for _ in range(3):
        assert Subgroup.full(G) is full and Subgroup.trivial(G) is triv
    # the same objects as the member-keyed cache and the subgroup lattice hold
    assert Subgroup(G, range(G.order)) == full
    assert Subgroup.generate(G, range(G.order)) is full
    assert Subgroup.generate(G, [G.identity]) is triv
    assert full in all_subgroups(G) and triv in all_subgroups(G)
    assert Subgroup.full(G) is G._subgroup(range(G.order))
    # the same one cache, whichever builder fills it first
    H = make()
    whole = H._subgroup(range(H.order))
    assert Subgroup.full(H) is whole


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


# ---------------------------------------------------------------------------
# associativity: Light's test on generators against the cubic check


def cubic_associative(T) -> bool:
    """(ij)k == i(jk) for every triple, as one (n, n, n) comparison."""
    T = np.asarray(T)
    return bool(np.array_equal(T[T], T[:, T]))


def light_accepts(T) -> bool:
    try:
        FinGroup(T)
    except ValueError as exc:
        assert str(exc) == "table is not associative"
        return False
    return True


def intercalates(T, e: int):
    """Every 2 x 2 latin subsquare of T whose rows and columns avoid the
    identity e, as (r1, r2, c1, c2): T[r1, c1] == T[r2, c2] and
    T[r1, c2] == T[r2, c1]."""
    T = np.asarray(T)
    n = len(T)
    at = np.argsort(T, axis=1)  # at[r, x]: the column where row r holds x
    others = [x for x in range(n) if x != e]
    for r1, r2 in itertools.combinations(others, 2):
        # c2 is where row r2 repeats row r1's symbol at c1
        c1 = np.arange(n)
        c2 = at[r2, T[r1, c1]]
        hit = (T[r1, c2] == T[r2, c1]) & (c1 < c2) & (c1 != e) & (c2 != e)
        for a, b in zip(c1[hit].tolist(), c2[hit].tolist()):
            yield r1, r2, a, b


def swapped(T, r1, r2, c1, c2):
    """T with the two symbols of the subsquare exchanged: still a latin
    square, with the same identity when the subsquare avoids it."""
    S = np.array(T, dtype=np.int64)
    S[[r1, r1, r2, r2], [c1, c2, c1, c2]] = S[[r1, r1, r2, r2], [c2, c1, c2, c1]]
    return S


def test_light_agrees_with_the_cubic_check_on_every_intercalate_swap():
    verdicts = [
        (cubic_associative(S), light_accepts(S))
        for G in catalog_groups().values()
        for S in (swapped(G.table, *q) for q in intercalates(G.table, G.identity))
    ]
    assert all(cubic == light for cubic, light in verdicts)
    assert len(verdicts) == 149 and sum(cubic for cubic, _ in verdicts) == 4


@pytest.mark.parametrize("seed", range(8))
def test_light_agrees_with_the_cubic_check_on_random_tables(seed):
    """A random renumbering of a built-in group or of a direct product of
    two, then a chain of random intercalate swaps: the first table is
    associative, and the later ones mostly are not."""
    rng = np.random.default_rng(seed)
    groups = list(catalog_groups().values())
    G, H = (groups[i] for i in rng.integers(len(groups), size=2))
    if G.order * H.order <= 64:
        G = FinGroup.direct_product(G, H)
    sigma = rng.permutation(G.order)
    T = np.empty((G.order, G.order), dtype=np.int64)
    T[np.ix_(sigma, sigma)] = sigma[G.table]
    e = int(sigma[G.identity])
    verdicts = [(cubic_associative(T), light_accepts(T))]
    for _ in range(6):
        found = list(intercalates(T, e))
        if not found:
            break
        T = swapped(T, *found[rng.integers(len(found))])
        verdicts.append((cubic_associative(T), light_accepts(T)))
    assert verdicts[0] == (True, True)
    assert all(cubic == light for cubic, light in verdicts)


@pytest.mark.parametrize("n", [48, 50, 64])
def test_light_rejects_each_intercalate_swap_of_a_larger_cyclic_table(n):
    # rows r and r + n/2 form intercalates with columns c and c + n/2
    T = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    assert light_accepts(T) and cubic_associative(T)
    for r, c in ((1, 2), (3, n // 2 - 1), (n // 2 - 1, 5)):
        S = T.copy()
        rows, cols = [r, r, r + n // 2, r + n // 2], [c, c + n // 2, c, c + n // 2]
        S[rows, cols] = T[rows, [c + n // 2, c, c + n // 2, c]]
        assert not cubic_associative(S) and not light_accepts(S)
