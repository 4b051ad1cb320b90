import numpy as np
import pytest

from modplab.catalog import catalog_reps, cyclic_group, klein_group, sym3
from modplab.fields import FiniteField
from modplab.linalg import Matrix
from modplab.groups import Subgroup
from modplab.reps import (
    Character,
    Rep,
    RepMap,
    ShortExactSeq,
    character_rep,
    characters_of,
    cyclic_span,
    direct_sum,
    fixed_points,
    hom_space,
    induce,
    intertwines,
    regular_rep,
    rep_from_generators,
    restrict,
    trivial_rep,
)

F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, 2)


def test_rep_validation():
    C2 = cyclic_group(2)
    with pytest.raises(ValueError):
        Rep(C2, F2, [[[1]]])  # one matrix per element required
    with pytest.raises(ValueError):
        Rep(C2, F2, [[[0]], [[1]]])  # identity must act as identity


@pytest.mark.parametrize(
    "group, field, T",
    [
        (cyclic_group(2), F2, np.ones((3, 1, 1), dtype=int)),  # wrong number of slices
        (cyclic_group(2), F2, np.ones((2, 1, 2), dtype=int)),  # non-square slices
        (cyclic_group(2), F2, np.ones((2,), dtype=int)),  # not a stack of matrices
        (cyclic_group(2), F3, [[[1]], [[3]]]),  # code q
        (cyclic_group(2), F4, [[[1]], [[-1]]]),  # negative code
        (cyclic_group(2), F4, [[[1]], [[1 << 16]]]),  # would wrap in int16
        (cyclic_group(2), F3, [[[1]], [[1.9]]]),  # would truncate to the trivial rep
        (cyclic_group(3), F3, [[[1]], [[2]], [[2]]]),  # 2 * 2 != 2
    ],
    ids=["slices", "non-square", "not-a-stack", "code-q", "negative", "wide", "float", "not-a-hom"],
)
def test_rep_rejects_bad_action_tensors(group, field, T):
    with pytest.raises(ValueError):
        Rep(group, field, T)


def test_rep_copies_outside_data_and_skips_validation_only_on_request():
    T = np.ones((3, 1, 1), dtype=int)
    V = Rep(cyclic_group(3), F3, T)
    T[1, 0, 0] = 0
    assert V.T[:, 0, 0].tolist() == [1, 1, 1] and V.T.dtype == np.int16
    bad = np.array([[[1]], [[2]], [[2]]], dtype=np.int16)  # not a homomorphism
    with pytest.raises(ValueError, match="homomorphism"):
        Rep(cyclic_group(3), F3, bad)
    unchecked = Rep._of(cyclic_group(3), F3, bad)
    assert unchecked.T is bad
    with pytest.raises(ValueError, match="homomorphism"):
        unchecked._validate()


def test_builders_frozen():
    C2 = cyclic_group(2)
    assert trivial_rep(C2, F2).dim == 1
    reg = regular_rep(C2, F2)
    assert reg.dim == 2
    assert reg.T[1].tolist() == [[0, 1], [1, 0]]
    # order-2 scalar 2 over F_3: 2^2 = 1
    tw = character_rep(C2, F3, [1, 2])
    assert tw.T[1].tolist() == [[2]]
    with pytest.raises(ValueError):
        character_rep(C2, F3, [1, 0])


def test_rep_from_generators():
    S3 = sym3()
    images = {g: Matrix.identity(F2, 1) for g in S3.generators()}
    triv = rep_from_generators(S3, F2, images)
    assert triv == trivial_rep(S3, F2)
    bad = {g: Matrix(F3, [[2]]) for g in sym3().generators()}
    with pytest.raises(ValueError):
        rep_from_generators(sym3(), F3, bad)  # (012) would need order dividing 2


def test_restrict():
    S3 = sym3()
    reg = regular_rep(S3, F3)
    assert np.array_equal(restrict(reg, Subgroup.full(S3)).T, reg.T)
    C3 = Subgroup(S3, [0, 1, 2])
    down = restrict(reg, C3)
    assert down.dim == 6 and down.group.order == 3
    triv_part = restrict(reg, Subgroup.trivial(S3))
    assert (triv_part.T == np.eye(6)).all()


def test_induce_frozen():
    C2 = cyclic_group(2)
    E = Subgroup.trivial(C2)
    ind = induce(E, trivial_rep(E.as_group(), F2))
    assert np.array_equal(ind.T, regular_rep(C2, F2).T)
    S3 = sym3()
    U = Subgroup(S3, [0, 3])
    ind3 = induce(U, trivial_rep(U.as_group(), F3))
    assert ind3.dim == 3  # index of U
    full = induce(Subgroup.full(S3), trivial_rep(S3, F3))
    assert np.array_equal(full.T, trivial_rep(S3, F3).T)


def test_induce_dimension_formula():
    S3 = sym3()
    for members in ((0,), (0, 3), (0, 1, 2)):
        U = Subgroup(S3, members)
        W = regular_rep(U.as_group(), F2)
        assert induce(U, W).dim == U.index * W.dim


def test_induce_refuses_a_tensor_over_its_budget(monkeypatch):
    from modplab import reps

    U = Subgroup(sym3(), [0, 3])
    W = regular_rep(U.as_group(), F2)  # induced up: six 6 x 6 matrices
    monkeypatch.setattr(reps, "INDUCE_CELLS", 215)
    with pytest.raises(ValueError, match=r"6 x 6 x 6 action tensor, 216 cells"):
        induce(U, W)
    monkeypatch.setattr(reps, "INDUCE_CELLS", 216)
    assert induce(U, W).dim == 6


def test_hom_space_frozen():
    C2 = cyclic_group(2)
    triv = trivial_rep(C2, F2)
    assert hom_space(triv, triv).dim == 1
    assert hom_space(triv, regular_rep(C2, F2)).dim == 1  # socle of F[C2]
    S3 = sym3()
    sign_in_char2 = character_rep(S3, F2, [1] * 6)
    assert hom_space(trivial_rep(S3, F2), sign_in_char2).dim == 1


def test_fixed_points_frozen():
    C2 = cyclic_group(2)
    reg = regular_rep(C2, F2)
    assert fixed_points(restrict(reg, Subgroup.trivial(C2))).dim == 2
    fp = fixed_points(reg)
    assert fp.dim == 1 and fp.basis.a.tolist() == [[1, 1]]
    # char-p fixed points of a p-group are never zero on nonzero reps
    for name, V in catalog_reps(C2, F2).items():
        if V.dim:
            assert fixed_points(V).dim > 0, name


def test_cyclic_span_dim_frozen():
    C2 = cyclic_group(2)
    reg = regular_rep(C2, F2)
    assert cyclic_span(reg, (0, 0)).dim == 0
    assert cyclic_span(trivial_rep(C2, F2), (1,)).dim == 1
    assert cyclic_span(reg, (1, 0)).dim == 2


@pytest.mark.parametrize(
    "field, vec, message",
    [
        (F2, [5, 7], "out of field range"),
        (F2, [-1, 0], "out of field range"),
        (F4, [4, 0], "out of field range"),
        (F2, [1.5, 0], "integer field codes"),
        (F3, [1, 0, 0], "vector length"),
        (F3, [1], "vector length"),
        (F3, [[1, 0]], "vector length"),
    ],
)
def test_orbit_and_cyclic_span_reject_a_vector_that_is_not_d_field_codes(field, vec, message):
    """A code is never cast into the field: over F2, (5, 7) is not (1, 1),
    and neither 1.5 nor -1 is a code."""
    V = regular_rep(cyclic_group(2), field)
    for call in (V.orbit, lambda v: cyclic_span(V, v)):
        with pytest.raises(ValueError, match=message):
            call(vec)


def test_direct_sum_of_no_summands_is_refused():
    with pytest.raises(ValueError, match="no summands"):
        direct_sum([])


def test_direct_sum():
    C2 = cyclic_group(2)
    s = direct_sum([trivial_rep(C2, F2), regular_rep(C2, F2)])
    assert s.dim == 3
    assert s.T[1].tolist() == [[1, 0, 0], [0, 0, 1], [0, 1, 0]]


def test_repmap_validation():
    C2 = cyclic_group(2)
    triv, reg = trivial_rep(C2, F2), regular_rep(C2, F2)
    RepMap(triv, reg, Matrix(F2, [[1], [1]]))  # the diagonal is fixed
    with pytest.raises(ValueError):
        RepMap(triv, reg, Matrix(F2, [[1], [0]]))  # not equivariant
    with pytest.raises(ValueError):
        RepMap(triv, reg, Matrix.identity(F2, 2))  # shape mismatch


def test_repmap_equality():
    C2 = cyclic_group(2)
    triv, reg = trivial_rep(C2, F2), regular_rep(C2, F2)
    diag = RepMap(triv, reg, Matrix(F2, [[1], [1]]))
    assert diag == RepMap(trivial_rep(C2, F2), regular_rep(C2, F2), Matrix(F2, [[1], [1]]))
    assert diag != RepMap(triv, reg, Matrix.zeros(F2, 2, 1))  # another matrix
    assert diag != RepMap(reg, triv, Matrix(F2, [[1, 1]]))  # other ends
    assert diag != diag.matrix


def test_short_exact_seq_validation():
    C2 = cyclic_group(2)
    triv, reg = trivial_rep(C2, F2), regular_rep(C2, F2)
    left = RepMap(triv, reg, Matrix(F2, [[1], [1]]))
    right = RepMap(reg, triv, Matrix(F2, [[1, 1]]))
    ses = ShortExactSeq(left, right)
    assert ses.left is left and ses.right is right


def _ses_case(name):
    C2 = cyclic_group(2)
    triv, triv2, reg = trivial_rep(C2, F2), trivial_rep(C2, F2, 2), regular_rep(C2, F2)
    diag = RepMap(triv, reg, Matrix(F2, [[1], [1]]))
    augment = RepMap(reg, triv, Matrix(F2, [[1, 1]]))
    first = RepMap(triv, triv2, Matrix(F2, [[1], [0]]))
    return {
        "middle": (diag, RepMap(triv2, triv, Matrix(F2, [[1, 0]]))),
        "injective": (RepMap(triv, reg, Matrix.zeros(F2, 2, 1)), augment),
        "surjective": (diag, RepMap(reg, reg, Matrix.zeros(F2, 2, 2))),
        "dimension": (diag, RepMap(reg, reg, Matrix.identity(F2, 2))),
        "kernel": (first, RepMap(triv2, triv, Matrix(F2, [[1, 0]]))),
    }[name]


@pytest.mark.parametrize(
    "name, message",
    [
        ("middle", "middle objects differ"),
        ("injective", "left map is not injective"),
        ("surjective", "right map is not surjective"),
        ("dimension", "dimension count fails"),
        ("kernel", "image of left map differs from kernel of right map"),
    ],
)
def test_short_exact_seq_rejects_each_failed_check(name, message):
    with pytest.raises(ValueError, match=message):
        ShortExactSeq(*_ses_case(name))


def test_intertwines_on_a_subgroup_reads_its_generators():
    """With a subgroup, intertwines agrees with the whole-group check on
    the restrictions, for every subgroup of S3 and every U-map of the
    regular module; a subgroup of another group is refused as restrict
    refuses it, by its own check, whatever its indices."""
    from modplab.catalog import alt4
    from modplab.groups import all_subgroups

    S3 = sym3()
    reg = regular_rep(S3, F3)
    E = Subgroup.trivial(S3)
    maps = hom_space(restrict(reg, E), restrict(reg, E)).basis.a.reshape(-1, reg.dim, reg.dim)
    for U in all_subgroups(S3):
        local = restrict(reg, U)
        for X in maps:
            assert intertwines(reg, reg, X, U) == intertwines(local, local, X), U
        assert intertwines(reg, reg, maps, U) == all(intertwines(local, local, X) for X in maps)
    for U in (Subgroup(cyclic_group(4), [0, 2]), Subgroup(alt4(), [0, 3]), Subgroup(alt4(), [0, 8])):
        for check in (intertwines, lambda S, T, X, U: restrict(S, U)):
            with pytest.raises(ValueError, match="subgroup of a different group"):
                check(reg, reg, maps[0], U)


def test_intertwines_rejects_one_changed_entry_of_the_last_map():
    S3 = sym3()
    reg = regular_rep(S3, F3)
    space = hom_space(reg, reg)
    X = space.basis.a.reshape(space.dim, reg.dim, reg.dim)
    assert space.dim >= 2 and intertwines(reg, reg, X)
    for i in range(reg.dim):
        for j in range(reg.dim):
            bad = X.copy()
            bad[-1, i, j] = (bad[-1, i, j] + 1) % 3
            assert not intertwines(reg, reg, bad)
            with pytest.raises(ValueError, match="map is not equivariant"):
                RepMap(reg, reg, Matrix(F3, bad[-1]))


def test_characters_of_counts():
    C2, C3 = cyclic_group(2), cyclic_group(3)
    assert len(characters_of(Subgroup.full(C2), F2)) == 1  # p-group forces triviality
    assert len(characters_of(Subgroup.full(C3), F2)) == 1  # no cube roots of 1 in F2
    chars = characters_of(Subgroup.full(C3), F4)
    assert len(chars) == 3
    assert sorted(c.values for c in chars) == [(1, 1, 1), (1, 2, 3), (1, 3, 2)]
    assert len(characters_of(Subgroup.full(klein_group()), F3)) == 4


def test_character_validation():
    C3 = cyclic_group(3)
    full = Subgroup.full(C3)
    chi = Character(full, F4, (1, 2, 3))
    assert chi.value(1) == 2 and not chi.is_trivial()
    with pytest.raises(ValueError):
        Character(full, F4, (1, 2, 2))  # not multiplicative
    with pytest.raises(ValueError):
        Character(full, F4, (1, 0, 0))  # zero values
    with pytest.raises(ValueError):
        Character(Subgroup.full(cyclic_group(2)), F2, (1, 1, 1))  # length mismatch
    with pytest.raises(ValueError):
        # order-3 element in characteristic 3 must map to 1
        Character(full, F3, (1, 2, 2))


def test_character_equality():
    C3 = cyclic_group(3)
    chi = Character(Subgroup.full(C3), F4, (1, 2, 3))
    assert chi == Character(Subgroup.full(cyclic_group(3)), FiniteField(2, 2), (1, 2, 3))
    assert chi != Character(Subgroup.full(C3), F4, (1, 3, 2))  # other values
    assert chi != Character(Subgroup(sym3(), [0, 1, 2]), F4, (1, 2, 3))  # other domain
    assert chi != chi.values


@pytest.mark.parametrize(
    "order, field, values",
    [(3, F4, [1, 5, 7]), (2, F3, [1, 4]), (2, F3, [1, -1])],
    ids=["F4-large", "F3-large", "F3-negative"],
)
def test_character_rejects_codes_outside_the_field(order, field, values):
    # before the range check, the first raised IndexError from the product
    # table and the second was called "not multiplicative"
    with pytest.raises(ValueError, match="codes of nonzero field elements"):
        Character(Subgroup.full(cyclic_group(order)), field, values)


def test_character_on_a_proper_subgroup():
    """Values follow the subgroup's own member order; a non-member has no
    value, and multiplicativity is checked in the subgroup's table."""
    S3 = sym3()
    C3 = Subgroup(S3, [0, 1, 2])
    chi = Character(C3, F4, (1, 2, 3))
    assert [chi.value(m) for m in C3.members] == [1, 2, 3]
    with pytest.raises(KeyError):
        chi.value(3)  # a transposition lies outside C3
    with pytest.raises(ValueError, match="not multiplicative"):
        Character(C3, F4, (1, 2, 1))


def test_rep_holds_one_read_only_action_tensor():
    S3 = sym3()
    reg = regular_rep(S3, F4)
    assert reg.T.shape == (6, 6, 6) and reg.T.dtype == np.int16
    with pytest.raises(ValueError):
        reg.T[0, 0, 0] = 1
    again = Rep(S3, F4, reg.T.tolist())
    assert again == reg and hash(again) == hash(reg)
    assert again != regular_rep(S3, F2)


def test_validate_rejects_one_wrong_product():
    # rho(k) = M^k on C_n: every check rho(1) rho(h) = rho(1 + h) holds except
    # at h = n - 1, where M^n must equal rho(0) = I
    for F, M, order in (
        (F3, [[1, 1], [0, 1]], 3),
        (F4, [[1, 2, 0], [0, 1, 3], [0, 0, 1]], 4),
    ):
        powers = [Matrix.identity(F, len(M))]
        for _ in range(order):
            powers.append(powers[-1] @ Matrix(F, M))
        I = Matrix.identity(F, len(M))
        assert powers[order] == I and powers[order - 1] != I
        Rep(cyclic_group(order), F, [M.a for M in powers[:order]])
        for n in (order - 1, order + 1):
            with pytest.raises(ValueError, match="homomorphism"):
                Rep(cyclic_group(n), F, [M.a for M in powers[:n]])


def test_repmap_rejects_failure_at_last_generator_only():
    V4 = klein_group()
    first, last = V4.generators()
    swap = Matrix(F2, [[0, 1], [1, 0]])
    V = rep_from_generators(V4, F2, {first: Matrix.identity(F2, 2), last: swap})
    A = Matrix(F2, [[1, 0], [0, 0]])
    rho_first, rho_last = Matrix(F2, V.T[first]), Matrix(F2, V.T[last])
    assert A @ rho_first == rho_first @ A
    assert A @ rho_last != rho_last @ A
    with pytest.raises(ValueError, match="equivariant"):
        RepMap(V, V, A)
    RepMap(V, V, swap)


def test_restrict_to_the_whole_group_keeps_every_matrix():
    S3 = sym3()
    for F in (F2, F3, F4):
        for name, V in catalog_reps(S3, F).items():
            down = restrict(V, Subgroup.full(S3))
            assert np.array_equal(down.T, V.T), name
