import numpy as np
import pytest

from modplab.catalog import cyclic_group, sym3
from modplab.covers import (
    CoverageError,
    assemble_cover,
    character_eigenspace,
    cover_map,
    cover_vectors,
    extend_by_central_character,
    fixed_cover_subspace,
    induced_trivial,
    module_covers,
    qualifying_subgroups,
)
from modplab.fields import FiniteField
from modplab.linalg import Matrix, Subspace, column_space, row_reduce
from modplab.groups import FinGroup, Subgroup
from modplab.reps import (
    RepMap,
    characters_of,
    fixed_points,
    hom_space,
    intertwines,
    lower_drop,
    lower_lift,
    regular_rep,
    restrict,
    trivial_rep,
    upper_drop,
    upper_lift,
)

F2 = FiniteField(2)
F3 = FiniteField(3)
F4 = FiniteField(2, 2)


def test_induced_trivial_fixed_constants():
    S3 = sym3()
    for members in ((0,), (0, 3), (0, 1, 2)):
        U = Subgroup(S3, members)
        ind = induced_trivial(U, F3)
        fp = fixed_points(ind)
        assert fp.dim == 1
        assert fp.basis.a.tolist() == [[1] * ind.dim]


def test_qualifying_subgroups_frozen():
    C4 = cyclic_group(4)
    got = qualifying_subgroups(trivial_rep(C4, F2), (1,))
    assert [u.members for u in got] == [(0,), (0, 2)]  # K itself fails the bound
    C2 = cyclic_group(2)
    assert qualifying_subgroups(regular_rep(C2, F2), (1, 0)) == []
    with pytest.raises(ValueError):
        qualifying_subgroups(trivial_rep(C4, F2), (0,))  # zero vector excluded


def test_qualifying_subgroups_with_central():
    G = FinGroup.direct_product(cyclic_group(2), cyclic_group(3))
    C = Subgroup(G, [g for g in range(6) if G.element_order(g) in (1, 3)])
    V = trivial_rep(G, F4)
    plain = qualifying_subgroups(V, (1,))
    with_c = qualifying_subgroups(V, (1,), C)
    # joining with C shrinks the coset space, so the C-filtered list is smaller
    assert {u.members for u in with_c} <= {u.members for u in plain}
    with pytest.raises(ValueError):
        K2 = Subgroup(G, [g for g in range(6) if G.element_order(g) in (1, 2)])
        nontriv = [c for c in characters_of(C, F4) if not c.is_trivial()][0]
        W = extend_by_central_character(trivial_rep(K2.as_group(), F4), K2, C, nontriv)
        qualifying_subgroups(W, (1,), C)  # C acts nontrivially here


def _assemble(V):
    vectors = cover_vectors(V)
    return assemble_cover(module_covers(V, vectors), vectors)


def test_cover_map_frozen_augmentation():
    C2 = cyclic_group(2)
    phi = cover_map(Subgroup.trivial(C2), trivial_rep(C2, F2), [(1,)])
    assert phi.tolist() == [[[1, 1]]] and not phi.flags.writeable
    assert row_reduce(Matrix(F2, phi[0])).dim == 1
    with pytest.raises(ValueError, match="map is not equivariant"):
        cover_map(Subgroup.full(C2), regular_rep(C2, F2), [(1, 0)])  # not fixed
    with pytest.raises(ValueError, match="map is not equivariant"):
        cover_map(Subgroup.full(C2), regular_rep(C2, F2), [(1, 1), (1, 0)])  # one moved in the stack
    assert cover_map(Subgroup.full(C2), regular_rep(C2, F2), []).shape == (0, 2, 1)


@pytest.mark.parametrize("q, code", [(2, 3), (2, -1), (3, -1), (4, 7)])
def test_vector_codes_outside_the_field_are_rejected(q, code):
    """A code is never reduced into the field: over F2, (3,) is not (1,)."""
    F = FiniteField(2, 2) if q == 4 else FiniteField(q)
    C2 = cyclic_group(2)
    V = trivial_rep(C2, F)
    with pytest.raises(ValueError, match="out of field range"):
        cover_map(Subgroup.trivial(C2), V, [(code,)])
    with pytest.raises(ValueError, match="out of field range"):
        qualifying_subgroups(V, (code,))


def test_vector_of_the_wrong_length_is_rejected():
    C2 = cyclic_group(2)
    V = trivial_rep(C2, F2)
    with pytest.raises(ValueError, match="vector length"):
        cover_map(Subgroup.trivial(C2), V, [(1, 0)])
    with pytest.raises(ValueError, match="vector length"):
        qualifying_subgroups(V, (1, 0))


def test_cover_map_kernel_nonzero_on_qualifying():
    C4 = cyclic_group(4)
    V = trivial_rep(C4, F2)
    for U in qualifying_subgroups(V, (1,)):
        (phi,) = cover_map(U, V, [(1,)])
        assert row_reduce(Matrix(F2, phi)).dim > 0
        # the indicator of the trivial coset maps to the vector itself
        assert phi[:, 0].tolist() == [1]


def test_assemble_cover_frozen():
    C2 = cyclic_group(2)
    asm = _assemble(trivial_rep(C2, F2))
    assert asm.source.dim == 2
    assert [(b.vector, b.subgroup.members) for b in asm.blocks] == [((1,), (0,))]
    assert asm.onto.matrix.a.tolist() == [[1, 1]]
    assert asm.dropped == ()
    assert asm.onto.rank() == 1


def test_assemble_cover_uncoverable():
    C2 = cyclic_group(2)
    with pytest.raises(CoverageError):
        _assemble(regular_rep(C2, F2))  # free module: no vector qualifies


def test_assemble_cover_zero_rep():
    C2 = cyclic_group(2)
    asm = _assemble(trivial_rep(C2, F2, 0))
    assert asm.source.dim == 0 and asm.blocks == ()


def test_fixed_cover_subspace_dies_under_phi():
    # p-group: the assembled map vanishes on full-group fixed points of S
    C4 = cyclic_group(4)
    asm = _assemble(trivial_rep(C4, F2))
    sk = fixed_cover_subspace(asm)
    assert sk.dim == len(asm.blocks)
    assert sk == fixed_points(asm.source)
    assert not (asm.onto.matrix @ sk.basis.transpose()).a.any()


def test_frobenius_transport_round_trip():
    S3 = sym3()
    U = Subgroup(S3, [0, 3])
    W = trivial_rep(U.as_group(), F3)
    V = trivial_rep(S3, F3)
    ind = induced_trivial(U, F3)
    assert hom_space(ind, V).dim == hom_space(W, restrict(V, U)).dim == 1
    t = RepMap(W, restrict(V, U), Matrix.identity(F3, 1))
    big = lower_lift(U, V, t.matrix.a[None])
    assert big.shape == (1, 1, 3) and intertwines(ind, V, big)
    assert np.array_equal(lower_drop(U, W, big)[0], t.matrix.a)
    up = RepMap(restrict(V, U), W, Matrix.identity(F3, 1))
    lifted = upper_lift(U, V, up.matrix.a[None])
    assert lifted.shape == (1, 3, 1) and intertwines(V, ind, lifted)
    assert np.array_equal(upper_drop(U, W, lifted)[0], up.matrix.a)


def test_frobenius_transport_rejects_mismatch():
    S3 = sym3()
    U = Subgroup(S3, [0, 3])
    W = trivial_rep(U.as_group(), F3)
    X = np.eye(1, dtype=np.int16)[None]
    for lift in (lower_lift, upper_lift):
        with pytest.raises(ValueError):
            lift(U, trivial_rep(cyclic_group(6), F3), X)  # V not on U's parent
    # W not on U: the drops read W's matrices, so each checks W itself
    for other in (S3, cyclic_group(3)):
        for drop in (lower_drop, upper_drop):
            with pytest.raises(ValueError, match=r"^W must be a representation of U\.as_group\(\)$"):
                drop(U, trivial_rep(other, F3), np.zeros((1, 3, 3), dtype=np.int16))


def test_character_eigenspace_frozen():
    C3 = cyclic_group(3)
    reg = regular_rep(C3, F4)
    full = Subgroup.full(C3)
    for chi in characters_of(full, F4):
        space, P = character_eigenspace(reg, full, chi)
        assert space.dim == 1
        assert P is not None and P @ P == P
        assert column_space(P) == space
        # projector restricts to the identity on its eigenspace
        assert space.basis @ P.transpose() == space.basis
    triv = trivial_rep(C3, F4)
    space, P = character_eigenspace(triv, Subgroup.trivial(C3), characters_of(Subgroup.trivial(C3), F4)[0])
    assert space == Subspace.full(F4, 1) and P == Matrix.identity(F4, 1)


def test_character_eigenspace_projector_gate():
    # p-part acting nontrivially blocks the averaging projector
    C2 = cyclic_group(2)
    reg = regular_rep(C2, F2)
    chi = characters_of(Subgroup.full(C2), F2)[0]
    space, P = character_eigenspace(reg, Subgroup.full(C2), chi)
    assert space.dim == 1 and P is None


def test_eigenspace_surjection_compatibility():
    # an equivariant surjection stays surjective on each eigenspace
    C3 = cyclic_group(3)
    reg = regular_rep(C3, F4)
    triv = trivial_rep(C3, F4)
    gamma = RepMap(reg, triv, Matrix(F4, [[1, 1, 1]]))
    full = Subgroup.full(C3)
    for chi in characters_of(full, F4):
        s1, _ = character_eigenspace(reg, full, chi)
        s2, _ = character_eigenspace(triv, full, chi)
        assert Subspace.from_rows(F4, 1, s1.basis @ gamma.matrix.transpose()) == s2


def test_extend_by_central_character_frozen():
    G = FinGroup.direct_product(cyclic_group(2), cyclic_group(3))
    K = Subgroup(G, [g for g in range(6) if G.element_order(g) in (1, 2)])
    C = Subgroup(G, [g for g in range(6) if G.element_order(g) in (1, 3)])
    assert C.is_central()
    chi = [c for c in characters_of(C, F4) if not c.is_trivial()][0]
    V = trivial_rep(K.as_group(), F4)
    W = extend_by_central_character(V, K, C, chi)
    assert W.group.order == 6 and W.dim == 1
    KC = K.join(C)
    for z in C.members:
        assert W.T[KC.local(z)].tolist() == [[chi.value(z)]]
    for k in K.members:
        assert np.array_equal(W.T[KC.local(k)], V.T[K.local(k)])


def test_extend_identity_when_central_trivial():
    C3 = cyclic_group(3)
    full = Subgroup.full(C3)
    E = Subgroup.trivial(C3)
    chi = characters_of(E, F4)[0]
    V = trivial_rep(C3, F4, 2)
    W = extend_by_central_character(V, full, E, chi)
    assert np.array_equal(W.T, V.T)


def test_extend_rejects_incompatible_overlap():
    C3 = cyclic_group(3)
    full = Subgroup.full(C3)
    chi = [c for c in characters_of(full, F4) if not c.is_trivial()][0]
    with pytest.raises(ValueError, match="character disagrees with the action on the overlap"):
        extend_by_central_character(trivial_rep(C3, F4), full, full, chi)


def _extend_inputs(name):
    """(V, K, C, chi) for extend_by_central_character, breaking only the
    named condition on its input: a C that is not central, a character
    of another subgroup, a V of another group."""
    if name == "C-not-central":
        S3 = sym3()
        C = Subgroup(S3, [0, 3])
        return trivial_rep(S3, F4), Subgroup.full(S3), C, characters_of(C, F4)[0]
    C3 = cyclic_group(3)
    full, E = Subgroup.full(C3), Subgroup.trivial(C3)
    if name == "character-not-on-C":
        return trivial_rep(C3, F4), full, E, characters_of(full, F4)[1]
    return trivial_rep(cyclic_group(2), F4), full, E, characters_of(E, F4)[0]


EXTEND_REJECTS = {
    "C-not-central": "C must be a central subgroup of the ambient group",
    "character-not-on-C": "character must live on C over the same field",
    "V-not-of-K": "V must be a representation of K",
}


@pytest.mark.parametrize("name", sorted(EXTEND_REJECTS))
def test_extend_rejects_a_bad_input(name):
    """Each input check, reached by an input that breaks it alone.  Without
    the check, each input either extends or fails in another way."""
    with pytest.raises(ValueError, match=EXTEND_REJECTS[name]):
        extend_by_central_character(*_extend_inputs(name))


def _phi_pairs():
    """Each built-in p-group with each built-in field of its characteristic."""
    from modplab.catalog import catalog_fields, catalog_groups
    from modplab.fields import p_part

    for gname, K in sorted(catalog_groups().items()):
        for fname, F in sorted(catalog_fields().items()):
            if K.order > 1 and p_part(K.order, F.p)[1] == 1:
                yield pytest.param(K, F, id=f"{gname}-{fname}")


@pytest.mark.parametrize("K, F", list(_phi_pairs()))
def test_module_covers_stack_the_per_vector_lower_lifts(K, F):
    """For every pool rep, nonzero vector v and qualifying U, the row of
    U's stack that belongs to v is the lower lift of the U-map 1 |-> v;
    the stacks come in all_subgroups order, and each vector's subgroups,
    read from the stacks, are its qualifying subgroups in their order."""
    from modplab.catalog import catalog_reps
    from modplab.covers import nonzero_vectors
    from modplab.groups import all_subgroups

    order = [U.members for U in all_subgroups(K)]
    for name, V in catalog_reps(K, F, 3).items():
        vectors = nonzero_vectors(F, V.dim)
        covers = module_covers(V, vectors)
        assert covers.vectors == tuple(vectors)
        stacked = [U.members for U, _, _ in covers.stacks]
        assert stacked == sorted(stacked, key=order.index) and len(set(stacked)) == len(stacked), name
        subgroups = {v: [] for v in vectors}
        for U, vecs, stack in covers.stacks:
            assert stack.shape == (len(vecs), V.dim, U.index) and not stack.flags.writeable
            for v, m in zip(vecs, stack):
                col = np.array(v, dtype=np.int16).reshape(1, -1, 1)
                assert np.array_equal(m, lower_lift(U, V, col)[0]), (name, v, U)
                subgroups[v].append(U.members)
        assert subgroups == {v: [U.members for U in qualifying_subgroups(V, v)] for v in vectors}, name


def _jordan3():
    from modplab.catalog import catalog_fields, catalog_groups, catalog_reps

    F = catalog_fields()["F9"]
    return F, catalog_reps(catalog_groups()["C9"], F, 3)["jordan3"]


def test_only_keeps_the_maps_of_the_listed_vectors():
    """The assembly reads only the maps of the listed vectors: covers built
    at every nonzero vector and assembled at some of them, in the order
    listed, give the assembly of covers built at those."""
    from modplab.covers import nonzero_vectors

    F, V = _jordan3()
    every = module_covers(V, nonzero_vectors(F, V.dim))
    picked = cover_vectors(V)[::-1]
    assert len(picked) < len(every.vectors)
    a, b = assemble_cover(every, picked), assemble_cover(module_covers(V, picked), picked)
    assert a.blocks == b.blocks and a.dropped == b.dropped and a.onto.matrix == b.onto.matrix


def test_assembly_rejects_a_vector_the_covers_were_not_built_at():
    F, V = _jordan3()
    picked = cover_vectors(V)
    covers = module_covers(V, picked[1:])
    with pytest.raises(ValueError, match="not one of the vectors"):
        assemble_cover(covers, picked)


def test_assembly_drops_a_vector_with_no_qualifying_subgroup():
    """Over F2, a unit vector of the regular module of C3 spans a free
    module, so no subgroup qualifies for it; the other nonzero vectors
    still span, and the unit vectors are listed as dropped.  Over C2 the
    free module is all there is, and the failed cover carries its drops."""
    from modplab.covers import nonzero_vectors

    V = regular_rep(cyclic_group(3), F2)
    vectors = nonzero_vectors(F2, 3)
    asm = assemble_cover(module_covers(V, vectors), vectors)
    units = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert asm.dropped == units and all(qualifying_subgroups(V, v) == [] for v in units)
    assert asm.blocks and not {b.vector for b in asm.blocks} & set(units)
    W = regular_rep(cyclic_group(2), F2)
    with pytest.raises(CoverageError) as info:
        assemble_cover(module_covers(W, [(1, 0), (1, 1)]), [(1, 0), (1, 1)])
    assert info.value.dropped == ((1, 0),)
