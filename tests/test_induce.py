"""induce is checked by its coset data (j, u) from groups.coset_action
instead of Rep's dense homomorphism check.  The dense check stays the oracle: on every built-in
(U, W) both accept, on corrupted j or u they reject alike, and the
assembled tensor matches a reference built block by block from the
definition of the induced module."""

import random

import numpy as np
import pytest

from modplab import groups
from modplab.catalog import catalog_fields, catalog_groups, catalog_reps
from modplab.groups import FinGroup, Subgroup, all_subgroups, coset_action, coset_lookup
from modplab.reps import Rep, induce, regular_rep, trivial_rep


def _pairs(G, F):
    """(U, W) for every subgroup U of G and every catalog rep W of U."""
    for U in all_subgroups(G):
        for W in catalog_reps(U.as_group(), F, 4).values():
            yield U, W


def _renumbered(G: FinGroup, seed: int) -> FinGroup:
    """G with its elements renumbered so the identity leaves index 0."""
    rng = random.Random(seed)
    sigma = np.arange(G.order)
    while sigma[G.identity] == 0:
        rng.shuffle(sigma)
    table = np.empty_like(G.table)
    table[np.ix_(sigma, sigma)] = sigma[G.table]
    return FinGroup(table)


@pytest.mark.parametrize("gname", sorted(catalog_groups()))
def test_coset_check_and_dense_check_agree_on_every_builtin_pair(gname):
    G = catalog_groups()[gname]
    count = 0
    for F in catalog_fields().values():
        for U, W in _pairs(G, F):
            ind = induce(U, W)  # the coset-data check passed
            ind._validate()  # and so does the dense one
            count += 1
    assert count


def _reference_induce(U, W) -> np.ndarray:
    """Ind W from its definition: functions f on G with f(ux) = W(u) f(x),
    basis f_(i,k) supported on the coset U r_i with f(r_i) = e_k, acted on
    by (g f)(x) = f(x g).  Found by searching cosets element by element."""
    G = U.parent
    members = set(U.members)
    R = coset_lookup(G, U)[0].tolist()
    cosets = [{G.mul(m, r) for m in U.members} for r in R]
    n, d = len(R), W.dim
    out = np.zeros((G.order, n * d, n * d), dtype=np.int16)
    for g in range(G.order):
        for i, r in enumerate(R):
            # g f_(i,k) lives on the coset of r g^-1, which is U r_j, and
            # takes the value W(r_j g r^-1) e_k at r_j
            x = G.mul(r, G.inv(g))
            j = next(k for k, c in enumerate(cosets) if x in c)
            u = G.mul(G.mul(R[j], g), G.inv(r))
            assert u in members
            out[g, j * d : (j + 1) * d, i * d : (i + 1) * d] = W.T[U.local(u)]
    return out


@pytest.mark.parametrize("gname", ["S3", "D4", "Q8", "A4"])
@pytest.mark.parametrize("renumber", [False, True])
def test_induced_tensor_matches_the_blockwise_reference(gname, renumber):
    G = catalog_groups()[gname]
    if renumber:
        G = _renumbered(G, seed=len(gname))
    F = catalog_fields()["F3"]
    for U, W in _pairs(G, F):
        assert np.array_equal(induce(U, W).T, _reference_induce(U, W))


def _corruptions(U, rng):
    """(what, g, j, u): the coset data with one entry in row g changed."""
    G = U.parent
    j, u = (a.copy() for a in coset_action(U))
    n = j.shape[1]
    g = int(rng.integers(G.order))
    i = int(rng.integers(n))
    if n > 1:
        k = (i + 1 + int(rng.integers(n - 1))) % n
        bad = j.copy()
        bad[g, [i, k]] = bad[g, [k, i]]  # still a permutation of the blocks
        yield "j-swap", g, bad, u
        bad = j.copy()
        bad[g, i] = bad[g, k]  # no longer a permutation
        yield "j-merge", g, bad, u
    others = [m for m in U.members if m != u[g, i]]
    if others:
        bad = u.copy()
        bad[g, i] = others[int(rng.integers(len(others)))]  # another member of U
        yield "u-member", g, j, bad
    outside = [x for x in range(G.order) if not U.contains(x)]
    if outside:
        bad = u.copy()
        bad[g, i] = outside[int(rng.integers(len(outside)))]
        yield "u-outside", g, j, bad


def _all_pairs_verdict(U, j, u) -> bool:
    """Whether g |-> (j_g, u_g) is a homomorphism into the block-monomial
    maps, checked on every pair (g, h) one block at a time."""
    G = U.parent
    e, n = G.identity, j.shape[1]
    if any(j[e, i] != i or u[e, i] != e or not U.contains(int(x)) for i in range(n) for x in u[:, i]):
        return False
    for g in range(G.order):
        for h in range(G.order):
            gh = G.mul(g, h)
            for i in range(n):
                if j[gh, i] != j[g, j[h, i]] or u[gh, i] != G.mul(int(u[g, j[h, i]]), int(u[h, i])):
                    return False
    return True


def _passes(U, j, u) -> bool:
    try:
        groups._check_coset_action(U, j, u)
    except ValueError as exc:
        assert str(exc) == "action is not a homomorphism"
        return False
    return True


@pytest.mark.parametrize("gname", sorted(catalog_groups()))
def test_corrupted_coset_data_fail_the_check(gname):
    """The check agrees with an all-pairs check of the same identities.  A
    change in the row of an element that is not a generator always fails:
    for a generator s, j_(sg) = j_s o j_g and u_(sg,i) = u_(s,j_g(i)) u_(g,i)
    read the changed row on one side only.  A change in a generator's own
    row can still describe a homomorphism, one that is not Ind W."""
    G = catalog_groups()[gname]
    rng = np.random.default_rng(len(gname))
    failed = set()
    for U in all_subgroups(G):
        assert _passes(U, *coset_action(U))
        for _ in range(3):
            for what, g, j, u in _corruptions(U, rng):
                verdict = _passes(U, j, u)
                assert verdict == _all_pairs_verdict(U, j, u)
                if g not in G.generators():
                    assert not verdict
                if not verdict:
                    failed.add(what)
    if G.order >= 4:
        assert failed == {"j-swap", "j-merge", "u-member", "u-outside"}
    assert failed


@pytest.mark.parametrize("gname", ["S3", "D4", "A4"])
def test_data_that_only_the_identity_or_label_checks_reject(gname):
    """Both satisfy the composition identities on every pair: every block
    sent to block 0 with label e, which fails at the identity, and every
    block fixed with label g, a G-valued cocycle outside U."""
    G = catalog_groups()[gname]
    for U in all_subgroups(G)[1:-1]:
        n = U.index
        to_zero = np.zeros((G.order, n), dtype=np.intp)
        labels_e = np.full((G.order, n), G.identity)
        fixed = np.tile(np.arange(n), (G.order, 1))
        labels_g = np.repeat(np.arange(G.order)[:, None], n, axis=1)
        for j, u in ((to_zero, labels_e), (fixed, labels_g)):
            gens = list(G.generators())
            gh = G.table[gens]
            assert np.array_equal(j[gh], j[gens][:, j])
            assert np.array_equal(u[gh], G.table[u[gens][:, j], u[None]])
            assert not _passes(U, j, u)


@pytest.mark.parametrize("gname", ["S3", "D4", "A4"])
def test_dense_check_agrees_on_corrupted_data_with_a_faithful_w(gname):
    """Assembled as induce does, corrupted coset data make a tensor that
    the dense check rejects exactly when the coset-data check does, for W
    the regular rep of U, which is faithful."""
    G = catalog_groups()[gname]
    F = catalog_fields()["F2"]
    rng = np.random.default_rng(1)
    for U in all_subgroups(G):
        W = regular_rep(U.as_group(), F)
        for _ in range(3):
            for what, _, j, u in _corruptions(U, rng):
                if what == "u-outside":
                    continue  # W has no matrix for an element outside U
                n, d = j.shape[1], W.dim
                out = np.zeros((G.order, n, d, n, d), dtype=np.int16)
                out[np.arange(G.order)[:, None], j, :, np.arange(n)[None, :], :] = W.T[U.local_index[u]]
                T = out.reshape(G.order, n * d, n * d)
                try:
                    Rep._of(G, F, T)._validate()
                    dense = True
                except ValueError:
                    dense = False
                assert dense == _passes(U, j, u)


def test_coset_action_is_checked_once_and_kept():
    G = catalog_groups()["A4"]
    U = all_subgroups(G)[2]
    j, u = coset_action(U)
    assert coset_action(U)[0] is j and not j.flags.writeable and not u.flags.writeable


def test_induce_raises_on_corrupted_coset_data(monkeypatch):
    """A coset lookup that put one element in the wrong coset would give
    coset data that fail the check, and induce refuses them."""
    G = catalog_groups()["S3"]
    members = all_subgroups(G)[1].members
    R, pos = coset_lookup(G, all_subgroups(G)[1])
    bad = pos.copy()
    x = next(x for x in range(G.order) if x not in R)  # not a representative
    bad[x] = (bad[x] + 1) % len(R)
    monkeypatch.setattr(groups, "coset_lookup", lambda G, U: (R, bad))
    U = Subgroup(G, members)  # a fresh object, with nothing kept on it yet
    with pytest.raises(ValueError, match="action is not a homomorphism"):
        induce(U, trivial_rep(U.as_group(), catalog_fields()["F2"]))
