"""Induced modules and direct sums keep the data that define them: on()
gathers the action at the elements asked for and keeps what it gathers
within T's cells, and the dense T is built only when a caller reads it.
The gathered stacks and orbits must equal the materialised tensor's,
stacks must be read-only, and the modules must compare and hash like it;
the suites' projectivity and cover paths must never gather an induced or
a cover-source stack as long as T."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ROOT, start_cold
from modplab import reps
from modplab.catalog import catalog_fields, catalog_groups, catalog_reps, load_catalog
from modplab.covers import induced_trivial
from modplab.exact import projectivity_flags, relative_projectivity_test
from modplab.groups import Subgroup, all_subgroups
from modplab.reps import Rep, direct_sum, induce, regular_rep, trivial_rep
from modplab.suites import run_suite
from test_induce import _renumbered

LARGE = ROOT / "perfbench" / "catalogs" / "large.json"


def _built(V: Rep) -> bool:
    """Whether V's T is set, read through the slot so nothing is built."""
    try:
        Rep.T.__get__(V, Rep)
    except AttributeError:
        return False
    return True


def _dense_sum(parts) -> np.ndarray:
    """The block-diagonal tensor of the summands, assembled directly."""
    G, D = parts[0].group, sum(V.dim for V in parts)
    out = np.zeros((G.order, D, D), dtype=np.int16)
    o = 0
    for V in parts:
        out[:, o : o + V.dim, o : o + V.dim] = V.T
        o += V.dim
    return out


@pytest.mark.parametrize("renumber", [False, True])
@pytest.mark.parametrize("gname", sorted(catalog_groups()))
@settings(max_examples=4, deadline=None)
@given(data=st.data())
def test_gathered_stacks_equal_the_materialised_slices(gname, renumber, data):
    """For every subgroup U and catalog rep W, and for direct sums of pool
    reps, on(S) equals T[S] of the same module materialised afresh, for
    random element lists S with repeats, the empty list and the
    generators."""
    G = catalog_groups()[gname]
    if renumber:
        G = _renumbered(G, 3)
    F = catalog_fields()[data.draw(st.sampled_from(sorted(catalog_fields())), label="field")]
    element_lists = st.lists(st.integers(0, G.order - 1), max_size=2 * G.order)
    gens = list(G.generators())
    modules = []
    for U in all_subgroups(G):
        for W in catalog_reps(U.as_group(), F, 4).values():
            modules.append(lambda U=U, W=W: induce(U, W))
    pool = list(catalog_reps(G, F, 4).values())
    picks = data.draw(st.lists(st.sampled_from(range(len(pool))), min_size=1, max_size=4), label="sum")
    parts = [pool[i] for i in picks]
    modules.append(lambda: direct_sum(parts))
    for make in modules:
        S = data.draw(element_lists, label="elements")
        lazy, dense = make(), make().T
        assert lazy.on(gens) is lazy.on(list(gens))  # a gathered stack is kept
        for elements in (S, [], gens):
            assert np.array_equal(lazy.on(elements), dense[elements]), elements
        # T is built only once 2 |G| matrices would be kept
        assert _built(lazy) == (len(gens) + len(S) >= 2 * G.order)
        vec = data.draw(st.lists(st.integers(0, F.order - 1), min_size=lazy.dim, max_size=lazy.dim), label="v")
        lazy = make()
        assert np.array_equal(lazy.orbit(vec), Rep._of(G, F, dense).orbit(vec))
        assert not _built(lazy)
    assert np.array_equal(direct_sum(parts).T, _dense_sum(parts))


def test_gathered_stacks_are_read_only():
    G, F = catalog_groups()["A4"], catalog_fields()["F3"]
    U = all_subgroups(G)[1]
    gens = list(G.generators())
    dense = regular_rep(G, F)
    for V in (dense, induce(U, trivial_rep(U.as_group(), F, 2)), direct_sum([dense, induced_trivial(U, F)])):
        for stack in (V.on([0, 3, 3]), V.on(gens), V.on([]), V.T):
            assert not stack.flags.writeable
            with pytest.raises(ValueError):
                stack[...] = 0


def test_equality_and_hash_match_the_materialised_module():
    """A kept module and Rep._of of its materialised T are equal both ways
    and hash alike, and neither comparison nor hashing builds T."""
    for gname, fname in (("S3", "F2"), ("A4", "F3"), ("D4", "F4")):
        G, F = catalog_groups()[gname], catalog_fields()[fname]
        pool = list(catalog_reps(G, F, 4).values())
        for U in all_subgroups(G):
            W = catalog_reps(U.as_group(), F, 4)["triv"]
            for make in (lambda: induce(U, W), lambda: direct_sum([induced_trivial(U, F), pool[-1]])):
                lazy, twin = make(), Rep._of(G, F, make().T.copy())
                assert lazy == twin and twin == lazy
                assert hash(lazy) == hash(twin)
                assert not _built(lazy)
        # a twin that differs at one generator is a different module
        lazy = induce(Subgroup.trivial(G), trivial_rep(Subgroup.trivial(G).as_group(), F))
        changed = lazy.T.copy()
        changed[G.generators()[0]] = np.eye(lazy.dim, dtype=np.int16)
        assert lazy != Rep._of(G, F, changed)


def _held_cells(V: Rep) -> int:
    """The cells of V's T once built, else of its kept stacks."""
    return Rep.T.__get__(V, Rep).size if _built(V) else sum(stack.size for stack in V._stacks.values())


def test_kept_stacks_never_hold_more_than_twice_the_tensor():
    """A trace test against the trivial subgroup reads two stacks of |G|
    elements, the representatives and their inverses: a kept module ends
    it holding no more than its T.  After trace tests against every
    subgroup it holds less than twice T, and it answers as the dense
    module does."""
    for gname, fname in (("S3", "F2"), ("A4", "F3"), ("D4", "F2")):
        G, F = catalog_groups()[gname], catalog_fields()[fname]
        pool = list(catalog_reps(G, F, 4).values())
        one = Subgroup.trivial(G)
        for U in all_subgroups(G):
            for make in (
                lambda: induce(U, trivial_rep(U.as_group(), F)),
                lambda: direct_sum([induce(U, trivial_rep(U.as_group(), F)), pool[-1]]),
            ):
                P = make()
                cells = G.order * P.dim * P.dim
                relative_projectivity_test(P, one)
                assert _held_cells(P) <= cells
                P = make()
                dense = Rep._of(G, F, make().T)
                for V in all_subgroups(G):
                    assert relative_projectivity_test(P, V)[0] == relative_projectivity_test(dense, V)[0]
                    assert _held_cells(P) < 2 * cells


def _spy_builds(monkeypatch) -> list:
    """Record the type of every kept module that gathers a stack of |G|
    or more elements, as long as its T: building T is one such gather."""
    builds = []
    for cls in (reps._Induced, reps._Sum):

        def spy(self, at, original=cls._gather):
            if len(at) >= self.group.order:
                builds.append(type(self).__name__)
            return original(self, at)

        monkeypatch.setattr(cls, "_gather", spy)
    return builds


def test_projectivity_flags_build_no_induced_tensor(monkeypatch):
    """One stable-frobenius case on the large catalog: every catalog rep
    of A4 over F4 against one subgroup, from a cold start."""
    start_cold(monkeypatch)
    builds = _spy_builds(monkeypatch)
    made = []
    make = reps._Induced.__init__
    monkeypatch.setattr(reps._Induced, "__init__", lambda self, U, W: made.append(make(self, U, W)))
    catalog = load_catalog(str(LARGE))
    G, F = catalog["groups"]["A4"], catalog["fields"]["F4"]
    U = all_subgroups(G)[2]
    flags = [projectivity_flags(P, U) for P in catalog_reps(G, F, 4).values()]
    assert all(fp == fi for fp, fi in flags)
    assert made and builds == []


def test_phi_machinery_builds_no_induced_or_cover_source_tensor(monkeypatch):
    start_cold(monkeypatch)
    builds = _spy_builds(monkeypatch)
    report = run_suite("phi-machinery", 0, load_catalog(str(LARGE)))
    assert report["summary"]["total"] > 0 and report["summary"]["fail"] == 0
    assert any("source_dim" in case["details"] for case in report["cases"])
    assert builds == []
