"""Verdicts do not depend on how a group's elements are numbered.

Each catalog group is renumbered at random, with its identity moved off
index 0, and every suite runs on both numberings.  Outcomes and case ids
must agree for every suite once subgroup members are mapped back through
the renumbering.  The details must agree too, except for `frobenius`,
whose round-trip counts depend on which subgroup of an order `catalog_reps`
meets first, and `exact-axioms`, which samples with a seeded generator.
For the same reason a `phi-machinery` case of a `perm<d>` rep keeps its
details only when renumbering leaves that first subgroup in place.
Reordering a catalog's entries changes no report byte.  C6 joins S3, D4,
Q8 and A4 so that `chi-functor`, which takes abelian groups only, has
cases.
"""

import random
import re
from collections import Counter

import numpy as np
import pytest

from modplab.catalog import catalog_fields, catalog_groups
from modplab.groups import FinGroup, all_subgroups
from modplab.reports import canonical_json, make_report
from modplab.suites import SUITES

GROUPS = ("S3", "D4", "Q8", "A4", "C6")
FIELDS = ("F2", "F3")
SAME_DETAILS = ("higman", "stable-frobenius", "phi-machinery", "chi-functor")


def renumber(G: FinGroup, rng: random.Random) -> tuple[FinGroup, np.ndarray]:
    """G with element x renamed sigma[x], and sigma; the identity never
    keeps index 0."""
    n = G.order
    sigma = np.arange(n)
    while sigma[G.identity] == 0:
        rng.shuffle(sigma)
    table = np.empty((n, n), dtype=np.int64)
    table[np.ix_(sigma, sigma)] = sigma[G.table]
    labels = None
    if G.labels:
        labels = [""] * n
        for x, new in enumerate(sigma):
            labels[new] = G.labels[x]
    return FinGroup(table, labels), sigma


def _catalog(groups: dict) -> dict:
    return {"groups": groups, "fields": {f: catalog_fields()[f] for f in FIELDS}}


@pytest.fixture(scope="module")
def numberings():
    rng = random.Random(26)
    builtin = {name: catalog_groups()[name] for name in GROUPS}
    renumbered, sigmas = {}, {}
    for name, G in builtin.items():
        renumbered[name], sigmas[name] = renumber(G, rng)
    return _catalog(builtin), _catalog(renumbered), sigmas


@pytest.fixture(scope="module")
def runs(numberings):
    """suite -> (cases on the built-in numbering, cases renumbered), each
    suite run once per numbering for all the tests below."""
    memo = {}

    def get(suite):
        if suite not in memo:
            memo[suite] = tuple(SUITES[suite](0, c) for c in numberings[:2])
        return memo[suite]

    return get


def _mapped_back(cases, sigmas) -> dict:
    """case id -> (outcome, inputs, details), with subgroup members in ids
    and inputs taken back to the built-in numbering."""
    out = {}
    for c in cases:
        old = np.argsort(sigmas[c.inputs["group"]]) if "group" in c.inputs else None

        def back(members):
            return sorted(int(old[m]) for m in members)

        inputs = dict(c.inputs)
        for key in ("subgroup", "center_part"):
            if key in inputs:
                inputs[key] = back(inputs[key])
        cid = re.sub(
            r"/o(\d+)\.([\d-]+)$",
            lambda m: "/o%s.%s" % (m[1], "-".join(map(str, back(map(int, m[2].split("-")))))),
            c.id,
        )
        out[cid] = (c.outcome, inputs, c.details)
    return out


def _moved_perm_reps(builtin, renumbered, sigmas) -> set:
    """phi-machinery case ids (field left out) of the perm<d> reps that
    `catalog_reps` induces from another subgroup after renumbering: it takes
    the first subgroup of order |G|/d in index order."""
    moved = set()
    for name, sigma in sigmas.items():
        G, H, old = builtin["groups"][name], renumbered["groups"][name], np.argsort(sigma)
        for d in (2, 3):  # phi-machinery's pool has dimension at most 3
            first = [next((S for S in all_subgroups(K) if S.order * d == K.order), None) for K in (G, H)]
            if first[0] is not None and sorted(old[list(first[1].members)]) != list(first[0].members):
                moved.add((name, f"perm{d}"))
    return moved


def test_renumbering_moves_every_identity_and_keeps_the_tables(numberings):
    builtin, renumbered, sigmas = numberings
    for name, G in renumbered["groups"].items():
        H, sigma = builtin["groups"][name], sigmas[name]
        assert G.identity != 0 and G.identity == sigma[H.identity]
        assert np.array_equal(G.table[np.ix_(sigma, sigma)], sigma[H.table])


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verdicts_survive_renumbering(suite, numberings, runs):
    builtin, renumbered, sigmas = numberings
    cases, renumbered_cases = runs(suite)
    before = {c.id: (c.outcome, c.inputs, c.details) for c in cases}
    after = _mapped_back(renumbered_cases, sigmas)
    assert sorted(after) == sorted(before)
    assert {k: v[0] for k, v in after.items()} == {k: v[0] for k, v in before.items()}
    assert Counter(v[0] for v in before.values())["pass"] == len(before)
    if suite == "phi-machinery":
        moved = _moved_perm_reps(builtin, renumbered, sigmas)
        for cid in list(before):
            _, group, _, rep = cid.split("/")
            if (group, rep) in moved:
                del before[cid], after[cid]
    if suite in SAME_DETAILS:
        assert after == before


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_catalog_order_changes_no_byte(suite, numberings, runs):
    catalog = numberings[1]
    flipped = {key: dict(reversed(list(catalog[key].items()))) for key in ("groups", "fields")}
    reports = [make_report(suite, 0, cases) for cases in (runs(suite)[1], SUITES[suite](0, flipped))]
    assert canonical_json(reports[0]) == canonical_json(reports[1])
