import json
from collections import Counter

import pytest
from conftest import ROOT, profiled, start_cold

from modplab import covers, linalg, reps, suites
from modplab.linalg import Matrix
from modplab.reports import canonical_json
from modplab.suites import SUITES, run_suite


def test_suite_registry():
    assert set(SUITES) == {
        "frobenius",
        "phi-machinery",
        "higman",
        "exact-axioms",
        "stable-frobenius",
        "chi-functor",
    }
    with pytest.raises(ValueError):
        run_suite("no-such-suite")


def test_chi_suite_passes_and_reports():
    rep = run_suite("chi-functor", seed=3)
    assert rep["suite"] == "chi-functor" and rep["seed"] == 3
    assert rep["summary"]["fail"] == 0 and rep["summary"]["error"] == 0
    assert rep["summary"]["pass"] == rep["summary"]["total"] == len(rep["cases"])
    ids = [c["id"] for c in rep["cases"]]
    assert ids == sorted(ids)
    # aggregate surjection tally satisfies the sampling floor
    agg = {c["id"]: c for c in rep["cases"]}["chi/zz-surjection-total"]
    assert agg["details"]["surjections_total"] >= 20


def test_higman_suite_case_grid():
    rep = run_suite("higman", seed=0)
    assert rep["summary"]["fail"] == 0 and rep["summary"]["error"] == 0
    ids = {c["id"] for c in rep["cases"]}
    # one case per (group, field) over the standard grid
    assert "higman/S3/F3" in ids and "higman/A4/F9" in ids
    assert len(ids) == 36


def test_suite_reports_are_deterministic():
    a = canonical_json(run_suite("chi-functor", seed=9))
    b = canonical_json(run_suite("chi-functor", seed=9))
    assert a == b
    assert json.loads(a)["seed"] == 9


def test_custom_catalog_restricts_grid(tmp_path):
    cat = {
        "groups": [{"ref": "C3"}],
        "fields": [{"name": "F3", "p": 3}, {"name": "F4", "p": 2, "k": 2}],
    }
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(cat))
    rep = run_suite("frobenius", seed=1, catalog=str(path))
    assert rep["summary"]["fail"] == 0 and rep["summary"]["error"] == 0
    gnames = {c["id"].split("/")[1] for c in rep["cases"]}
    assert gnames == {"C3"}


def test_custom_catalog_pgroup_filter(tmp_path):
    cat = {
        "groups": [{"ref": "C3"}, {"ref": "S3"}],
        "fields": [{"name": "F3", "p": 3}],
    }
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(cat))
    rep = run_suite("phi-machinery", seed=1, catalog=str(path))
    assert rep["summary"]["fail"] == 0 and rep["summary"]["error"] == 0
    gnames = {c["id"].split("/")[1] for c in rep["cases"]}
    assert gnames == {"C3"}  # S3 is not a 3-group, so it is filtered out


@pytest.mark.parametrize("p", [2, 3, 5])
def test_exact_axioms_passes_on_the_trivial_group(tmp_path, p):
    cat = {"groups": [{"name": "E", "table": [[0]]}], "fields": [{"p": p}]}
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(cat))
    rep = run_suite("exact-axioms", seed=0, catalog=str(path))
    assert rep["summary"]["fail"] == 0 and rep["summary"]["error"] == 0
    assert rep["summary"]["pass"] == rep["summary"]["total"] > 0


def test_induce_over_its_budget_is_an_error_case(monkeypatch):
    from modplab import reps
    from modplab.catalog import cyclic_group
    from modplab.fields import FiniteField

    # C2's perm2 (2 x 2 x 2 cells) fits; triv2 induced from 1 (2 x 4 x 4) does not
    monkeypatch.setattr(reps, "INDUCE_CELLS", 31)
    catalog = {"groups": {"C2": cyclic_group(2)}, "fields": {"F2": FiniteField(2)}}
    rep = run_suite("frobenius", catalog=catalog)
    errors = [c for c in rep["cases"] if c["outcome"] == "error"]
    assert errors and rep["summary"]["pass"] == len(rep["cases"]) - len(errors)
    assert all("32 cells, over the budget of 31" in c["details"]["exception"] for c in errors)


def _sweep_catalogs():
    """Small groups built here from their tables: C5 and C7, whose pools
    over F2 are only {triv, triv2}, and C2^3 and S3 x C3 over F2 and F3."""
    from modplab.catalog import cyclic_group, sym3
    from modplab.fields import FiniteField
    from modplab.groups import FinGroup

    C2 = cyclic_group(2)
    F2, F3 = FiniteField(2), FiniteField(3)
    return {
        "C5-C7": {"groups": {"C5": cyclic_group(5), "C7": cyclic_group(7)}, "fields": {"F2": F2}},
        "C2^3-S3xC3": {
            "groups": {
                "C2^3": FinGroup.direct_product(FinGroup.direct_product(C2, C2), C2),
                "S3xC3": FinGroup.direct_product(sym3(), cyclic_group(3)),
            },
            "fields": {"F2": F2, "F3": F3},
        },
    }


@pytest.mark.parametrize("suite", sorted(SUITES))
@pytest.mark.parametrize("cname", ["C5-C7", "C2^3-S3xC3"])
def test_every_suite_passes_on_small_generated_groups(cname, suite):
    """No case fails or errors: running out of candidate sequences in
    exact-axioms is not a failed invariant."""
    rep = run_suite(suite, seed=0, catalog=_sweep_catalogs()[cname])
    bad = [(c["id"], c["outcome"], c["details"]) for c in rep["cases"] if c["outcome"] != "pass"]
    assert bad == []


def test_a_case_over_the_dense_cell_budget_reads_error(monkeypatch):
    """Higman's trace operator on the regular module of S3 has 36 ** 2
    cells, over a budget of 100: the case is an error that names the
    budget, and C2's 4 ** 2 still passes."""
    from modplab import linalg

    monkeypatch.setattr(linalg, "SYSTEM_CELLS", 100)
    cases = {c["id"]: c for c in run_suite("higman")["cases"]}
    assert cases["higman/C2/F2"]["outcome"] == "pass"
    refused = cases["higman/S3/F2"]
    assert refused["outcome"] == "error"
    assert "cells, over the budget of 100" in refused["details"]["exception"]
    assert refused["details"]["where"] == "linalg:check_cells"


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_a_group_over_the_subgroup_cap_is_an_error_case(suite):
    """No suite raises on a catalog group too large to enumerate: every
    case that does not pass is an error that names the cap and where it
    was hit."""
    from modplab.catalog import cyclic_group
    from modplab.fields import FiniteField

    catalog = {"groups": {"C194": cyclic_group(194)}, "fields": {"F2": FiniteField(2)}}
    rep = run_suite(suite, catalog=catalog)
    bad = [c for c in rep["cases"] if c["outcome"] != "pass"]
    assert all(c["outcome"] == "error" for c in bad)
    assert all("exceeds enumeration cap 192" in c["details"]["exception"] for c in bad)
    assert all(c["details"]["where"] == "groups:all_subgroups" for c in bad)
    if suite in ("frobenius", "stable-frobenius"):  # one case for the whole subgroup loop
        prefix = suite.split("-")[0]
        assert [c["id"] for c in bad] == [f"{prefix}/C194/F2/subgroups"]
    elif suite != "phi-machinery":  # 194 is no prime power, so phi has no case
        assert len(bad) == 1


def test_a_failed_check_names_its_function():
    """_ensure is skipped: the reason's place is the check that called it."""
    from modplab.suites import _check_total, _run_case

    cases = []
    _run_case(cases, "total", {}, _check_total, 3, 50, "key", "things counted")
    (case,) = cases
    assert case.outcome == "fail"
    assert case.details == {"reason": "only 3 things counted", "where": "suites:_check_total"}


# ---- work budget: each fact once per case ----


def test_chi_functor_computes_each_eigenspace_once_and_ranks_no_zero_map(monkeypatch, fresh_memos):
    """Cold at seed 0: one character_eigenspace call per (pool rep,
    character) of each case, 190 in all, and three for the regular rep of
    C3 over F4; _check_surjections asks the rank of each distinct candidate
    of a nonzero hom space at most once, and of no zero map."""
    start_cold(monkeypatch)
    eigen, surj = covers.character_eigenspace.__code__, suites._check_surjections.__code__
    rank = Matrix.rank.__code__
    calls = Counter()
    ranked = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in (eigen, surj):
            calls[frame.f_code] += 1
        elif event == "call" and frame.f_code is rank and frame.f_back.f_code is surj:
            caller = frame.f_back.f_locals
            candidate = frame.f_locals["self"].a.tobytes()
            ranked.append((calls[surj], caller["n1"], caller["n2"], caller["hs"].dim, candidate))

    report = profiled(hook, lambda: run_suite("chi-functor", seed=0))
    assert report["summary"]["pass"] == report["summary"]["total"]
    assert calls[eigen] == 190 + 3
    assert ranked and all(dim > 0 for _, _, _, dim, _ in ranked)
    assert len(set(ranked)) == len(ranked)


def test_exact_axioms_spans_each_drawn_vector_once(monkeypatch, fresh_memos):
    """Cold at seed 0 over the small benchmark catalog, no
    _random_proper_subspaces call spans a vector twice."""
    start_cold(monkeypatch)
    draw, span = suites._random_proper_subspaces.__code__, reps.cyclic_span.__code__
    draws = 0
    spans = []

    def hook(frame, event, arg):
        nonlocal draws
        if event == "call" and frame.f_code is draw:
            draws += 1
        elif event == "call" and frame.f_code is span and frame.f_back.f_code is draw:
            spans.append((draws, tuple(frame.f_locals["v"])))

    small = str(ROOT / "perfbench" / "catalogs" / "small.json")
    report = profiled(hook, lambda: run_suite("exact-axioms", seed=0, catalog=small))
    assert report["summary"]["pass"] == report["summary"]["total"]
    assert spans and len(set(spans)) == len(spans)


def test_chi_functor_ranks_each_qualifying_vector_once(monkeypatch, fresh_memos):
    """Cold at seed 0: _check_qualifying_sets runs one reduction per vector
    it checks (190 in all), the rank of the vector's orbit, whichever
    function below it asks for a reduction."""
    start_cold(monkeypatch)
    rref, check = linalg._rref.__code__, suites._check_qualifying_sets.__code__
    reductions = 0

    def hook(frame, event, arg):
        nonlocal reductions
        if event == "call" and frame.f_code is rref:
            caller = frame.f_back
            while caller is not None and caller.f_code is not check:
                caller = caller.f_back
            reductions += caller is not None

    report = profiled(hook, lambda: run_suite("chi-functor", seed=0))
    assert report["summary"]["pass"] == report["summary"]["total"]
    vectors = sum(c["details"].get("omega_vectors", 0) for c in report["cases"])
    assert vectors == 190 and reductions == vectors


def test_phi_machinery_builds_each_cover_map_once(monkeypatch, fresh_memos):
    """Cold, the phi case of jordan3 on C9 over F9, whose cover is
    assembled at 7 of its 728 nonzero vectors: each vector's qualifying
    set is found once, each (vector, subgroup) map is built once, and each
    subgroup's stack is checked with one intertwines call."""
    from modplab.catalog import catalog_fields, catalog_groups, catalog_reps

    start_cold(monkeypatch)
    K, F = catalog_groups()["C9"], catalog_fields()["F9"]
    V = catalog_reps(K, F, 3)["jordan3"]
    qualify, build, check = covers.qualifying_subgroups.__code__, covers.cover_map.__code__, reps.intertwines.__code__
    asked, built, checked = Counter(), Counter(), Counter()

    def hook(frame, event, arg):
        if event != "call":
            return
        if frame.f_code is qualify:
            asked[tuple(frame.f_locals["v"])] += 1
        elif frame.f_code is build:
            U = frame.f_locals["U"].members
            built.update((tuple(v), U) for v in frame.f_locals["vectors"])
        elif frame.f_code is check and frame.f_back.f_code is build:
            checked[frame.f_back.f_locals["U"].members] += 1

    details = profiled(hook, lambda: suites._phi_rep(K, F, V))
    assert details["blocks"] > 0
    assert len(asked) == 728 and set(asked.values()) == {1}
    assert len(built) == details["anchored"] and set(built.values()) == {1}
    assert set(checked) == {U for _, U in built} and set(checked.values()) == {1}


def _jordan3():
    from modplab.catalog import catalog_fields, catalog_groups, catalog_reps

    K, F = catalog_groups()["C9"], catalog_fields()["F9"]
    return K, F, catalog_reps(K, F, 3)["jordan3"]


def test_phi_machinery_ranks_the_assembled_cover_once(monkeypatch, fresh_memos):
    """Cold, the phi case of jordan3 on C9 over F9 asks the rank of its one
    assembled map once, inside assemble_cover, and of no other RepMap."""
    start_cold(monkeypatch)
    K, F, V = _jordan3()
    rank = reps.RepMap.rank.__code__
    callers = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is rank:
            callers.append(frame.f_back.f_code.co_name)

    details = profiled(hook, lambda: suites._phi_rep(K, F, V))
    assert details["blocks"] > 0
    assert callers == ["assemble_cover"]


def test_phi_case_fails_when_the_assembled_map_falls_short_of_onto(monkeypatch, fresh_memos):
    """With every RepMap rank one short of the target, assemble_cover
    rejects the assembled map, and the phi case of jordan3, which has no
    free summand, reads fail."""
    K, F, V = _jordan3()
    monkeypatch.setattr(covers.RepMap, "rank", lambda self: V.dim - 1)
    cases = []
    suites._run_case(cases, "phi/C9/F9/jordan3", {}, suites._phi_rep, K, F, V)
    assert cases[0].outcome == "fail"
    assert cases[0].details["reason"] == "coverage failed although no free summand is present"


def test_chi_functor_reduces_each_distinct_projector_once(monkeypatch, fresh_memos):
    """Cold at seed 0: _check_projectors checks 190 projectors, 26 of them
    distinct by field and codes, and reduces the column space of each
    distinct one once, counted as _rref calls under column_space."""
    start_cold(monkeypatch)
    rref, span = linalg._rref.__code__, linalg.column_space.__code__
    check, eigen = suites._check_projectors.__code__, covers.character_eigenspace.__code__
    projectors = []
    reductions = 0

    def hook(frame, event, arg):
        nonlocal reductions
        if event == "return" and frame.f_code is eigen and frame.f_back.f_code is check:
            P = arg[1]
            projectors.append((P.field.key(), P.a.shape, P.a.tobytes()))
        elif event == "call" and frame.f_code is rref:
            caller = frame.f_back
            while caller is not None and caller.f_code is not span:
                caller = caller.f_back
            reductions += caller is not None and caller.f_back.f_code is check

    report = profiled(hook, lambda: run_suite("chi-functor", seed=0))
    assert report["summary"]["pass"] == report["summary"]["total"]
    assert len(projectors) == 190
    assert reductions == len(set(projectors)) == 26
