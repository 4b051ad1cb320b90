import json

import pytest

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
