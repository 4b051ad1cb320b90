"""Byte parity of every suite on the benchmark catalogs: each of the six
suites, run in process at seed 0 on perfbench/catalogs/small.json and on
large.json, renders exactly the canonical JSON whose SHA-256 is frozen in
tests/suite_digests.json."""

import hashlib
import json
from pathlib import Path

import pytest

from modplab.catalog import load_catalog
from modplab.reports import canonical_json
from modplab.suites import SUITES, run_suite

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = json.loads((ROOT / "tests" / "suite_digests.json").read_text(encoding="utf-8"))
CATALOGS = ("small.json", "large.json")


def test_every_suite_and_catalog_is_frozen():
    assert sorted(DIGESTS) == sorted(f"{s} {c}" for s in SUITES for c in CATALOGS)


@pytest.mark.parametrize("catalog", CATALOGS)
@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_report_matches_frozen_digest(suite, catalog):
    report = run_suite(suite, 0, load_catalog(str(ROOT / "perfbench" / "catalogs" / catalog)))
    digest = hashlib.sha256(canonical_json(report).encode("utf-8")).hexdigest()
    assert digest == DIGESTS[f"{suite} {catalog}"]
