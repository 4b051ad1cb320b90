import hashlib
import json
import sys

import pytest

from modplab import reports
from modplab.reports import VERSION, Case, canonical_json, input_digest, make_report, render_text

DIGEST_INPUTS = [
    {},
    {"x": 1, "y": [1, 2]},
    {"group": "S3", "field": "F9", "subgroup": [0, 3]},
    {"text": "\u00e9\u4e2d" * 40, "n": -(2**70), "nested": {"a": [None, True, 1.5]}},
    ["a list", 3],
]


def test_canonical_json_is_sorted_compact_newline():
    out = canonical_json({"b": 1, "a": [2, 3]})
    assert out == '{"a":[2,3],"b":1}\n'
    # insertion order never leaks
    assert canonical_json({"a": [2, 3], "b": 1}) == out


def test_input_digest_stable():
    d = input_digest({"x": 1, "y": [1, 2]})
    assert len(d) == 12 and int(d, 16) >= 0
    assert d == input_digest({"y": [1, 2], "x": 1})
    assert d != input_digest({"x": 2, "y": [1, 2]})


def _hashlib_digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


@pytest.mark.parametrize("obj", DIGEST_INPUTS, ids=range(len(DIGEST_INPUTS)))
def test_input_digest_matches_hashlib(obj):
    assert input_digest(obj) == _hashlib_digest(obj)


def test_builtin_sha256_falls_back_to_hashlib(monkeypatch):
    # a None entry in sys.modules makes that import raise ImportError
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    sha256 = reports._builtin_sha256()
    assert sha256 is hashlib.sha256
    monkeypatch.setattr(reports, "_sha256", sha256)
    for obj in DIGEST_INPUTS:
        assert input_digest(obj) == _hashlib_digest(obj)


def test_case_to_json_shape():
    c = Case("suite/thing", {"g": "S3"}, "pass", {"n": 3})
    data = c.to_json()
    assert set(data) == {"id", "inputs_digest", "outcome", "details"}
    assert data["id"] == "suite/thing" and data["details"] == {"n": 3}


def test_make_report_orders_and_counts():
    cases = [
        Case("b", {"x": 1}, "pass"),
        Case("a", {"y": 2}, "fail", {"reason": "r"}),
        Case("c", {}, "error", {"exception": "E"}),
    ]
    rep = make_report("demo", 5, cases)
    assert rep["schema"] == "1"
    assert rep["suite"] == "demo" and rep["seed"] == 5 and rep["version"] == VERSION
    assert [c["id"] for c in rep["cases"]] == ["a", "b", "c"]
    assert rep["summary"] == {"pass": 1, "fail": 1, "error": 1, "total": 3}


def test_make_report_rejects_unknown_outcome():
    with pytest.raises(ValueError):
        make_report("demo", 0, [Case("z", {}, "maybe")])


def test_report_is_json_serializable_bytes_stable():
    rep = make_report("demo", 1, [Case("a", {"k": 1}, "pass")])
    first = canonical_json(rep)
    second = canonical_json(json.loads(first))
    assert first == second


def test_render_text_layout():
    rep = make_report(
        "demo", 5, [Case("b", {}, "pass"), Case("a", {}, "fail", {"reason": "r"})]
    )
    lines = render_text(rep).splitlines()
    assert lines[0] == f"suite: demo  seed: 5  version: {VERSION}"
    assert lines[1].startswith("FAIL  a")
    assert lines[2].startswith("PASS  b")
    assert lines[3] == "total 2: 1 pass, 1 fail, 0 error"
