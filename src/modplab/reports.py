"""Report records for suite runs: canonical JSON (sorted keys, fixed
separators, newline-terminated, no timestamps) so identical inputs and
seed produce byte-identical output.
"""

from __future__ import annotations

import json

VERSION = "0.1.0"

__all__ = ["VERSION", "Case", "input_digest", "canonical_json", "make_report", "render_text"]


class Case:
    """One suite case, mutable and compared by value; `details` defaults
    to a new empty dict."""

    __slots__ = ("id", "inputs", "outcome", "details")
    __hash__ = None

    def __init__(self, id: str, inputs: dict, outcome: str, details: dict | None = None):
        self.id = id
        self.inputs = inputs
        self.outcome = outcome  # "pass" | "fail" | "error"
        self.details = {} if details is None else details

    def _values(self) -> tuple:
        return (self.id, self.inputs, self.outcome, self.details)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        return "Case(id=%r, inputs=%r, outcome=%r, details=%r)" % self._values()

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "inputs_digest": input_digest(self.inputs),
            "outcome": self.outcome,
            "details": self.details,
        }


_sha256 = None  # bound at the first digest; only verify reports take one


def _builtin_sha256():
    """The interpreter's own SHA-256, which loads no OpenSSL: `_sha2` from
    Python 3.12, `_sha256` before; hashlib's only if neither imports."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256


def input_digest(obj) -> str:
    global _sha256
    if _sha256 is None:
        _sha256 = _builtin_sha256()
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return _sha256(blob.encode("utf-8")).hexdigest()[:12]


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def make_report(suite: str, seed: int, cases: list[Case]) -> dict:
    ordered = sorted(cases, key=lambda c: c.id)
    summary = {"pass": 0, "fail": 0, "error": 0, "total": len(ordered)}
    for c in ordered:
        if c.outcome not in ("pass", "fail", "error"):
            raise ValueError(f"bad outcome {c.outcome!r} in case {c.id}")
        summary[c.outcome] += 1
    return {
        "schema": "1",
        "suite": suite,
        "seed": seed,
        "version": VERSION,
        "cases": [c.to_json() for c in ordered],
        "summary": summary,
    }


def render_text(report: dict) -> str:
    lines = [f"suite: {report['suite']}  seed: {report['seed']}  version: {report['version']}"]
    width = max((len(c["id"]) for c in report["cases"]), default=4)
    for c in report["cases"]:
        detail = json.dumps(c["details"], sort_keys=True, default=str)
        lines.append(f"{c['outcome'].upper():5s} {c['id']:<{width}s} {detail}")
    s = report["summary"]
    lines.append(
        f"total {s['total']}: {s['pass']} pass, {s['fail']} fail, {s['error']} error"
    )
    return "\n".join(lines) + "\n"
