"""Mutation sweep over modplab's internal checks: each row makes one check
always pass, in a copy of src/, and runs the one test that must then fail.

    python3 bench/mutations.py [--only NAME ...]

For each row the sweep copies src/ to a temporary directory, replaces the
row's exact source text in its file (the text must occur there once) with
text that makes the check always pass, and runs the row's test with pytest
from this checkout's tests/, with PYTHONPATH and pytest's pythonpath
pointing at the copy.  The row is "caught" when that test fails and
"survived" when it passes.  A row may be listed as an expected survivor,
with the reason its check decides nothing; it is then reported as such and
is not a failure.  The exit status is 1 when any other row survives, an
expected survivor is caught, or a row's text is not found exactly once,
and 0 otherwise.  Rows run one at a time; the whole sweep takes about
35 s on a 2-core machine.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TIMEOUT_S = 600.0  # wall seconds per test run


class Mutation(NamedTuple):
    name: str
    file: str  # relative to src/modplab
    text: str  # the exact source text of the check
    mutant: str  # the same check made to pass always
    test: str  # the pytest node id that must fail
    survives: str = ""  # for an expected survivor, why no test can catch it


MUTATIONS = [
    Mutation(
        "check-split-composite",
        "exact.py",
        "    if composite != Matrix.identity(composite.field, composite.rows):",
        "    if False:",
        "tests/test_exact.py::test_a_tampered_split_witness_raises[unit_retraction-composite]",
    ),
    Mutation(
        "check-split-equivariance",
        "exact.py",
        "    if not intertwines(S, T, X.a, U):",
        "    if False:",
        "tests/test_exact.py::test_a_tampered_split_witness_raises[relative_projectivity_test-equivariance]",
    ),
    Mutation(
        "suspension-section-check",
        "exact.py",
        '    _check_split("suspension section", "section the projection", split, proj.target, proj.source, sigma, U)',
        "    pass",
        "tests/test_exact.py::test_a_tampered_split_witness_raises[suspension_section-composite]",
    ),
    Mutation(
        "stable-hom-factoring-maps",
        "exact.py",
        "    if not total.contains_space(factoring):",
        "    if False:",
        "tests/test_exact.py::test_stable_hom_rejects_factoring_maps_outside_the_hom_space",
    ),
    Mutation(
        "averaging-section-is-section",
        "exact.py",
        "    if f.matrix @ sigma != Matrix.identity(field, W.dim):",
        "    if False:",
        "tests/test_exact.py::test_averaging_section_rejects_a_bad_input[no-section]",
    ),
    Mutation(
        "averaging-section-equivariant",
        "exact.py",
        "    if not intertwines(W, V, sigma.a, Uprime):",
        "    if False:",
        "tests/test_exact.py::test_averaging_section_rejects_a_bad_input[not-u-prime-equivariant]",
    ),
    Mutation(
        "averaging-section-index",
        "exact.py",
        "    if index % field.p == 0:",
        "    if False:",
        "tests/test_exact.py::test_averaging_section_rejects_a_bad_input[index-divisible-by-p]",
    ),
    # qualifying_subgroups checks C with the same condition, so the raise
    # line makes the text occur once
    Mutation(
        "extend-central",
        "covers.py",
        '    if C.parent != G or not C.is_central():\n        raise ValueError("C must be a central subgroup of the ambient group")',
        '    if False:\n        raise ValueError("C must be a central subgroup of the ambient group")',
        "tests/test_covers.py::test_extend_rejects_a_bad_input[C-not-central]",
    ),
    Mutation(
        "extend-character-domain",
        "covers.py",
        "    if chi.domain != C or chi.field != V.field:",
        "    if False:",
        "tests/test_covers.py::test_extend_rejects_a_bad_input[character-not-on-C]",
    ),
    Mutation(
        "extend-rep-of-K",
        "covers.py",
        "    if V.group != K.as_group():",
        "    if False:",
        "tests/test_covers.py::test_extend_rejects_a_bad_input[V-not-of-K]",
    ),
    Mutation(
        "extend-overlap",
        "covers.py",
        "    if not np.array_equal(V.on(local[overlap]), scalars * np.eye(V.dim, dtype=np.int16)):",
        "    if False:",
        "tests/test_covers.py::test_extend_rejects_incompatible_overlap",
    ),
    Mutation(
        "extend-factorization",
        "covers.py",
        "    if not in_K.any(axis=1).all():",
        "    if False:",
        "tests/test_covers.py::test_extend_by_central_character_frozen",
        survives="C is central, so the join is the product set KC and every element factors",
    ),
    Mutation(
        "bruteforce-window",
        "fairness.py",
        "    if a not in oracle_exponents(m, n, N):",
        "    if False:",
        "tests/test_fairness.py::test_bruteforce_refuses_exactly_the_exponents_outside_the_window",
    ),
    Mutation(
        "dominates",
        "fairness.py",
        "        return (\n            self.upper >= other.upper",
        "        return True or (\n            self.upper >= other.upper",
        "tests/test_fairness.py::test_dominates_is_componentwise_at_least",
    ),
    Mutation(
        "certificate-no-refinement",
        "fairness.py",
        "    if n2 <= n:",
        "    if False:",
        "tests/test_fairness.py::test_verify_certificate_rejects_a_tampered_certificate[n_prime-below-1]",
    ),
    Mutation(
        "certificate-not-dominating",
        "fairness.py",
        "        if not lhs.dominates(rhs):",
        "        if False:",
        "tests/test_fairness.py::test_verify_certificate_rejects_an_overlap_that_does_not_dominate",
    ),
    Mutation(
        "certificate-equal-triples",
        "fairness.py",
        "        if lhs == rhs:\n            return False",
        "        if lhs == rhs:\n            pass",
        "tests/test_fairness.py::test_verify_certificate_rejects_a_tampered_certificate[equal-triples-at-a-0]",
        survives="at equal triples every component is marked non-strict, so a later return refuses the certificate",
    ),
    Mutation(
        "certificate-claimed-strict",
        "fairness.py",
        "        if comp.strict_for_all_a and not strict_seen[comp.name]:",
        "        if False:",
        "tests/test_fairness.py::test_verify_certificate_rejects_a_tampered_certificate[lower-claimed-strict]",
    ),
    Mutation(
        "certificate-no-strict-component",
        "fairness.py",
        "    if not any(c.strict_for_all_a for c in cert.components):",
        "    if False:",
        "tests/test_fairness.py::test_verify_certificate_rejects_a_tampered_certificate[no-strict-component]",
    ),
]


def run_row(row: Mutation) -> str:
    """"caught", "survived" or "text not found once", for one row."""
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
        path = os.path.join(src, "modplab", row.file)
        with open(path, encoding="utf-8") as fh:
            code = fh.read()
        if code.count(row.text) != 1:
            return "text not found once"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(code.replace(row.text, row.mutant))
        # pyproject.toml puts this checkout's src/ on pytest's path; -o
        # puts the copy there instead
        env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "-o", f"pythonpath={src}", row.test],
            cwd=ROOT, env=env, capture_output=True, timeout=TIMEOUT_S,
        )
    # pytest exits 1 when a test fails; 4 and 5 mean the node id is wrong
    if done.returncode not in (0, 1):
        return f"pytest exit {done.returncode}"
    return "caught" if done.returncode == 1 else "survived"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", action="append", metavar="NAME", help="run this row only (repeatable)")
    args = parser.parse_args(argv)
    names = [row.name for row in MUTATIONS]
    unknown = sorted(set(args.only or ()) - set(names))
    if unknown:
        parser.error(f"unknown row {', '.join(unknown)}; rows are {', '.join(names)}")
    rows = [row for row in MUTATIONS if not args.only or row.name in args.only]
    bad = 0
    for row in rows:
        outcome = run_row(row)
        expected = "survived" if row.survives else "caught"
        note = f"  (expected survivor: {row.survives})" if row.survives else ""
        print(f"{row.name}: {outcome}{note}  [{row.test}]", flush=True)
        bad += outcome != expected
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
