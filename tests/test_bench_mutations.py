"""Smoke test of the mutation sweep: one row, run in a child, is caught by
its test; the whole sweep is not part of the test suite."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SWEEP = os.path.join(ROOT, "bench", "mutations.py")


def test_one_row_is_caught():
    done = subprocess.run(
        [sys.executable, SWEEP, "--only", "certificate-no-strict-component"],
        capture_output=True, timeout=300, text=True,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith("certificate-no-strict-component: caught")
    assert len(done.stdout.splitlines()) == 1


def test_an_unknown_row_is_refused():
    done = subprocess.run([sys.executable, SWEEP, "--only", "no-such-row"], capture_output=True, timeout=60, text=True)
    assert done.returncode == 2 and "unknown row no-such-row" in done.stderr
