"""Fixtures and helpers shared by the test modules: empty memos, a cold
start, and a sys.setprofile hook that counts executions of a code object
whatever name it is called through."""

import sys
from pathlib import Path

import pytest

from modplab import catalog, covers, exact, fields, reps
from modplab.memo import Memo

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def fresh_memos(monkeypatch):
    """Swap the product memo and the memo of equivariant kernels and
    equivariant solves for empty ones with the same budgets, so that
    entries from earlier tests neither hit nor evict."""
    monkeypatch.setattr(fields, "_MATMUL_MEMO", Memo(fields.MATMUL_MEMO_CELLS))
    monkeypatch.setattr(reps, "_KERNEL_MEMO", Memo(reps.KERNEL_MEMO_CELLS))


def start_cold(monkeypatch):
    """Empty the module caches and the memo of equivariant kernels and
    solves, so that every representation, kernel and solve is rebuilt."""
    for module, memo in ((catalog, "_REP_CACHE"), (covers, "_IND_CACHE"), (exact, "_IND_SELF_CACHE")):
        monkeypatch.setattr(module, memo, {})
    monkeypatch.setattr(reps, "_KERNEL_MEMO", Memo(reps.KERNEL_MEMO_CELLS))


def runs_of(code, shapes):
    """A sys.setprofile hook that records the shape of M each time code
    starts to run, whatever name or alias it was called through."""

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is code:
            shapes.append(frame.f_locals["M"].shape)

    return hook


def profiled(hook, run):
    """run() with hook as the profile function, the previous one restored
    afterwards."""
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        return run()
    finally:
        sys.setprofile(previous)
