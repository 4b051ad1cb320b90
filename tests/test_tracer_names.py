"""Every name perfbench/tracer.py wraps resolves in modplab.  The tracer
skips a name it cannot find and reports its figures as absent, so without
this test a renamed function (``linalg._rref`` behind the ``linalg.rref``
span, say) would drop its per-layer figures and no check would fail."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Names the tracer lists that modplab no longer has: every group sum is now
# one tensor product, with no Kronecker builder, and transport_stack does
# the work of the one-map wrapper frobenius_transport.  Their figures read
# as absent.
ABSENT = {
    ("modplab.fields", "FiniteField.ax_kron"),
    ("modplab.covers", "frobenius_transport"),
}


def _names(tracer):
    for module, attr, _ in tracer.SPANS + tracer.COUNTED:
        yield module, attr
    for module, cache, owner, _ in tracer.MEMOS.values():
        yield module, cache
        yield module, owner


def _resolves(module, attr):
    """As the tracer looks a name up: a module attribute, or a method
    defined on the class itself."""
    owner_name, _, name = attr.rpartition(".")
    owner = importlib.import_module(module)
    if owner_name:
        owner = getattr(owner, owner_name, None)
    return owner is not None and name in vars(owner)


def test_every_tracer_name_resolves_in_modplab(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # the tracer imports session from there
    tracer = importlib.import_module("tracer")
    names = set(_names(tracer))
    assert ("modplab.linalg", "_rref") in names
    assert {n for n in names if not _resolves(*n)} == ABSENT
