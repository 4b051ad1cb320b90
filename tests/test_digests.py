"""Byte parity with the benchmark's frozen outputs: every command listed in
perfbench/digests.json, run in process from the repository root, exits 0
and prints exactly the bytes whose SHA-256 was frozen at seed 0, both on
its first run and again when every reduction it makes is already in
linalg._rref's memo."""

import hashlib
import json
from pathlib import Path

import pytest

from modplab import cli, linalg

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = json.loads((ROOT / "perfbench" / "digests.json").read_text(encoding="utf-8"))


def _digest(command, capsys):
    assert cli.main(command.split()) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_output_matches_frozen_digest(command, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # the commands name catalogs relative to the root
    monkeypatch.setattr(linalg, "_RREF_MEMO", {})  # earlier tests may have filled it
    monkeypatch.setattr(linalg, "_rref_memo_cells", 0)
    assert _digest(command, capsys) == DIGESTS[command]
    memo = list(linalg._RREF_MEMO)
    assert _digest(command, capsys) == DIGESTS[command]  # again, memo warm
    assert list(linalg._RREF_MEMO) == memo  # the rerun computed no new reduction
