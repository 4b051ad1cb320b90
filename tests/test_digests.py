"""Byte parity with the benchmark's frozen outputs: every command listed in
perfbench/digests.json, run in process from the repository root, exits 0
and prints exactly the bytes whose SHA-256 was frozen at seed 0."""

import hashlib
import json
from pathlib import Path

import pytest

from modplab import cli

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = json.loads((ROOT / "perfbench" / "digests.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_output_matches_frozen_digest(command, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # the commands name catalogs relative to the root
    assert cli.main(command.split()) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == DIGESTS[command]
