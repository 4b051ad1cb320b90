"""Byte parity with the benchmark's frozen outputs: every command listed in
perfbench/digests.json, run in process from the repository root, exits 0
and prints exactly the bytes whose SHA-256 was frozen at seed 0, both on
its first run and again when every product, equivariant kernel and
equivariant solve it makes is already memoised."""

import hashlib
import json
from pathlib import Path

import pytest

from modplab import cli, fields, reps

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = json.loads((ROOT / "perfbench" / "digests.json").read_text(encoding="utf-8"))


def _digest(command, capsys):
    assert cli.main(command.split()) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_output_matches_frozen_digest(command, capsys, monkeypatch, fresh_memos):
    monkeypatch.chdir(ROOT)  # the commands name catalogs relative to the root
    assert _digest(command, capsys) == DIGESTS[command]
    products, kernels = fields._MATMUL_MEMO.keys(), reps._KERNEL_MEMO.keys()
    assert _digest(command, capsys) == DIGESTS[command]  # again, memos warm
    assert fields._MATMUL_MEMO.keys() == products  # the rerun computed no new memoised product
    assert reps._KERNEL_MEMO.keys() == kernels  # nor a new equivariant kernel
