"""Smoke test of the scale harness: its quick mode runs one tiny case per
section in child processes and writes the file's full schema."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROW_KEYS = {"argv", "case", "limit_gb", "timeout_s", "outcome", "wall_s", "maxrss_mb", "stdout_sha256", "stderr_tail"}


def test_quick_mode_writes_every_section(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "scale.py"), "--quick", "--out", str(out)],
        check=True, capture_output=True, timeout=60,
    )
    data = json.loads(out.read_text(encoding="utf-8"))
    assert set(data) == {"env", "scale", "ladder"}
    assert set(data["env"]) == {"python", "numpy", "cpus"}
    assert len(data["scale"]) == 1 and len(data["ladder"]) == 1
    for row in data["scale"] + data["ladder"]:
        assert ROW_KEYS <= set(row)
        assert row["outcome"] == "exit 0"
        assert row["maxrss_mb"] > 0 and row["wall_s"] > 0
        assert len(row["stdout_sha256"]) == 64
    assert data["scale"][0]["limit_gb"] == 4.0
    assert all(row["timeout_s"] == 300.0 for row in data["scale"] + data["ladder"])
    # a verify report's summary is kept with its row
    assert data["ladder"][0]["summary"]["fail"] == 0


def test_a_run_without_out_exits_2_and_writes_nothing(tmp_path):
    """--out has no default: a run that omits it stops at argument parsing
    and leaves the working directory and the committed records alone."""
    names = [name for name in os.listdir(ROOT) if name.startswith("BENCH_")]
    records = {name: os.path.getmtime(os.path.join(ROOT, name)) for name in names}
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "scale.py"), "--quick"],
        capture_output=True, timeout=60, cwd=tmp_path, text=True,
    )
    assert proc.returncode == 2 and "--out" in proc.stderr
    assert list(tmp_path.iterdir()) == []
    assert {name: os.path.getmtime(os.path.join(ROOT, name)) for name in records} == records
    assert sorted(name for name in os.listdir(ROOT) if name.startswith("BENCH_")) == sorted(records)
