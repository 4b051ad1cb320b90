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


def _quick(out, *extra):
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "scale.py"), "--quick", "--out", str(out), *extra],
        capture_output=True, timeout=60, text=True,
    )


def test_against_flags_a_changed_sha256_and_passes_a_repeat(tmp_path):
    """--against prints both runs of every row and exits 1 only when an
    outcome or a stdout SHA-256 differs: a quick run against an earlier
    quick file agrees, and against a copy with one altered SHA-256 it
    names that row."""
    first = tmp_path / "first.json"
    assert _quick(first).returncode == 0
    data = json.loads(first.read_text(encoding="utf-8"))
    data["scale"][0]["stdout_sha256"] = "0" * 64
    altered = tmp_path / "altered.json"
    altered.write_text(json.dumps(data), encoding="utf-8")

    same = _quick(tmp_path / "again.json", "--against", str(first))
    assert same.returncode == 0, same.stdout
    lines = same.stdout.split("(old | new):\n")[1].splitlines()
    assert len(lines) == 2 and all(line.endswith("same") for line in lines)

    moved = _quick(tmp_path / "third.json", "--against", str(altered))
    assert moved.returncode == 1
    lines = moved.stdout.split("(old | new):\n")[1].splitlines()
    changed = [line for line in lines if "DIFFERS" in line]
    assert len(changed) == 1 and changed[0].startswith("scale  stable/S4/F2")
    assert "0" * 16 + " | " in changed[0] and changed[0].endswith("DIFFERS: stdout_sha256")
    assert (tmp_path / "third.json").exists()  # the new run is written before the comparison
