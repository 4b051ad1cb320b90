"""Scale harness for modplab: runs suites and commands on groups larger than
the built-in catalog, one child process per case under an address-space
limit, and writes one canonical JSON file.

    python3 bench/scale.py --out FILE [--quick] [--against BENCH_<n>.json]

Children run `python -m modplab.cli` from this checkout's src/, strictly one
at a time.  The groups (S4, S5 and the direct products C4xS4, C8xS4) are
built in process from permutation tables and written, with one catalog per
(group, field), to a temporary directory; nothing is downloaded.

Sections of the output file:
  env     Python and numpy versions and the CPU count
  scale   one row per case, each child limited to RLIMIT_AS = 4 GB
  ladder  stable-frobenius on C4xS4/F3 under RLIMIT_AS = 0.4, 0.5, 0.6 and
          0.75 GB
A row records the case, its memory limit and its timeout (TIMEOUT_S wall
seconds, the same for every child), the outcome ("exit N", "signal N" or
"timeout"), the wall time, the child's peak resident set (ru_maxrss from
wait4), the SHA-256 of its stdout, the verify report's summary when stdout
is one, and the last line of stderr.  --quick runs one tiny case per
section, which the tier-1 smoke test uses to check the schema.  --out has
no default, so no run overwrites a committed BENCH_<n>.json unless asked.

--against OLD compares the new run with an earlier file, row by row: for
each (section, case, memory limit) it prints the outcome, the stdout
SHA-256 (first 16 hex digits), the peak RSS and the wall time of both
runs, and it exits 1 when a row's outcome or SHA-256 differs or a row is
in one file only.  Wall times from two runs compare only on one machine.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from modplab.catalog import cyclic_group  # noqa: E402
from modplab.groups import FinGroup  # noqa: E402

GB = 1 << 30
SCALE_LIMIT_GB = 4.0
TIMEOUT_S = 300.0  # wall seconds per child
LADDER_GB = (0.4, 0.5, 0.6, 0.75)
FIELDS = {"F2": {"p": 2}, "F3": {"p": 3}}

# (suite or "stable", group, field); a suite runs as `verify`, "stable" as
# `stable --group FILE --field F`
SCALE = [
    ("higman", "S5", "F2"),
    ("higman", "C4xS4", "F3"),
    ("higman", "C8xS4", "F3"),
    ("exact-axioms", "S5", "F2"),
    ("stable-frobenius", "C4xS4", "F3"),
    ("frobenius", "S5", "F2"),
    ("stable", "C8xS4", "F3"),
]
LADDER = ("stable-frobenius", "C4xS4", "F3")
QUICK_SCALE = [("stable", "S4", "F2")]
QUICK_LADDER = ("stable-frobenius", "C2xS3", "F3")
QUICK_LADDER_GB = (0.75,)


def symmetric_group(n: int) -> FinGroup:
    """All permutations of range(n) in lexicographic order, so the identity
    comes first; a after b is the tuple of images a[b[x]]."""
    perms = list(itertools.permutations(range(n)))
    return FinGroup.from_elements(perms, lambda a, b: tuple(a[x] for x in b))


def build_group(name: str) -> FinGroup:
    """S<n>, or C<m>xS<n> as the direct product with a cyclic group."""
    if "x" in name:
        cyc, sym = name.split("x")
        return FinGroup.direct_product(cyclic_group(int(cyc[1:])), symmetric_group(int(sym[1:])))
    return symmetric_group(int(name[1:]))


def write_inputs(tmp: str, cases) -> None:
    """One group file per group and one catalog per (group, field)."""
    for _, gname, fname in cases:
        gpath = os.path.join(tmp, f"{gname}.json")
        if not os.path.exists(gpath):
            with open(gpath, "w", encoding="utf-8") as fh:
                json.dump({"name": gname, **build_group(gname).to_json()}, fh)
        catalog = {"groups": [f"{gname}.json"], "fields": [{"name": fname, **FIELDS[fname]}]}
        with open(os.path.join(tmp, f"{gname}-{fname}.json"), "w", encoding="utf-8") as fh:
            json.dump(catalog, fh)


def argv_of(case) -> list[str]:
    """The command line of a case, its files named relative to the input
    directory, where the child runs."""
    what, gname, fname = case
    if what == "stable":
        return ["stable", "--group", f"{gname}.json", "--field", fname]
    return ["verify", "--suite", what, "--catalog", f"{gname}-{fname}.json"]


def run_child(argv: list[str], limit_gb: float, tmp: str) -> dict:
    """Run one modplab command in a child limited to limit_gb of address
    space, in the input directory tmp; its resource usage comes from
    wait4, which reaps it."""
    limit = int(limit_gb * GB)

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=SRC)
    with tempfile.TemporaryFile(dir=tmp) as out, tempfile.TemporaryFile(dir=tmp) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "modplab.cli", *argv],
            stdout=out, stderr=err, env=env, cwd=tmp, preexec_fn=limit_memory,
        )
        timed_out = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - start > TIMEOUT_S:
                proc.kill()
                timed_out = True
                _, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        out.seek(0)
        stdout = out.read()
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace").strip().splitlines()
    code = proc.returncode
    if timed_out:
        outcome = "timeout"
    elif code < 0:
        outcome = f"signal {-code} ({signal.Signals(-code).name})"
    else:
        outcome = f"exit {code}"
    row = {
        "argv": argv,
        "limit_gb": limit_gb,
        "timeout_s": TIMEOUT_S,
        "outcome": outcome,
        "wall_s": round(wall, 2),
        "maxrss_mb": round(usage.ru_maxrss / 1024, 1),
        "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
        "stderr_tail": stderr[-1][:240] if stderr else "",
    }
    try:
        row["summary"] = json.loads(stdout)["summary"]
    except (ValueError, KeyError, TypeError):
        pass  # not a verify report
    return row


def run(quick: bool) -> dict:
    scale = QUICK_SCALE if quick else SCALE
    ladder_case = QUICK_LADDER if quick else LADDER
    rungs = QUICK_LADDER_GB if quick else LADDER_GB
    result = {
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
        },
        "scale": [],
        "ladder": [],
    }
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(tmp, [*scale, ladder_case])
        for case in scale:
            row = run_child(argv_of(case), SCALE_LIMIT_GB, tmp)
            result["scale"].append({"case": "/".join(case), **row})
        for gb in rungs:
            row = run_child(argv_of(ladder_case), gb, tmp)
            result["ladder"].append({"case": "/".join(ladder_case), **row})
    return result


def compare(old: dict, new: dict) -> tuple[list[str], bool]:
    """The comparison lines of two harness files, and whether every row
    is in both with the same outcome and stdout SHA-256."""

    def rows(data):
        return {
            (section, row["case"], row["limit_gb"]): row
            for section in ("scale", "ladder")
            for row in data.get(section, [])
        }

    before, after = rows(old), rows(new)
    lines, same = [], True
    for key in [*before, *(k for k in after if k not in before)]:
        a, b = before.get(key), after.get(key)
        if a is None or b is None:
            same = False
            lines.append(f"{key[0]:6} {key[1]:32} {key[2]:5} GB  only in the {'new' if a is None else 'old'} run")
            continue
        differs = [what for what in ("outcome", "stdout_sha256") if a[what] != b[what]]
        same = same and not differs
        lines.append(
            f"{key[0]:6} {key[1]:32} {key[2]:5} GB  {a['outcome']} | {b['outcome']}"
            f"  {a['stdout_sha256'][:16]} | {b['stdout_sha256'][:16]}"
            f"  {a['maxrss_mb']:.1f} | {b['maxrss_mb']:.1f} MB  {a['wall_s']:.2f} | {b['wall_s']:.2f} s"
            f"  {'DIFFERS: ' + ', '.join(differs) if differs else 'same'}"
        )
    return lines, same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="the JSON file to write, e.g. BENCH_<n>.json")
    parser.add_argument("--quick", action="store_true", help="one tiny case per section")
    parser.add_argument("--against", help="an earlier harness file to compare the new run with")
    args = parser.parse_args(argv)
    old = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            old = json.load(fh)
    result = run(args.quick)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(result, indent=1, sort_keys=True) + "\n")
    for section in ("scale", "ladder"):
        for row in result[section]:
            print(f"{section:6} {row['case']:32} {row['limit_gb']:5} GB  {row['outcome']:18}"
                  f" {row['wall_s']:7.2f} s {row['maxrss_mb']:8.1f} MB")
    if old is None:
        return 0
    lines, same = compare(old, result)
    print(f"\nagainst {args.against} (old | new):")
    print("\n".join(lines))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
