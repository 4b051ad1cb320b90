"""modplab benchmark: times what a user of modplab waits for, checks every
output, and prints the metrics named in BENCHMARK.json.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a modplab checkout; it imports modplab from ./src.

Workloads (BENCHMARK.json says why each was chosen):
  verify-small  `modplab verify` frobenius and exact-axioms over
                catalogs/small.json, chi-functor over the built-in catalog
  verify-large  `modplab verify` higman, stable-frobenius, phi-machinery
                over catalogs/large.json
  warm-rerun    library sessions (session.py), each running higman and
                stable-frobenius over catalogs/large.json in passes
  cli-mix       a dozen short `modplab stable` / `modplab fairness` commands

Every command but warm-rerun's is a fresh `python -m modplab.cli` process,
run strictly one at a time.  A pass runs each command of the workload once;
passes repeat while the next one, judged by the last, fits in S seconds, and
at least two run.  warm-rerun runs SESSIONS sessions one after another,
each getting S / SESSIONS seconds; a session's first pass is cold and the
later ones warm.  The seed is the suites' --seed; in cli-mix it shuffles the
command order.

Times are in reference seconds.  The benchmark and its children are pinned
to one core, and a thread times a fixed loop of Python and small numpy
operations (the probe) on that core every PROBE_PERIOD seconds.  Each
measured interval is scaled by PROBE_REF over the median probe time inside
it, which cancels most of the swings in core speed that other tenants of a
shared host cause.  (Unscaled, the same command's wall time varied by a
third from run to run on a 2-core host.)

End-to-end metrics (--trace 0), for every workload:
  wall_s       median pass time (warm passes only for warm-rerun)
  warmup_s     median cold pass: a session's first pass in warm-rerun; in
               the other workloads every pass is cold, so it equals wall_s
  cmd_p50_s    the median command of a pass, median over passes
  cmd_tail_s   the slowest command of a pass, median over passes
  setup_s      median of 7 launches of a process that imports modplab and
               builds the built-in catalog (after one unmeasured launch)
  peak_rss_mb  largest resident set of any child process
  pass_share   share of checks that passed (1 - failed/attempted)
Checks: each command's exit code, each report case, and the SHA-256 of each
output against digests.json (frozen at seed 0 by freeze.py; other seeds
compare the passes with each other).  Per-command medians, named
suite_s.<suite> for verify commands, are printed above the result.

Per-layer metrics (--trace 1): one untraced pass, then two passes under
tracer.py.  The two traced passes must agree exactly on every count and
reproduce the untraced output digests.  trace.overhead_s is the median
traced pass time minus the untraced one.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

BENCH = "perfbench"
SMALL = f"{BENCH}/catalogs/small.json"
LARGE = f"{BENCH}/catalogs/large.json"
TRACER = f"{BENCH}/tracer.py"
SESSION = f"{BENCH}/session.py"
DIGESTS = f"{BENCH}/digests.json"
MARKER = "PERFBENCH-TRACE "
COMPUTED = {"mac", "elems", "cells", "max_cols", "unknowns", "max_unknowns", "max_dim",
            "elements", "bytes"}
CHILD_TIMEOUT = 170
SETUP_LAUNCHES = 7
SETUP_CODE = (
    "import modplab.cli, modplab.catalog as c; c.catalog_groups(); c.catalog_fields(); "
    "print(modplab.cli.__file__, flush=True)"
)
PROBE_LOOP = 20_000
PROBE_MATMULS = 60
PROBE_MATRIX = np.arange(144, dtype=np.int16).reshape(12, 12) % 5
PROBE_PERIOD = 0.05
PROBE_LOOKBACK = 0.5
PROBE_REF = 0.002  # seconds one probe takes at the reference core speed

WORKLOADS = ("verify-small", "verify-large", "warm-rerun", "cli-mix")
SESSION_SUITES = ("higman", "stable-frobenius")
SESSIONS = 3  # warm-rerun sessions per run, each with its own cold pass
CLI_MIX = (
    "stable --group C3 --field F3",
    "stable --group S3 --field F9",
    "stable --group D4 --field F2",
    "stable --group Q8 --field F4",
    "stable --group C9 --field F3",
    "stable --group A4 --field F4",
    "fairness --mode sl2 --p 3 --m 1 --n 1 --oracle-N 4",
    "fairness --mode sl2 --p 2 --m 1 --n 1 --oracle-N 6",
    "fairness --mode sl2 --p 5 --m 1 --n 1 --oracle-N 3",
    "fairness --mode finite --group S3 --K 0,3 --H 0,3 --Hprime 0",
    "fairness --mode finite --group D4",
    "fairness --mode finite --group Q8",
)


def verify(suite: str, seed: int, catalog: str | None = None) -> list[str]:
    argv = ["verify", "--suite", suite, "--seed", str(seed)]
    return argv + ["--catalog", catalog] if catalog else argv


def fresh_commands(workload: str, seed: int) -> list[list[str]]:
    if workload == "verify-small":
        return [
            verify("frobenius", seed, SMALL),
            verify("exact-axioms", seed, SMALL),
            verify("chi-functor", seed),
        ]
    if workload == "verify-large":
        return [verify(s, seed, LARGE) for s in ("higman", "stable-frobenius", "phi-machinery")]
    commands = [c.split() for c in CLI_MIX]
    random.Random(seed).shuffle(commands)
    return commands


def _probe_loop():
    # Interpreter work and small-array numpy work, the two kinds modplab
    # spends most of its time on; each slows differently when the host is
    # busy.  (Large table gathers tracked modplab worse: they overcorrect.)
    s = 0
    for i in range(PROBE_LOOP):
        s += i * i % 7
    acc = PROBE_MATRIX
    for _ in range(PROBE_MATMULS):
        acc = (acc.astype(np.int64) @ PROBE_MATRIX % 5).astype(np.int16)


class Probe:
    """Samples the speed of the current core while children run on it."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (end, seconds)
        self.scales: list[float] = []  # factor applied to each interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self):
        t0 = time.monotonic()
        _probe_loop()
        t1 = time.monotonic()
        self.samples.append((t1, t1 - t0))

    def _run(self):
        while not self._stop.wait(PROBE_PERIOD):
            self._sample()

    def __enter__(self):
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def seconds(self, t0: float, t1: float) -> float:
        """The interval [t0, t1] of time.monotonic() in reference seconds,
        judged by the probes that ended in it or up to PROBE_LOOKBACK
        before it."""
        inside = [d for end, d in self.samples if t0 - PROBE_LOOKBACK <= end <= t1]
        if not inside:
            inside = [d for end, d in self.samples if end <= t1][-1:]
        self.scales.append(PROBE_REF / statistics.median(inside))
        return (t1 - t0) * self.scales[-1]


class Checks:
    """Attempted and failed checks; a digest without a frozen value must
    match the first one seen in this run."""

    def __init__(self, frozen: dict):
        self.frozen = frozen
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)

    def digest(self, key: str, sha: str):
        ref = self.frozen.get(key) or self.seen.get(key)
        if ref is None:
            self.seen[key] = sha
        else:
            self.check(sha == ref, f"output digest of {key}")

    def cases(self, key: str, total: int, not_pass: int):
        self.attempted += total
        self.failed += not_pass
        if not_pass:
            print(f"FAILED: {not_pass} of {total} cases in {key}", file=sys.stderr)


def parse_trace(stderr: bytes, scale: float) -> dict:
    """The tracer's figures, with self times scaled to reference seconds."""
    for line in reversed(stderr.decode("utf-8", "replace").splitlines()):
        if line.startswith(MARKER):
            stats = json.loads(line[len(MARKER):])
            return {k: v * scale if k.endswith(".self_s") else v for k, v in stats.items()}
    raise RuntimeError("traced child printed no trace line")


def merge(stats: list[dict]) -> dict:
    out: dict = {}
    for s in stats:
        for k, v in s.items():
            out[k] = max(out.get(k, 0), v) if ".max_" in k else out.get(k, 0) + v
    return out


class Runner:
    def __init__(self, checks: Checks, probe: Probe, env: dict):
        self.checks = checks
        self.probe = probe
        self.env = env

    def child(self, cmd: list[str]) -> tuple[subprocess.CompletedProcess, float, float]:
        """Run one child to completion; returns it, its time in reference
        seconds and the factor that scaled it."""
        t0 = time.monotonic()
        proc = subprocess.run(cmd, env=self.env, capture_output=True, timeout=CHILD_TIMEOUT)
        t1 = time.monotonic()
        seconds = self.probe.seconds(t0, t1)
        return proc, seconds, seconds / (t1 - t0)

    def fresh_pass(self, commands, traced=False) -> tuple[list[float], dict]:
        times, stats = [], []
        for argv in commands:
            prefix = [TRACER, "cli"] if traced else ["-m", "modplab.cli"]
            proc, seconds, scale = self.child([sys.executable, *prefix, *argv])
            times.append(seconds)
            key = " ".join(argv)
            self.checks.check(proc.returncode == 0, f"exit code {proc.returncode} of {key}")
            self.checks.digest(key, hashlib.sha256(proc.stdout).hexdigest())
            if argv[0] == "verify":
                try:
                    summary = json.loads(proc.stdout)["summary"]
                    self.checks.cases(key, summary["total"], summary["fail"] + summary["error"])
                except (ValueError, KeyError):
                    self.checks.check(False, f"report of {key}")
            if traced:
                stats.append(parse_trace(proc.stderr, scale))
        return times, merge(stats)

    def session(self, seed: int, passes: int, budget: float, traced=False):
        """Run session.py; returns per-pass suite times, the process's time
        and its trace figures."""
        argv = ["--seed", str(seed), "--catalog", LARGE, "--passes", str(passes),
                "--budget", str(budget), *SESSION_SUITES]
        prefix = [TRACER, "session"] if traced else [SESSION]
        proc, seconds, scale = self.child([sys.executable, *prefix, *argv])
        self.checks.check(proc.returncode == 0, f"exit code {proc.returncode} of session")
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr.decode("utf-8", "replace")[-2000:])
        rows = json.loads(proc.stdout)["passes"]
        for row in rows:
            for r in row:
                key = " ".join(verify(r["suite"], seed, LARGE))
                self.checks.digest(key, r["sha256"])
                self.checks.cases(key, r["cases"], r["not_pass"])
        times = [[self.probe.seconds(r["start"], r["end"]) for r in row] for row in rows]
        return times, seconds, parse_trace(proc.stderr, scale) if traced else {}

    def setup_seconds(self) -> float:
        t0 = time.monotonic()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE], env=self.env,
                              stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            t1 = time.monotonic()
            proc.stdout.read()
            proc.wait(timeout=CHILD_TIMEOUT)
        path = line.decode().strip()
        if proc.returncode != 0 or not path.startswith(os.path.abspath("src") + os.sep):
            raise RuntimeError(f"modplab was not imported from ./src ({path!r})")
        return self.probe.seconds(t0, t1)


def timed_run(run: Runner, workload: str, seed: int, seconds: float) -> tuple[dict, list]:
    run.setup_seconds()  # writes bytecode caches on a fresh checkout
    setup_s = statistics.median(run.setup_seconds() for _ in range(SETUP_LAUNCHES))
    if workload == "warm-rerun":
        labels = [f"suite_s.{suite} (warm)" for suite in SESSION_SUITES]
        sessions = [run.session(seed, 10**6, seconds / SESSIONS)[0] for _ in range(SESSIONS)]
        first = [sum(passes[0]) for passes in sessions]
        timed = [p for passes in sessions for p in passes[1:]]
    else:
        commands = fresh_commands(workload, seed)
        labels = [f"suite_s.{a[2]}" if a[0] == "verify" else " ".join(a) for a in commands]
        timed = []
        start = time.monotonic()
        while len(timed) < 2 or time.monotonic() - start + sum(timed[-1]) <= seconds:
            timed.append(run.fresh_pass(commands)[0])
        first = [sum(p) for p in timed]  # every pass of fresh processes is cold
    values = {
        "wall_s": statistics.median(sum(p) for p in timed),
        "warmup_s": statistics.median(first),
        "cmd_p50_s": statistics.median(statistics.median(p) for p in timed),
        "cmd_tail_s": statistics.median(max(p) for p in timed),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "pass_share": 1 - run.checks.failed / run.checks.attempted,
    }
    probes = [d for _, d in run.probe.samples]
    q = statistics.quantiles(run.probe.scales, n=4)
    info = [
        f"timed passes: {len(timed)}",
        f"probe: {len(probes)} samples, median {statistics.median(probes):.6f} s "
        f"(reference {PROBE_REF} s); scale quartiles "
        + " ".join(f"{x:.3f}" for x in q),
    ]
    info += [
        f"{label}: {statistics.median(p[i] for p in timed):.4f} s (median)"
        for i, label in enumerate(labels)
    ]
    samples = sorted(t for p in timed for t in p)
    if len(samples) > 10:  # the highest percentile with 10 samples beyond it
        k = len(samples) - 11
        info.append(f"command p{100 * (k + 1) // len(samples)} of {len(samples)} samples: "
                    f"{samples[k]:.4f} s")
    return values, info


def traced_run(run: Runner, workload: str, seed: int) -> tuple[dict, list]:
    if workload == "warm-rerun":
        _, ref_wall, _ = run.session(seed, 2, 1e9)
        runs = [run.session(seed, 2, 1e9, traced=True) for _ in range(2)]
        walls = [w for _, w, _ in runs]
        stats = [s for _, _, s in runs]
    else:
        commands = fresh_commands(workload, seed)
        ref_wall = sum(run.fresh_pass(commands)[0])
        walls, stats = [], []
        for _ in range(2):
            times, s = run.fresh_pass(commands, traced=True)
            walls.append(sum(times))
            stats.append(s)
    counts = [{k: v for k, v in s.items() if not k.endswith(".self_s")} for s in stats]
    run.checks.check(counts[0] == counts[1], "traced counts repeat exactly")
    values = dict(counts[0])
    for k in stats[0]:
        if k.endswith(".self_s"):
            values[k] = statistics.median(s.get(k, 0.0) for s in stats)
    values["trace.overhead_s"] = statistics.median(walls) - ref_wall
    info = [
        f"untraced pass {ref_wall:.4f} s, traced passes {walls[0]:.4f} s {walls[1]:.4f} s",
        "computed from call arguments, not timed: "
        + ", ".join(k for k in sorted(values) if k.rsplit(".", 1)[-1] in COMPUTED),
    ]
    return values, info


def environment(cpu: int) -> dict:
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "threads": {k: os.environ.get(k) for k in threads},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "modplab", "__init__.py")):
        print("error: run from the root of a modplab checkout (no src/modplab here)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(DIGESTS, encoding="utf-8") as fh:
        frozen = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # Pin before the probe thread and the children exist: both inherit it.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    paths = [os.path.abspath("src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    print("env: " + json.dumps(environment(cpu), sort_keys=True))
    checks = Checks(frozen)
    with Probe() as probe:
        run = Runner(checks, probe, env)
        if args.trace:
            values, info = traced_run(run, args.workload, args.seed)
            known = {m["name"] for m in wanted}
            info += [f"not in BENCHMARK.json: {k} = {values[k]}" for k in sorted(values) if k not in known]
        else:
            values, info = timed_run(run, args.workload, args.seed, args.seconds)
    for line in info:
        print(line)
    metrics = {}
    for m in wanted:
        name = m["name"]
        if name.startswith("memo.") and name not in values:
            continue  # the tracer found no such module cache
        metrics[name] = {"value": values.get(name, 0), "unit": m["unit"]}
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
