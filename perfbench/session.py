"""One library session: run the named suites over a catalog in passes, all
in this process, so that later passes read the module memos the first pass
filled.

    python3 perfbench/session.py --seed N --catalog FILE --passes K --budget S SUITE...

Pass 1 is cold and pass 2 warm.  Further passes run while fewer than K
have run and the next one, judged by the last, fits in S seconds.  Prints
one JSON line: per pass, per suite, its start and end on time.monotonic()
(the system-wide monotonic clock, so the caller can place them on its own
timeline), the SHA-256 of the canonical report and the number of cases that
did not pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="session")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--catalog", required=True)
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("suites", nargs="+")
    args = ap.parse_args(argv)

    import modplab.catalog
    import modplab.reports
    import modplab.suites

    catalog = modplab.catalog.load_catalog(args.catalog)
    passes = []
    start = time.monotonic()

    def next_fits() -> bool:
        now = time.monotonic()
        last = now - passes[-1][0]["start"]
        return len(passes) < args.passes and now - start + last <= args.budget

    while len(passes) < min(2, args.passes) or next_fits():
        rows = []
        for suite in args.suites:
            t0 = time.monotonic()
            report = modplab.suites.run_suite(suite, args.seed, catalog)
            text = modplab.reports.canonical_json(report)
            t1 = time.monotonic()
            summary = report["summary"]
            rows.append(
                {
                    "suite": suite,
                    "start": t0,
                    "end": t1,
                    "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
                    "cases": summary["total"],
                    "not_pass": summary["fail"] + summary["error"],
                }
            )
        passes.append(rows)
    sys.stdout.write(json.dumps({"passes": passes}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
