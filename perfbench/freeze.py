"""Write perfbench/digests.json: the SHA-256 of every benchmark command's
output at seed 0, as this checkout produces it.

    python3 perfbench/freeze.py

Run it from the root of a checkout whose outputs are known to be right;
run.py then counts any other output at seed 0 as a failure.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import run  # this script's directory is first on sys.path

SEED = 0


def main() -> int:
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))
    commands = [argv for w in ("verify-small", "verify-large", "cli-mix")
                for argv in run.fresh_commands(w, SEED)]
    digests = {}
    for argv in commands:
        proc = subprocess.run([sys.executable, "-m", "modplab.cli", *argv], env=env,
                              capture_output=True, timeout=run.CHILD_TIMEOUT)
        if proc.returncode != 0:
            print(f"error: {' '.join(argv)} exited {proc.returncode}", file=sys.stderr)
            return 1
        digests[" ".join(argv)] = hashlib.sha256(proc.stdout).hexdigest()
    with open(run.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(digests)} digests written to {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
