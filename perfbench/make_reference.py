"""Record the stdout digests of the default-seed requests of every workload.

Run from the root of an abcyl checkout after an intended output change:

    python3 perfbench/make_reference.py

It runs each request through the real CLI, refuses to write anything if
a physics check fails, and rewrites reference_digests.json.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import checks
import run
import workloads

# more cycles than one benchmark run of --seconds 45 reaches
CYCLES = {"persistent-dense": 20, "packet-verify": 7}


def main() -> int:
    env = run.child_env(Path.cwd())
    digests = {}
    for workload, count in CYCLES.items():
        for cycle in workloads.cycles(workload, run.DEFAULT_SEED, count):
            for req in cycle:
                proc = subprocess.run([sys.executable, "-c", run.ENTRY, *req.argv],
                                      env=env, capture_output=True)
                why = checks.check(req, proc.returncode, proc.stdout)
                if why:
                    print(f"error: {req.key}: {why}", file=sys.stderr)
                    return 1
                digests[req.key] = checks.digest(proc.stdout)
    with open(checks.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(digests)} digests written to {checks.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
