"""Benchmark of the abcyl command-line program.

Run from the root of an abcyl checkout:

    python3 perfbench/run.py --workload persistent-dense --seed 0 --seconds 45 --trace 0

With --trace 0 it runs one client in a closed loop: each request is a
fresh `abcyl` process, started only after the previous one exits.  It
checks every output and prints the end-to-end metrics.  With --trace 1
it replays the workload's requests in-process through
abcyl.cli.main(argv), once plain and once with spans around each
layer's public functions, and prints the per-layer metrics.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Workloads and their request mixes are defined in workloads.py.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

ENTRY = "import sys; from abcyl.cli import main; sys.exit(main())"
IMPORT_PROBE = ("import time; t = time.perf_counter(); import abcyl; "
                "print(time.perf_counter() - t)")
SETUP_IMPORTS = 5         # fresh-interpreter imports behind setup_s
IMPORTTIME_RUNS = 3       # `python -X importtime` runs behind import.*_s
MIN_REQUESTS = 12         # request_s.tail needs 11; whole cycles run
TRACE_BUDGET_SHARE = 0.4  # of --seconds, for the untraced in-process replay
MAX_CYCLES = 500
REQUEST_TIMEOUT_S = 150
TAIL_BEYOND = 10
DEFAULT_SEED = 0          # the seed reference_digests.json was made from
OUT_DIR = Path(".bench_out")


def tail(samples, beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """The highest nearest-rank percentile with at least `beyond` samples
    above it: (value, percentile)."""
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"a tail needs more than {beyond} samples, got {n}")
    return sorted(samples)[n - 1 - beyond], 100.0 * (n - beyond) / n


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is one."""
    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def machine() -> dict:
    return {"nproc": os.cpu_count(), "blas_threads": blas_threads(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy")}


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def setup_seconds(env) -> float:
    """Median time of `import abcyl` in a fresh interpreter."""
    times = []
    for _ in range(SETUP_IMPORTS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                             capture_output=True, text=True, check=True)
        times.append(float(out.stdout))
    return statistics.median(times)


def cpu_children() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tally:
    """Failed checks and stdout digest mismatches over a run's requests."""

    def __init__(self, reference: dict[str, str]):
        self.reference = reference
        self.failures: list[str] = []
        self.mismatches: list[str] = []
        self.checked = 0

    def add(self, req, code, stdout: bytes, why: str | None = None) -> None:
        why = checks.check(req, code, stdout) or why
        if why:
            self.failures.append(f"{req.key}: {why}")
        if req.key in self.reference:
            self.checked += 1
            if self.reference[req.key] != checks.digest(stdout):
                self.mismatches.append(req.key)

    def info(self, attempted: int) -> dict:
        return {"failed_ratio": len(self.failures) / attempted,
                "mismatch_ratio": (len(self.mismatches) / self.checked
                                   if self.checked else 0.0),
                "digests_checked": self.checked}


def run_loop(cycles, seconds: float, env, tally: Tally):
    """Run whole cycles for `seconds`: per-request wall times, and per
    cycle the request rate and the children's CPU seconds per request."""
    walls, rates, cpus = [], [], []
    start = time.perf_counter()
    for cycle in cycles:
        if time.perf_counter() - start >= seconds and len(walls) >= MIN_REQUESTS:
            break
        cycle_wall, cpu0 = 0.0, cpu_children()
        for req in cycle:
            t0 = time.perf_counter()
            try:
                proc = subprocess.run([sys.executable, "-c", ENTRY, *req.argv],
                                      env=env, capture_output=True,
                                      timeout=REQUEST_TIMEOUT_S)
                code, stdout = proc.returncode, proc.stdout
            except subprocess.TimeoutExpired:
                code, stdout = None, b""
            walls.append(time.perf_counter() - t0)
            cycle_wall += walls[-1]
            tally.add(req, code, stdout)
        rates.append(len(cycle) / cycle_wall)
        cpus.append((cpu_children() - cpu0) / len(cycle))
    return walls, rates, cpus


def measure(cycles, seconds, env, tally: Tally):
    setup = setup_seconds(env)
    walls, rates, cpus = run_loop(cycles, seconds, env, tally)
    tail_s, tail_pct = tail(walls)
    # rates and CPU are medians over cycles, so that a few seconds of
    # contention from other tenants of the machine move one cycle, not
    # the run's figure; the client's own checks are not in the rate
    metrics = {
        "setup_s": (setup, "s"),
        "request_s.p50": (statistics.median(walls), "s"),
        "request_s.tail": (tail_s, "s"),
        "requests_per_s": (statistics.median(rates), "1/s"),
        "cpu_s_per_request": (statistics.median(cpus), "s"),
        "peak_rss_mb": (resource.getrusage(
            resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, "MB"),
    }
    return len(walls), metrics, {"tail_percentile": round(tail_pct, 1),
                                 "cycles": len(rates)}


def replay_child(cycles, traced: bool, budget_s, env) -> dict:
    job = {"cycles": [[list(r.argv) for r in c] for c in cycles],
           "trace": traced, "budget_s": budget_s}
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("replay.py"))],
                          input=json.dumps(job), env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout)


def import_layer(env) -> dict[str, float]:
    runs = []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                               "import abcyl"], env=env, capture_output=True,
                              text=True, check=True)
        runs.append(spans.import_cumulative(proc.stderr, ("abcyl", "scipy", "numpy")))
    return {p: statistics.median(r[p] for r in runs) for p in runs[0]}


def measure_traced(cycles, seconds, env, tally: Tally, out_path: Path):
    imports = import_layer(env)
    plain = replay_child(cycles, False, seconds * TRACE_BUDGET_SHARE, env)
    done = len(plain["results"])
    requests = [r for c in cycles for r in c][:done]
    traced = replay_child(cycles[:done // len(cycles[0])], True, None, env)
    if traced["missing"]:
        print("note: not found, so not traced: " + ", ".join(traced["missing"]),
              file=sys.stderr)
    for req, a, b in zip(requests, plain["results"], traced["results"]):
        tally.add(req, b["code"], b["stdout"].encode("utf-8"),
                  None if a["stdout"] == b["stdout"]
                  else "traced stdout differs from untraced stdout")
    recorded = traced["spans"]
    metrics = spans.layer_metrics(recorded, [r.command for r in requests])
    plain_s = sum(r["wall_s"] for r in plain["results"])
    traced_s = sum(r["wall_s"] for r in traced["results"])
    metrics.update({
        "import.abcyl_s": (imports["abcyl"], "s"),
        "import.scipy_s": (imports["scipy"], "s"),
        "import.numpy_s": (imports["numpy"], "s"),
        "trace.overhead_s": ((traced_s - plain_s) / done, "s"),
        "trace.overhead_pct": (100.0 * (traced_s - plain_s) / plain_s, "%"),
    })
    OUT_DIR.mkdir(exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"requests": [r.key for r in requests],
                   "untraced_wall_s": [r["wall_s"] for r in plain["results"]],
                   "summary": spans.span_summary(recorded),
                   "spans": recorded}, fh)
    return done, metrics, {"trace_file": str(out_path)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "abcyl" / "__init__.py").is_file():
        print(f"error: no abcyl source tree at {root / 'src' / 'abcyl'}; run "
              "from the root of an abcyl checkout", file=sys.stderr)
        return 2
    env = child_env(root)
    cycles = workloads.cycles(args.workload, args.seed, MAX_CYCLES)
    tally = Tally(checks.load_reference())
    if args.trace:
        out_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        n, metrics, info = measure_traced(cycles, args.seconds, env, tally, out_path)
    else:
        n, metrics, info = measure(cycles, args.seconds, env, tally)

    for line in tally.failures:
        print(f"FAILED {line}", file=sys.stderr)
    for key in tally.mismatches:
        print(f"stdout digest differs from the reference: {key}", file=sys.stderr)
    info.update(tally.info(n), requests=n, workload=args.workload,
                seed=args.seed, **machine())
    print(json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": n,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
