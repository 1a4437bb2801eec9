"""Tests of the benchmark's own logic: request generation, statistics,
span arithmetic, output checks and tracing transparency.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import subprocess
import sys
from collections import Counter

import pytest

import checks
import run
import spans
import workloads
from conftest import BENCH, ROOT


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_and_seeded(workload):
    a = workloads.cycles(workload, 7, 6)
    assert a == workloads.cycles(workload, 7, 6)
    assert a != workloads.cycles(workload, 8, 6)
    # every cycle holds the same request classes, whatever the seed
    kinds = {tuple(sorted(Counter(r.argv[-1] if r.command == "packet" else r.command
                                  for r in c).items()))
             for seed in (7, 8) for c in workloads.cycles(workload, seed, 6)}
    assert len(kinds) == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_requests_are_valid_for_the_seed(workload):
    from abcyl import cli, currents

    parser = cli.build_parser()
    for cycle in workloads.cycles(workload, 3, 20):
        for req in cycle:
            args = parser.parse_args(list(req.argv))
            if args.command == "verify":
                assert 0 <= args.seed <= 3
                continue
            d = cli._gather_params(args)
            if args.command == "packet":
                assert d.nu == 0.0
                packet = currents.GaussianPacket(lam=args.lam, k0=args.k0,
                                                 width=args.width)
                zs = [args.zmin + i * (args.zmax - args.zmin) / (args.zsteps - 1)
                      for i in range(args.zsteps)]
                currents.check_resolution(packet, currents.MomentumRule(args.korder),
                                          d, args.t, zs)
            else:
                assert d.nu > 0.0
            if args.command == "sweep":
                assert 0.0 < args.start < args.stop < 0.5


def test_tail_is_highest_percentile_with_ten_beyond():
    samples = [float(x) for x in range(100, 0, -1)]
    assert run.tail(samples) == (90.0, 90.0)
    value, pct = run.tail([5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0, 11.0])
    assert value == 1.0 and math.isclose(pct, 100.0 / 11)
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


def test_self_times_of_nested_spans_sum_to_the_root():
    synthetic = [  # (id, name, start, end, parent, request, attrs)
        (2, "grandchild", 2.0, 3.0, 1, 0, {}),
        (1, "child_a", 1.0, 4.0, 0, 0, {}),
        (3, "child_b", 5.0, 9.0, 0, 0, {}),
        (0, "root", 0.0, 10.0, None, 0, {}),
    ]
    self_s = spans.self_times(synthetic)
    assert self_s == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}
    assert math.isclose(sum(self_s.values()), 10.0)


def test_self_time_counts_overlapping_children_once():
    synthetic = [(0, "root", 0.0, 10.0, None, 0, {}),
                 (1, "a", 1.0, 6.0, 0, 0, {}),
                 (2, "b", 4.0, 12.0, 0, 0, {})]
    assert spans.self_times(synthetic)[0] == pytest.approx(1.0)


def test_import_cumulative_takes_outermost_entries():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       200 |        300 |     numpy",
        "import time:        50 |         50 |       scipy._lib",
        "import time:        20 |         20 |         numpy.linalg",
        "import time:       400 |        470 |     scipy.integrate",
        "import time:        10 |        780 |   abcyl",
    ])
    got = spans.import_cumulative(stderr, ("abcyl", "scipy", "numpy"))
    assert got == pytest.approx({"abcyl": 780e-6, "scipy": 470e-6,
                                 "numpy": 320e-6})


def _replay(cycles, traced):
    job = {"cycles": [[list(r.argv) for r in c] for c in cycles],
           "trace": traced, "budget_s": None}
    proc = subprocess.run([sys.executable, str(BENCH / "replay.py")],
                          input=json.dumps(job), capture_output=True, text=True,
                          check=True, cwd=ROOT, env=run.child_env(ROOT))
    return json.loads(proc.stdout)


def test_traced_stdout_matches_untraced_and_passes_checks():
    cycle = [
        workloads.Request(("persistent", "--mu", "250", "--nu", "1", "--alpha", "50",
                           "--beta", "0.1")),
        workloads.Request(("sweep", "--mu", "250", "--nu", "1", "--alpha", "50",
                           "--param", "beta", "--start", "0.1", "--stop", "0.3",
                           "--steps", "3", "--observable", "persistent_exact")),
        workloads.cycles("packet-verify", 0, 1)[0][0],
    ]
    assert cycle[2].command == "packet"
    plain, traced = _replay([cycle], False), _replay([cycle], True)
    assert traced["missing"] == []
    assert traced["spans"] and not plain["spans"]
    for req, a, b in zip(cycle, plain["results"], traced["results"]):
        out = b["stdout"].encode()
        assert checks.digest(a["stdout"].encode()) == checks.digest(out)
        assert checks.check(req, b["code"], out) is None
    metrics = spans.layer_metrics(traced["spans"], [r.command for r in cycle])
    assert metrics["params.validate_regime.calls_per_persistent"] == (6.0, "count")
    assert metrics["spectrum.sea_builds_per_persistent"] == (4.0, "count")
    assert metrics["currents.grid_reuse_ratio"] == (0.125, "ratio")


def test_checks_reject_a_wrong_persistent_current():
    req = workloads.Request(("persistent", "--mu", "250", "--nu", "1",
                             "--alpha", "50", "--beta", "0.1"))
    value, n_e, _ = checks.persistent_exact_sum(250.0, 1.0, 0.1, 50.0)
    good = f"method,value,N_e\nexact,{value!r},{n_e}\n".encode()
    bad = f"method,value,N_e\nexact,{value * (1 + 1e-9)!r},{n_e}\n".encode()
    assert checks.check(req, 0, good) is None
    assert "persistent exact" in checks.check(req, 0, bad)
    assert "exit code" in checks.check(req, 2, good)


def test_benchmark_json_declares_every_metric_the_benchmark_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    declared = {m["name"]: m["unit"] for m in doc["per_layer"]}
    layer = {name: unit for name, (_, unit) in spans.layer_metrics([], []).items()}
    extra = {"import.abcyl_s": "s", "import.scipy_s": "s", "import.numpy_s": "s",
             "trace.overhead_s": "s", "trace.overhead_pct": "%"}
    assert declared == {**layer, **extra}


def test_persistent_check_allows_term_rounding_at_a_zero_crossing():
    # this beta puts the alpha=200 current at -6.4e-5, where one-ulp
    # differences between numpy and math in single chi terms exceed 1e-12
    # of the value; the request's real output must pass
    req = workloads.Request(("sweep", "--mu", "250", "--nu", "1", "--alpha", "200",
                             "--param", "beta", "--start", "0.12883976470588235",
                             "--stop", "0.2", "--steps", "2",
                             "--observable", "persistent_exact"))
    beta = 0.12883976470588235
    other, _, _ = checks.persistent_exact_sum(250.0, 1.0, 0.2, 200.0)
    out = (f"beta,persistent_exact\n{beta!r},-6.392159358781573e-05\n"
           f"0.2,{other!r}\n").encode()
    value, _, atol = checks.persistent_exact_sum(250.0, 1.0, beta, 200.0)
    assert abs(value + 6.392159358781573e-05) > 1e-12 * abs(value)
    assert abs(value + 6.392159358781573e-05) <= atol
    assert checks.check(req, 0, out) is None
