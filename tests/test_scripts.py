"""Smoke test: each script in scripts/ runs on small inputs and writes CSV."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_script(script, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *argv], capture_output=True, text=True, env=env,
                          timeout=120)


@pytest.mark.parametrize("script,argv", [
    ("packet_propagation.py", ("--korder", "450", "--times", "0")),
    ("persistent_methods.py", ("--alpha", "5", "--points", "3")),
    ("saturation_scan.py", ("--lmax", "10.5")),
])
def test_script_writes_csv(script, argv):
    proc = _run_script(script, *argv)
    assert proc.returncode == 0, proc.stderr
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert len(rows) >= 2
    assert all(len(row) == len(rows[0]) for row in rows)


@pytest.mark.parametrize("script,argv,code", [
    ("packet_propagation.py", ("--korder", "200", "--times", "0"), 4),
    ("saturation_scan.py", ("--mu", "-1"), 2),
    ("packet_propagation.py", ("--times", "1e308"), 2),
])
def test_script_refusal_exits_like_the_cli(script, argv, code):
    # a refusal ended in a traceback with exit 1
    proc = _run_script(script, *argv)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1].startswith("error: ")


def test_overflowing_time_window_is_refused_before_any_output():
    # the CSV header and two numpy RuntimeWarnings from the overflowing
    # +/-(|t| + 8/width) window came out before the error line
    proc = _run_script("packet_propagation.py", "--times", "0", "1e308")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: --times 1e+308")
    assert proc.stderr.count("\n") == 1
