import argparse
import ast
import functools
import gc
import json
import math
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import abcyl
from abcyl import cli, quadrature, spinors
from abcyl.cli import build_parser, main
from abcyl.currents import MAX_MOMENTUM_ORDER
from abcyl.fermi import persistent_short
from abcyl.params import PARAM_KEYS, DimensionlessParams
from abcyl.spectrum import MAX_SEA_COLUMNS, half_odd_run

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spectrum_hand_value(capsys):
    code, out, _ = run(capsys, "spectrum", "--mu", "1", "--nu", "1",
                       "--beta", "0", "--nmax", "1", "--lmax", "0.5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,lambda,R_E,chi,R_Ic"
    assert len(lines) == 1 + 1 * 2          # header + nmax * 2*(lmax+1/2)
    energies = {float(line.split(",")[2]) for line in lines[1:]}
    # sqrt(mu^2 + nu^2 n^2 + lambda^2) = sqrt(1 + 1 + 1/4)
    assert any(abs(e - 1.5) < 1e-14 for e in energies)


def test_spectrum_row_count(capsys):
    code, out, _ = run(capsys, "spectrum", "--mu", "1", "--nu", "1",
                       "--nmax", "3", "--lmax", "2.5")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 3 * 6


def test_spectrum_sorted_by_energy(capsys):
    code, out, _ = run(capsys, "spectrum", "--mu", "1", "--nu", "1",
                       "--beta", "0.2", "--nmax", "3", "--lmax", "2.5")
    energies = [float(line.split(",")[2])
                for line in out.strip().splitlines()[1:]]
    assert energies == sorted(energies)


def test_spectrum_infinite_rest_energy(capsys):
    code, out, _ = run(capsys, "spectrum", "--geometry", "infinite",
                       "--mu", "1", "--k", "0", "--beta", "0.5",
                       "--lambda", "-0.5")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert float(row[2]) == pytest.approx(1.0)


@pytest.mark.parametrize("flag", [("--k", "5"), ("--lambda", "1.5")])
def test_finite_spectrum_rejects_infinite_only_flags(capsys, flag):
    # the finite table is set by --nmax and --lmax; it has no k, and it
    # would print the whole --lmax range in place of a given lambda
    code, out, err = run(capsys, "spectrum", "--mu", "1", "--nu", "1",
                         "--nmax", "1", "--lmax", "0.5", *flag)
    assert code == 2 and out == "" and flag[0] in err


@pytest.mark.parametrize("params", [
    ("--mu", "1", "--nu", "1", "--beta", "0.3"),
    ("--mass-eV", "511000", "--radius-nm", "2", "--length-nm", "6")])
def test_infinite_spectrum_rejects_finite_nu_exit_3(capsys, params):
    # the infinite table has no n column, so it would print the nu = 0
    # rows for a finite cylinder; packet refuses nu != 0 the same way
    code, out, err = run(capsys, "spectrum", "--geometry", "infinite",
                         "--k", "1.3", "--lmax", "0.5", *params)
    assert code == 3 and out == "" and "nu must be 0" in err


def test_config_file_and_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mu = 1\nnu = 1\n# comment\nbeta = 0\n")
    code, out, _ = run(capsys, "spectrum", "--config", str(cfg),
                       "--nmax", "1", "--lmax", "0.5")
    assert code == 0
    assert len(out.strip().splitlines()) == 3


def test_config_conflict_exit_2(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mu = 1\nmass_eV = 5\nradius_nm = 1\n")
    code, out, err = run(capsys, "spectrum", "--config", str(cfg))
    assert code == 2
    assert out == ""            # data stream stays clean
    assert "mass_eV" in err


def test_missing_params_exit_2(capsys):
    code, _, err = run(capsys, "spectrum")
    assert code == 2 and err


def test_regime_error_exit_3(capsys):
    code, _, _ = run(capsys, "persistent", "--mu", "1")
    assert code == 3
    code, _, _ = run(capsys, "packet", "--mu", "1", "--nu", "1")
    assert code == 3


def test_persistent_json_report(capsys):
    code, out, _ = run(capsys, "persistent", "--mu", "1", "--nu", "0.5",
                       "--beta", "0", "--alpha", "3", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["schema_version"] == 1
    assert rep["methods"]["exact"]["value"] == 0.0       # no flux
    assert "pairwise_relative_deviation" in rep
    assert "exact_vs_linearized" in rep["pairwise_relative_deviation"]


def test_persistent_ring_note(capsys):
    code, out, _ = run(capsys, "persistent", "--mu", "1", "--nu", "5",
                       "--beta", "0.1", "--alpha", "3", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert "ring-like" in rep["regime"]
    notes = rep["methods"]["short"]["notes"]
    assert any("ring substitution" in n for n in notes)


def test_persistent_empty_sea_warns_not_errors(capsys):
    code, out, err = run(capsys, "persistent", "--mu", "1", "--nu", "5",
                         "--beta", "0.1", "--alpha", "0.2",
                         "--format", "json")
    assert code == 0
    assert json.loads(out)["methods"]["exact"]["N_e"] == 0
    assert "empty" in err


def test_packet_scalars(capsys):
    code, out, _ = run(capsys, "packet", "--mu", "1", "--k0", "0",
                       "--width", "0.5", "--lambda", "1.5",
                       "--t", "0", "--zmin", "-2", "--zmax", "2",
                       "--zsteps", "5", "--korder", "200")
    assert code == 0
    rows = {line.split(",")[0]: line.split(",")
            for line in out.strip().splitlines()[1:]}
    assert float(rows["polarization"][2]) == pytest.approx(1.5, abs=1e-10)
    assert float(rows["norm"][2]) == pytest.approx(1.0, abs=1e-6)
    # symmetric packet: no current at the center
    center = [line.split(",") for line in out.strip().splitlines()
              if line.startswith("I3,0.0,") or line.startswith("I3,0,")]
    assert abs(float(center[0][2])) < 1e-10


def test_packet_resolution_exit_4(capsys):
    code, _, err = run(capsys, "packet", "--mu", "1", "--k0", "2",
                       "--width", "0.5", "--t", "200", "--zmin", "-100",
                       "--zmax", "100", "--zsteps", "3", "--korder", "20")
    assert code == 4
    assert "points" in err


@pytest.mark.parametrize("t, count", [("1e3", "31813"),
                                      ("1e300", "3.16523e+301")])
def test_reach_beyond_every_order_is_refused_in_one_short_line(t, count):
    # a far but finite reach printed its point count as a 300-digit integer
    proc = _cli_subprocess("packet", "--mu", "1", "--t", t, timeout=20)
    assert proc.returncode == 4 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and len(proc.stderr) < 200
    assert (f"no order up to the cap {MAX_MOMENTUM_ORDER} resolves the "
            f"reach, which needs {count} points") in proc.stderr


@pytest.mark.parametrize("flag, message", [
    (("--zsteps", "1"), "packet needs zsteps >= 2"),
    (("--zsteps", "0"), "packet needs zsteps >= 2"),
    (("--zsteps", "-3"), "packet needs zsteps >= 2"),
    (("--korder", "1"), "momentum quadrature needs order >= 2, got 1"),
    (("--korder", "0"), "momentum quadrature needs order >= 2, got 0"),
    (("--korder", "-3"), "momentum quadrature needs order >= 2, got -3"),
    # refused before any grid is built: time and memory grow as korder^2
    # and as zsteps * korder
    (("--korder", "2001"), "momentum quadrature order 2001 is above the cap "
                           "2000"),
    (("--zsteps", "5001"), "the (zsteps, korder) phase matrix would hold "
                           "1000200 elements; the cap is 1000000"),
])
def test_packet_rejects_bad_grid_sizes(capsys, flag, message):
    code, out, err = run(capsys, "packet", "--mu", "1", "--korder", "200",
                         *flag)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
def test_quad_order_flag_is_gone(capsys, before):
    # the packet norm is exact over its window, so no z order is left to set
    flag = ("--quad-order", "300")
    argv = ("packet", "--mu", "1", "--korder", "200")
    with pytest.raises(SystemExit) as exc:
        main([*flag, *argv] if before else [*argv, *flag])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


def test_packet_request_solves_one_gauss_legendre_order(capsys):
    # the momentum rule is the only Gauss-Legendre order a packet needs
    quadrature.leggauss.cache_clear()
    code, _, _ = run(capsys, "packet", "--mu", "1", "--k0", "1",
                     "--width", "0.5", "--korder", "400")
    assert code == 0
    assert quadrature.leggauss.cache_info().currsize == 1


@pytest.mark.parametrize("flags, message", [
    (("--length-nm", "0", "--fermi-eV", "1"),
     "length_nm must be positive, got 0.0"),
    (("--length-nm", "5", "--fermi-eV", "-0.1"),
     "fermi_eV must be non-negative, got -0.1"),
    (("--length-nm", "5", "--radius-nm", "0"),
     "radius_nm must be positive, got 0.0"),
    (("--length-nm", "5", "--mass-eV=-1"),
     "mass_eV must be positive, got -1.0"),
])
def test_physical_keys_out_of_range_exit_2(capsys, flags, message):
    code, out, err = run(capsys, "persistent", "--mass-eV", "1",
                         "--radius-nm", "1", *flags)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def _cli_subprocess(*argv, timeout, text=True):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "abcyl.cli", *argv],
                          capture_output=True, text=text, env=env,
                          timeout=timeout)


def test_persistent_stops_at_first_empty_column():
    # nu = 1e-9 puts 1e8 columns below alpha = 0.1, all of them empty
    proc = _cli_subprocess("persistent", "--mu", "1", "--nu", "1e-9",
                           "--alpha", "0.1", timeout=20)
    assert proc.returncode == 0, proc.stderr
    assert "empty Fermi sea" in proc.stderr
    assert proc.stdout.splitlines()[2] == "exact,0,0,0,,"


def test_short_reports_zero_on_an_empty_sea(capsys):
    # nu <= alpha, but no half-odd lambda fits below sqrt(alpha^2 - nu^2)
    argv = ("persistent", "--mu", "1", "--nu", "1e-9", "--alpha", "0.1",
            "--beta", "0.1")
    code, out, err = run(capsys, *argv)
    assert code == 0 and "empty Fermi sea" in err
    assert out.splitlines()[1:] == [f"{m},0,0,0,," for m in
                                    ("compact", "exact", "linearized",
                                     "nonrel", "short")]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert "empty-sea" in json.loads(out)["methods"]["short"]["flags"]


_SEA_SIZE = ("--mu", "1", "--nu", "1e-6", "--alpha", "50")
_BETA_SWEEP = ("--param", "beta", "--start", "0", "--stop", "0.4",
               "--steps", "3")
_SHORT_BETA_SWEEP = ("--param", "beta", "--start", "0", "--stop", "0.1",
                     "--steps", "2")


@pytest.mark.parametrize("argv", [
    ("persistent", *_SEA_SIZE),
    ("sweep", *_SEA_SIZE, *_BETA_SWEEP, "--observable", "persistent_exact"),
    ("sweep", *_SEA_SIZE, *_BETA_SWEEP, "--observable",
     "persistent_linearized"),
    # only the last point is over the cap, and it is refused up front
    ("sweep", "--mu", "1", "--nu", "1", "--param", "alpha", "--start", "1",
     "--stop", "5e4", "--steps", "3", "--observable", "persistent_exact"),
    ("sweep", *_SEA_SIZE, *_BETA_SWEEP, "--observable", "persistent_compact"),
    # the persistent_short sweep's point, where only it builds no sea
    ("sweep", *_SEA_SIZE, *_SHORT_BETA_SWEEP, "--observable",
     "persistent_compact"),
    ("sweep", *_SEA_SIZE, *_BETA_SWEEP, "--observable", "persistent_nonrel"),
])
def test_sea_over_the_column_cap_exits_3(argv):
    # 5e7 columns (5e4 at the alpha sweep's last point)
    proc = _cli_subprocess(*argv, timeout=20)
    assert proc.returncode == 3 and proc.stdout == ""
    columns = int(re.search(r"spans (\d+) columns", proc.stderr).group(1))
    assert columns > MAX_SEA_COLUMNS
    assert f"the cap is {MAX_SEA_COLUMNS}" in proc.stderr


def test_short_sweep_has_no_column_cap(capsys):
    # persistent_short builds no sea, so a long cylinder is no refusal
    code, out, err = run(capsys, "sweep", *_SEA_SIZE, *_SHORT_BETA_SWEEP,
                         "--observable", "persistent_short")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "beta,persistent_short" and len(lines) == 3
    for line in lines[1:]:
        beta, value = map(float, line.split(","))
        d = DimensionlessParams(mu=1.0, nu=1e-6, beta=beta, alpha=50.0)
        assert value == persistent_short(d).value


# inputs that hung, printed NaN rows with exit 0, or ended in a traceback
# with exit 1 (the code of a failed verify)
@pytest.mark.parametrize("argv, code", [
    (("spectrum", "--mu", "1", "--nu", "nan"), 2),
    (("persistent", "--mu", "1", "--nu", "1", "--alpha", "inf"), 2),
    (("persistent", "--mu", "inf", "--nu", "1", "--alpha", "3"), 2),
    (("persistent", "--mu", "1", "--nu", "1", "--alpha", "3", "--beta", "1e17"),
     2),
    (("persistent", "--mu", "1", "--nu", "1e13", "--alpha", "1e17"), 2),
    (("persistent", "--mu", "1", "--nu", "1e-320", "--alpha", "1"), 3),
    (("spectrum", "--mu", "1e200", "--nu", "1"), 2),
    (("packet", "--mu", "1", "--width", "1e300", "--zsteps", "3"), 2),
    (("persistent", "--mass-eV", "1", "--radius-nm", "1e200", "--length-nm",
      "1", "--b-field-T", "1", "--alpha", "3"), 2),
    (("packet", "--mu", "1", "--alpha", "3", "--zsteps", "3"), 2),
    (("packet", "--mass-eV", "511000", "--radius-nm", "2", "--fermi-eV", "1",
      "--zsteps", "3"), 2),
    (("spectrum", "--mu", "1", "--nu", "1", "--alpha", "3"), 2),
    (("spectrum", "--geometry", "infinite", "--mu", "1", "--alpha", "3",
      "--k", "1.3"), 2),
    (("spectrum", "--mu", "1", "--nu", "1", "--physical"), 2),
    (("packet", "--mu", "1", "--width", "1e-200", "--zsteps", "3"), 2),
    (("packet", "--mu", "1", "--mix-plus", "1e200", "--zsteps", "3"), 2),
    (("packet", "--mu", "1", "--mix-minus", "1e-200", "--mix-plus", "0",
      "--zsteps", "3"), 2),
    (("packet", "--mu", "1", "--k0", "1", "--width", "1e-17", "--zsteps",
      "3"), 2),
    (("packet", "--mu", "1", "--k0", "1", "--width", "1e-10", "--zsteps",
      "3"), 2),
    # a z span or a phase reach that overflows
    (("packet", "--mu", "1", "--zmin=-1e308", "--zmax=1e308"), 2),
    (("packet", "--mu", "1", "--t", "1e308", "--zmax", "1e308"), 2),
    # a persistent_short sweep reads no sea size, but still needs nu > 0
    # and finite input
    (("sweep", "--mu", "1", "--nu", "0", "--alpha", "50",
      *_SHORT_BETA_SWEEP, "--observable", "persistent_short"), 3),
    (("sweep", "--mu", "1", "--nu", "1", "--alpha", "inf",
      *_SHORT_BETA_SWEEP, "--observable", "persistent_short"), 2),
    # a key the request does not read, in a process that freezes its heap
    # at exit
    (("persistent", "--mu", "25", "--nu", "1", "--alpha", "10.3", "--beta",
      "0.05", "--radius-nm", "7"), 2),
])
def test_bad_input_is_refused_with_one_error_line(argv, code):
    proc = _cli_subprocess(*argv, timeout=20)
    assert proc.returncode == code and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_half_odd_run_refuses_bounds_from_2_52(capsys):
    # from 2**52 on, lambda + 1 is no longer the next half-odd-integer,
    # and from 2**53 on it is lambda itself
    for lo, hi in ((1e17, 1.0000000000000002e17), (0.5, 2.0**52),
                   (-(2.0**52), 0.5)):
        with pytest.raises(ValueError, match=r"2\*\*52"):
            list(half_odd_run(lo, hi))
    top = 2.0**52 - 0.5
    assert list(half_odd_run(top - 1.0, top)) == [top - 1.0, top]
    # a lambda sweep there never ended; it runs only after the refusal
    # above has been seen to hold
    code, out, err = run(capsys, "sweep", "--mu", "1", "--nu", "1",
                         "--param", "lambda", "--start", "1e17",
                         "--stop", "1.0000000000000002e17")
    assert code == 2 and out == "" and "2**52" in err


@pytest.mark.parametrize("command", [
    ("packet", "--zsteps", "3"),
    ("spectrum", "--nu", "1"),
    ("spectrum", "--geometry", "infinite", "--k", "1.3")])
@pytest.mark.parametrize("key", ["alpha = 3", "fermi_eV = 1"])
def test_fermi_level_refused_where_unread(capsys, tmp_path, command, key):
    # neither packet nor spectrum has a Fermi level; a config key is
    # refused as the flag is
    cfg = tmp_path / "params.cfg"
    cfg.write_text(f"mass_eV = 511000\nradius_nm = 2\n{key}\n")
    code, out, err = run(capsys, *command, "--config", str(cfg))
    assert code == 2 and out == ""
    geometry = "infinite" if "infinite" in command else "finite"
    request = "packet" if command[0] == "packet" else f"the {geometry} spectrum"
    assert err == f"error: {request} does not read {key.split()[0]}\n"


@pytest.mark.parametrize("observable", ["chi", "persistent_exact"])
def test_sweep_refuses_its_group_from_config(capsys, tmp_path, observable):
    # the config's beta was dropped, and every row swept beta over 0 to 0.1
    cfg = tmp_path / "params.cfg"
    cfg.write_text("beta = 0.3\n")
    alpha = ("--alpha", "3") if observable.startswith("persistent_") else ()
    code, out, err = run(capsys, "sweep", "--mu", "25", "--nu", "1", *alpha,
                         "--config", str(cfg), "--param", "beta", "--start",
                         "0", "--stop", "0.1", "--steps", "2", "--observable",
                         observable)
    assert code == 2 and out == ""
    assert err == f"error: the {observable} sweep over beta does not read beta\n"


@pytest.mark.parametrize("observable", ["chi", "energy"])
@pytest.mark.parametrize("argv, key", [
    (("--mu", "1", "--nu", "1", "--alpha", "3", "--param", "beta", "--start",
      "0", "--stop", "0.1"), "alpha"),
    (("--mass-eV", "511000", "--radius-nm", "2", "--length-nm", "5",
      "--fermi-eV", "1", "--param", "beta", "--start", "0", "--stop", "0.1"),
     "fermi_eV"),
    (("--mu", "1", "--nu", "1", "--param", "alpha", "--start", "1", "--stop",
      "2", "--steps", "3"), "alpha"),
])
def test_mode_sweep_refuses_a_fermi_level(capsys, observable, argv, key):
    # chi and energy are single-mode observables; each of these printed
    # the same value in every row with exit 0
    code, out, err = run(capsys, "sweep", *argv, "--observable", observable)
    assert code == 2 and out == ""
    param = argv[argv.index("--param") + 1]
    unread = f"--param {key}" if param == key else key
    assert err == (f"error: the {observable} sweep over {param} does not "
                   f"read {unread}\n")


def test_physical_needs_radius(capsys):
    # R = hbar c / (1 eV) was assumed when no radius was given
    code, out, err = run(capsys, "spectrum", "--mu", "1", "--nu", "1",
                         "--physical")
    assert code == 2 and out == "" and "needs radius_nm" in err
    code, out, _ = run(capsys, "spectrum", "--mu", "1", "--nu", "1",
                       "--radius-nm", "197.3269804", "--physical")
    assert code == 0 and out.splitlines()[1].startswith("1,-0.5,1.5")


def test_column_cap_leaves_other_observables_alone(capsys):
    code, out, _ = run(capsys, "sweep", "--mu", "1", "--nu", "1e-6",
                       *_BETA_SWEEP, "--observable", "chi")
    assert code == 0 and len(out.splitlines()) == 4


def _option_strings(parser) -> set[str]:
    return {opt for action in parser._actions
            for opt in action.option_strings if opt.startswith("--")}


def test_readme_command_line_flags_match_parser():
    # every flag README's "Command line" section names is defined, and
    # every top-level flag is documented there
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"--[A-Za-z][A-Za-z0-9-]*", section))
    parser = build_parser()
    (sub,) = [action for action in parser._actions
              if isinstance(action, argparse._SubParsersAction)]
    top = _option_strings(parser) - {"--help"}
    defined = top.union(*map(_option_strings, sub.choices.values()))
    assert documented <= defined, sorted(documented - defined)
    assert top <= documented, sorted(top - documented)


def _readme_commands():
    """The commands of the sh block under README's "Command line", with
    backslash continuations joined and the program name dropped."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.strip()]


_README_COMMANDS = _readme_commands()


def _example_ids(commands):
    """Each example's command name; a repeated command adds its position in
    the block, so that every id is unique and the first keeps its name."""
    names = [argv[0] for argv in commands]
    return [name if names.index(name) == i else f"{name}-{i}"
            for i, name in enumerate(names)]


@pytest.mark.parametrize("argv", _README_COMMANDS,
                         ids=_example_ids(_README_COMMANDS))
def test_readme_command_line_examples_run(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.strip()


def test_sweep_lambda_saturation(capsys):
    code, out, _ = run(capsys, "sweep", "--mu", "1", "--nu", "1",
                       "--param", "lambda", "--start", "0.5",
                       "--stop", "60.5", "--observable", "chi")
    assert code == 0
    vals = [float(line.split(",")[1])
            for line in out.strip().splitlines()[1:]]
    assert vals == sorted(vals)
    assert vals[-1] > 0.999


def test_sweep_n_monotone(capsys):
    code, out, _ = run(capsys, "sweep", "--mu", "1", "--nu", "1",
                       "--param", "n", "--start", "1", "--stop", "6",
                       "--observable", "chi", "--lambda", "1.5")
    vals = [float(line.split(",")[1])
            for line in out.strip().splitlines()[1:]]
    assert code == 0
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_sweep_beta_odd(capsys):
    code, out, _ = run(capsys, "sweep", "--mu", "1", "--nu", "0.5",
                       "--alpha", "3", "--param", "beta",
                       "--start=-1e-3", "--stop", "1e-3", "--steps", "5",
                       "--observable", "persistent_exact")
    assert code == 0
    vals = [float(line.split(",")[1])
            for line in out.strip().splitlines()[1:]]
    for v, w in zip(vals, reversed(vals)):
        assert v == pytest.approx(-w, abs=4e-6)


def test_sweep_validation(capsys):
    assert run(capsys, "sweep", "--mu", "1", "--nu", "1", "--param",
               "bogus", "--start", "0", "--stop", "1")[0] == 2
    assert run(capsys, "sweep", "--mu", "1", "--nu", "1", "--param",
               "beta", "--start", "1", "--stop", "0")[0] == 2
    assert run(capsys, "sweep", "--mu", "1", "--nu", "1", "--param",
               "beta", "--start", "0", "--stop", "1", "--steps", "1")[0] == 2


@pytest.mark.parametrize("observable", ["persistent_exact",
                                        "persistent_linearized", "chi",
                                        "energy"])
def test_sweep_at_nu_zero_is_regime_error(capsys, observable):
    # every sweep observable lives on the finite cylinder; only the
    # persistent ones read a Fermi level
    alpha = (("--alpha", "3") if observable.startswith("persistent_")
             else ())
    code, out, err = run(capsys, "sweep", "--mu", "1", "--nu", "0", *alpha,
                         "--param", "beta", "--start", "0",
                         "--stop", "0.1", "--steps", "3",
                         "--observable", observable)
    assert code == 3 and out == "" and "nu > 0" in err
    # nu reaching 0 inside a sweep is the same regime error
    code, out, _ = run(capsys, "sweep", "--mu", "1", *alpha,
                       "--param", "nu", "--start", "0", "--stop", "1",
                       "--steps", "3", "--observable", observable)
    assert code == 3 and out == ""
    # a negative nu stays a configuration error
    code, _, _ = run(capsys, "sweep", "--mu", "1", "--nu=-1", "--param",
                     "beta", "--start", "0", "--stop", "0.1",
                     "--observable", observable)
    assert code == 2


@pytest.mark.parametrize("param, observable", [
    ("lambda", "persistent_exact"), ("n", "persistent_linearized")])
def test_sweep_persistent_over_mode_number_exit_2(capsys, param, observable):
    # a persistent current sums the whole sea, so every row would repeat
    # one value
    code, out, err = run(capsys, "sweep", "--mu", "1", "--nu", "1",
                         "--alpha", "5", "--beta", "0.1", "--param", param,
                         "--start", "0.5", "--stop", "3.5",
                         "--observable", observable)
    assert code == 2 and out == ""
    assert err == (f"error: the {observable} sweep over {param} does not "
                   f"read --param {param}\n")


@pytest.mark.parametrize("tag", ["exact", "linearized", "compact", "short",
                                 "nonrel"])
def test_persistent_sweep_matches_the_persistent_row(capsys, tag):
    # the first point of a beta sweep is the point persistent reports
    params = ("--mu", "250", "--nu", "1", "--alpha", "50")
    code, out, _ = run(capsys, "persistent", *params, "--beta", "1e-4")
    assert code == 0
    (value,) = [line.split(",")[1] for line in out.splitlines()
                if line.startswith(f"{tag},")]
    code, out, err = run(capsys, "sweep", *params, "--param", "beta",
                         "--start", "1e-4", "--stop", "2e-4", "--steps", "2",
                         "--observable", f"persistent_{tag}")
    assert code == 0 and err == ""
    assert out.splitlines()[:2] == [f"beta,persistent_{tag}",
                                    f"0.0001,{value}"]


_PERSISTENT_BETA = ("sweep", "--mu", "250", "--nu", "1", "--alpha", "50",
                    "--param", "beta", "--start", "1e-4", "--stop", "2e-4",
                    "--steps", "2", "--observable", "persistent_exact")
_LAMBDA_CHI = ("sweep", "--mu", "1", "--nu", "1", "--param", "lambda",
               "--start", "0.5", "--stop", "3.5")
_N_CHI = ("sweep", "--mu", "1", "--nu", "1", "--param", "n", "--start", "1",
          "--stop", "3")


# each exited 0 with the output of the same request without the flag
@pytest.mark.parametrize("argv, message", [
    ((*_PERSISTENT_BETA, "--lambda", "7.5"),
     "persistent_exact sweep over beta does not read --lambda"),
    ((*_PERSISTENT_BETA, "--n", "4"),
     "persistent_exact sweep over beta does not read --n"),
    ((*_LAMBDA_CHI, "--steps", "99"),
     "chi sweep over lambda does not read --steps"),
    ((*_LAMBDA_CHI, "--scale", "log"),
     "chi sweep over lambda does not read --scale"),
    ((*_LAMBDA_CHI, "--lambda", "1.5"),
     "chi sweep over lambda does not read --lambda"),
    ((*_N_CHI, "--n", "7"), "chi sweep over n does not read --n"),
    ((*_N_CHI, "--scale", "linear"), "chi sweep over n does not read --scale"),
    (("spectrum", "--geometry", "infinite", "--mu", "1", "--k", "1",
      "--nmax", "0"), "the infinite spectrum does not read --nmax"),
    (("spectrum", "--geometry", "infinite", "--mu", "1", "--k", "1",
      "--lambda", "1.5", "--lmax", "0.1"),
     "the infinite spectrum at one --lambda does not read --lmax"),
    # radius_nm sets no group when no other physical key is given
    (("persistent", "--mu", "25", "--nu", "1", "--alpha", "10.3", "--beta",
      "0.05", "--radius-nm", "7"), "persistent does not read radius_nm"),
    (("spectrum", "--mu", "1", "--nu", "1", "--beta", "0.2", "--radius-nm",
      "7"), "the finite spectrum does not read radius_nm"),
    # a sweep sets the group it sweeps, and the physical key that drives it
    (("sweep", "--mu", "1", "--nu", "1", "--beta", "0.3", "--param", "beta",
      "--start", "0", "--stop", "0.1", "--steps", "2"),
     "the chi sweep over beta does not read beta"),
    (("sweep", "--mu", "1", "--length-nm", "5", "--radius-nm", "2", "--param",
      "nu", "--start", "0.5", "--stop", "1", "--steps", "2"),
     "the chi sweep over nu does not read length_nm"),
    # fermi_eV sets alpha only with mass_eV, which a mu sweep does not read
    (("sweep", "--param", "mu", "--start", "1", "--stop", "2", "--nu", "1",
      "--beta", "0.1", "--radius-nm", "2", "--fermi-eV", "300",
      "--observable", "persistent_exact"),
     "the persistent_exact sweep over mu does not read fermi_eV"),
])
def test_flag_the_request_does_not_read_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.endswith(f"{message}\n")


def test_sweep_unknown_observable_exit_2(capsys):
    # persistent_all is a function of fermi, but not one method
    for nu in ("0", "1"):
        for observable in ("bogus", "persistent_all", "persistent_"):
            code, out, err = run(capsys, "sweep", "--mu", "1", "--nu", nu,
                                 "--param", "beta", "--start", "0", "--stop",
                                 "0.1", "--observable", observable)
            assert code == 2 and out == ""
            assert err == f"error: unknown observable {observable!r}\n"


def test_verify_passes_and_reports_schema(capsys):
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 0
    rep = json.loads(out)
    assert rep["schema_version"] == 1 and rep["passed"] is True
    assert len(rep["suites"]) == 12
    for suite in rep["suites"]:
        assert {"suite", "tolerance", "worst", "passed"} <= set(suite)
        assert math.isfinite(suite["worst"])


def test_verify_fault_injection(capsys, monkeypatch):
    # perturb E by 1e-3 in the residual's system matrix only
    monkeypatch.setattr(spinors, "dirac_residual", functools.partial(
        spinors.dirac_residual, energy_scale=1.001))
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 1
    rep = json.loads(out)
    failing = {s["suite"] for s in rep["suites"] if not s["passed"]}
    assert "dirac_residual" in failing


# small, valid argv for each command, and the commands each global flag
# applies to; every other command must reject the flag (exit 2) instead
# of ignoring it, before or after the subcommand
_COMMAND_ARGV = {
    "spectrum": ("spectrum", "--mu", "1", "--nu", "1", "--nmax", "1",
                 "--lmax", "0.5"),
    "persistent": ("persistent", "--mu", "25", "--nu", "1", "--alpha", "3"),
    "packet": ("packet", "--mu", "1", "--korder", "200", "--zsteps", "3"),
    "sweep": ("sweep", "--mu", "1", "--nu", "1", "--param", "beta",
              "--start", "0", "--stop", "0.1", "--steps", "2"),
    "verify": ("verify",),
}
_GLOBAL_FLAGS = {
    ("--physical",): ("spectrum",),
    ("--seed", "2"): ("verify",),
    ("--config", "params.cfg"): ("spectrum", "persistent", "packet", "sweep"),
}
# how a refusal names the request of each _COMMAND_ARGV
_REQUEST_NAMES = {"spectrum": "the finite spectrum", "persistent": "persistent",
                  "packet": "packet", "sweep": "the chi sweep over beta",
                  "verify": "verify"}


def _with_flag(flag, command, before):
    argv = _COMMAND_ARGV[command]
    return (*flag, *argv) if before else (*argv, *flag)


_REJECTED = [(flag, command) for flag, owners in _GLOBAL_FLAGS.items()
             for command in _COMMAND_ARGV if command not in owners]
# case ids flag4..flag7 were the four commands that rejected the retired
# --quad-order flag; they stay unused so that no other case id moves
_REJECTED_IDS = [f"flag{i + 4 * (i >= 4)}-{command}"
                 for i, (_, command) in enumerate(_REJECTED)]


@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
@pytest.mark.parametrize("flag,command", _REJECTED, ids=_REJECTED_IDS)
def test_global_flag_rejected_where_ignored(capsys, flag, command, before):
    code, out, err = run(capsys, *_with_flag(flag, command, before))
    assert code == 2 and out == ""
    assert err == f"error: {_REQUEST_NAMES[command]} does not read {flag[0]}\n"


@pytest.mark.parametrize("flag", [("--physical",)])
def test_global_flag_accepted_in_either_position(capsys, flag):
    (command,) = _GLOBAL_FLAGS[flag]
    # --physical needs the radius that sets its units, which is read only
    # with --physical here
    radius = ("--radius-nm", "2")
    code, plain, _ = run(capsys, *_COMMAND_ARGV[command])
    assert code == 0
    outs = set()
    for before in (True, False):
        code, out, err = run(capsys, *_with_flag(flag, command, before),
                             *radius)
        assert code == 0 and err == ""
        outs.add(out)
    assert len(outs) == 1 and plain not in outs   # the flag took effect


def test_verify_seed_before_subcommand(capsys):
    code, out, _ = run(capsys, "--seed", "2", "verify")
    assert code == 0 and out.startswith("suite,tolerance,worst,passed")


@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
def test_verify_refuses_a_negative_seed_by_name(capsys, before):
    argv = ["--seed", "-1", "verify"] if before else ["verify", "--seed", "-1"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: --seed must be >= 0, got -1\n"


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "out.csv"
    code, out, _ = run(capsys, "spectrum", "--mu", "1", "--nu", "1",
                       "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("n,lambda,R_E")


def test_csv_17_significant_digits(capsys):
    _, out, _ = run(capsys, "spectrum", "--mu", "1", "--nu", "1",
                    "--nmax", "1", "--lmax", "0.5")
    value = out.strip().splitlines()[1].split(",")[3]
    assert value == "-0.33333333333333331"    # first row is lambda = -1/2


def test_physical_units(capsys):
    # mu=1 at R = hbar c / (1 eV): energies come back in eV
    _, out, _ = run(capsys, "spectrum", "--mass-eV", "1", "--radius-nm",
                    "197.3269804", "--length-nm", str(math.pi * 197.3269804),
                    "--nmax", "1", "--lmax", "0.5", "--physical")
    row = out.strip().splitlines()[1].split(",")
    assert float(row[2]) == pytest.approx(1.5, rel=1e-9)


@pytest.mark.parametrize("lmax", [-1.0, 0.0, 0.5, 0.5 - 1e-13, 0.5 - 1e-11,
                                  1.0, 3.5, 3.5 + 1e-12, 10.25, 40.5])
def test_half_odd_range_matches_counting_loop(lmax):
    out, lam = [], 0.5
    while lam <= lmax + 1e-12:
        out.extend([lam, -lam])
        lam += 1.0
    assert list(half_odd_run(-lmax - 1e-12, lmax + 1e-12)) == sorted(out)


@pytest.mark.parametrize("start, stop", [
    (0.5, 6.5), (-3.0, 2.5), (-2.5, -2.5), (0.7, 0.5), (1.0, 5.5 - 1e-12),
    (0.5, 4.5 - 1e-11), (0.5 + 1e-12, 3.5), (-7.25, 10.25), (2.5, 2.0)])
def test_sweep_lambda_points_match_counting_loop(capsys, start, stop):
    lam = math.floor(start - 0.5) + 0.5
    if lam < start:
        lam += 1.0
    want = []
    while lam <= stop + 1e-12:
        want.append(lam)
        lam += 1.0
    code, out, _ = run(capsys, "sweep", "--mu", "1", "--nu", "1",
                       "--param", "lambda", f"--start={start!r}",
                       f"--stop={stop!r}", "--observable", "chi")
    # a range that holds no half-odd lambda is refused, as an empty table
    assert code == (0 if want else 2)
    assert [float(line.split(",")[0])
            for line in out.strip().splitlines()[1:]] == want


_BETA_CHI_SWEEP = ("sweep", "--mu", "1", "--nu", "1", "--param", "beta",
                   "--start", "0", "--stop", "0.1", "--steps", "2")


# each printed values (NaN rows, for the flags) with exit 0
@pytest.mark.parametrize("argv, message", [
    ((*_BETA_CHI_SWEEP, "--n", "0"), "n must be >= 1, got 0"),
    ((*_BETA_CHI_SWEEP, "--n", "-3"), "n must be >= 1, got -3"),
    ((*_BETA_CHI_SWEEP, "--lambda", "1"), "half-odd-integer, got 1.0"),
    ((*_BETA_CHI_SWEEP, "--lambda", "0.7"), "half-odd-integer, got 0.7"),
    ((*_BETA_CHI_SWEEP, "--observable", "energy", "--lambda", "1"),
     "half-odd-integer, got 1.0"),
    (("packet", "--mu", "1", "--lambda", "1", "--zsteps", "2"),
     "half-odd-integer, got 1.0"),
    (("spectrum", "--geometry", "infinite", "--mu", "1", "--k", "1",
      "--lambda", "0.7"), "half-odd-integer, got 0.7"),
    (("spectrum", "--geometry", "infinite", "--mu", "1", "--k", "nan",
      "--lmax", "0.5"), "--k must be finite, got nan"),
    (("packet", "--mu", "1", "--k0", "1e200", "--zsteps", "3"),
     "momentum window"),
    (("packet", "--mu", "1", "--width", "inf", "--zsteps", "3"),
     "--width must be finite, got inf"),
    (("spectrum", "--mu", "1", "--nu", "1", "--lmax", "nan"),
     "--lmax must be finite, got nan"),
])
def test_nonexistent_mode_or_nonfinite_flag_exits_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def _float_flags():
    """(command, flag) for every float flag that is not a parameter."""
    parser = build_parser()
    (commands,) = [a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    return [(command, action.option_strings[0])
            for command, sub in commands.choices.items()
            for action in sub._actions
            if action.type is float and not action.dest.startswith("par_")]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, flag", _float_flags())
def test_every_nonfinite_float_flag_is_refused_by_name(capsys, command, flag,
                                                       value):
    code, out, err = run(capsys, *_COMMAND_ARGV[command], f"{flag}={value}")
    assert code == 2 and out == ""
    assert err == f"error: {flag} must be finite, got {float(value)}\n"


def _memory_limited_cli(*argv):
    # a table was built whole before printing: under a 600 MB address-space
    # limit a huge one ended in MemoryError (exit 1), and without a limit
    # it grew until the machine ran out, so never run these without one
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (600 * 2**20,) * 2)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "abcyl.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=60, preexec_fn=limit)


_FINITE = ("--mu", "1", "--nu", "1")


@pytest.mark.parametrize("argv, rows", [
    (("spectrum", *_FINITE, "--lmax", "1e15"), 6 * 10**15),
    (("spectrum", *_FINITE, "--nmax", str(10**12), "--lmax", "0.5"),
     2 * 10**12),
    (("spectrum", "--geometry", "infinite", "--mu", "1", "--k", "1",
      "--lmax", "1e9"), 2 * 10**9),
    (("sweep", *_FINITE, "--param", "lambda", "--start", "0.5", "--stop",
      "1e9"), 10**9),
    (("sweep", *_FINITE, "--param", "lambda", "--start=-1e12", "--stop",
      "1e12"), 2 * 10**12),
    (("sweep", *_FINITE, "--param", "n", "--start", "1", "--stop", "1e12"),
     10**12),
    (("sweep", *_FINITE, "--param", "n", "--start", "1", "--stop",
      "1000001"), 1_000_001),
    (("sweep", *_FINITE, "--param", "beta", "--start", "0", "--stop", "0.1",
      "--steps", str(10**8)), 10**8),
])
def test_table_over_the_row_cap_exits_2(argv, rows):
    proc = _memory_limited_cli(*argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (f"error: the table would hold {rows} rows; "
                           f"the cap is 1000000\n")


def test_only_the_sampling_suites_take_a_seed():
    import inspect

    from abcyl import verify
    seeded = {name for name, fn in vars(verify).items()
              if name.startswith("suite_")
              and inspect.signature(fn).parameters}
    assert seeded == {"suite_dirac_residual", "suite_derivative_identity",
                      "suite_hermiticity"}


_SWEEP_BETA = ("sweep", *_FINITE, "--param", "beta",
               "--start", "0", "--stop", "0.4", "--steps", "3")
_ALPHA = ("--alpha", "5")

# (argv, exit code); persistent, spectrum and sweep compute with math alone
_MATH_ONLY = [
    (("persistent", "--mu", "250", "--nu", "1", "--alpha", "50"), 0),
    (("spectrum", *_FINITE), 0),
    (("spectrum", "--geometry", "infinite", "--mu", "1", "--k", "1"), 0),
    *(((*_SWEEP_BETA, *alpha, "--observable", observable), 0)
      for observable, alpha in (("chi", ()), ("energy", ()),
                                ("persistent_exact", _ALPHA),
                                ("persistent_linearized", _ALPHA))),
    (("spectrum", *_FINITE, "--alpha", "3"), 2),
    (("persistent", "--mu", "1", "--alpha", "3"), 3),
]
_NUMPY = [
    (("packet", "--mu", "1", "--zsteps", "3"), 0),
    (("verify",), 0),
]

_IMPORT_PROBE = """
import contextlib, io, json, sys
from abcyl.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv))
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""


@pytest.mark.parametrize("requests, loads_numpy", [(_MATH_ONLY, False),
                                                    (_NUMPY, True)],
                         ids=["math-only", "packet-verify"])
def test_only_packet_and_verify_import_numpy(requests, loads_numpy):
    # cli registers currents, spinors and verify without running them, so
    # a process that never reads from them never imports numpy
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE,
         json.dumps([list(argv) for argv, _ in requests])],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "codes": [code for _, code in requests], "numpy": loads_numpy}


@pytest.mark.parametrize("argv, message", [
    (("--nmax", "0"), "spectrum needs nmax >= 1, got 0"),
    (("--nmax", "-2"), "spectrum needs nmax >= 1, got -2"),
    (("--lmax", "0.2"), "spectrum needs lmax >= 0.5, got 0.2"),
    (("--lmax", "-3"), "spectrum needs lmax >= 0.5, got -3"),
    (("--geometry", "infinite", "--nu", "0", "--k", "1", "--lmax", "0"),
     "spectrum needs lmax >= 0.5, got 0"),
])
def test_spectrum_refuses_an_empty_table(capsys, argv, message):
    # these printed the header alone and exited 0
    code, out, err = run(capsys, "spectrum", *_FINITE, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (("--param", "n", "--start", "0.2", "--stop", "0.7"),
     "the sweep over n has no point from 0.2 to 0.7"),
    (("--param", "lambda", "--start", "3", "--stop", "1"),
     "the sweep over lambda has no point from 3 to 1"),
])
def test_sweep_refuses_an_empty_table(capsys, argv, message):
    # these printed the header alone and exited 0
    code, out, err = run(capsys, "sweep", *_FINITE, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


# json is not imported here, so that the probe can tell whether a request
# imported it; each request is one space-separated argument
_MODULE_PROBE = """
import contextlib, io, os, sys
from abcyl.cli import main
codes = []
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv.split()))
print(repr({"codes": codes, "numpy": "numpy" in sys.modules,
            "numpy.random": "numpy.random" in sys.modules,
            "json": "json" in sys.modules,
            "dataclasses": "dataclasses" in sys.modules,
            "inspect": "inspect" in sys.modules,
            "executed": sorted(name for name, m in sys.modules.items()
                               if name.split(".")[0] == "abcyl"
                               and type(m) is type(sys)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}))
"""


def _probe_modules(requests, **env_overrides):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    for key, value in env_overrides.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    proc = subprocess.run(
        [sys.executable, "-c", _MODULE_PROBE,
         *(" ".join(argv) for argv, _ in requests)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = ast.literal_eval(proc.stdout)
    assert report.pop("codes") == [code for _, code in requests]
    return report


def test_csv_requests_that_skip_numpy_import_neither_numpy_nor_json():
    report = _probe_modules(_MATH_ONLY)
    assert not report["numpy"] and not report["json"]


@pytest.mark.parametrize("requests, numpy", [(_MATH_ONLY, False),
                                             (_NUMPY, True)],
                         ids=["math-only", "packet-verify"])
def test_requests_import_neither_dataclasses_nor_inspect(requests, numpy):
    # the records are NamedTuples: dataclasses would import inspect, dis,
    # ast and tokenize, and exec each record's generated methods
    report = _probe_modules(requests)
    assert not report["dataclasses"]
    # numpy imports inspect itself
    assert numpy or not report["inspect"]


def test_numpy_requests_import_no_numpy_random():
    # verify draws its sample points from the standard library's random;
    # numpy releases that import numpy.random with numpy itself load it
    # whatever the request does
    bare = subprocess.run(
        [sys.executable, "-c",
         "import sys, numpy; print('numpy.random' in sys.modules)"],
        capture_output=True, text=True, timeout=120)
    assert bare.returncode == 0, bare.stderr
    report = _probe_modules(_NUMPY)
    assert report["numpy"]
    assert report["numpy.random"] is (bare.stdout.strip() == "True")


_PACKET_LAYERS = ["cli", "currents", "params", "quadrature"]
_FERMI_LAYERS = ["cli", "fermi", "params", "spectrum"]
_SPECTRUM_LAYERS = ["cli", "params", "spectrum"]
_METHODS = ("exact", "linearized", "compact", "short", "nonrel")


@pytest.mark.parametrize("argv, modules", [
    (("packet", "--mu", "1", "--zsteps", "3"), _PACKET_LAYERS),
    (("packet", "--mu", "1", "--korder", "800", "--format", "json"),
     _PACKET_LAYERS),
    (("persistent", "--mu", "250", "--nu", "1", "--alpha", "50"),
     _FERMI_LAYERS),
    *(((*_SWEEP_BETA, *_ALPHA, "--observable", f"persistent_{m}"),
       _FERMI_LAYERS) for m in _METHODS),
    (("spectrum", *_FINITE), _SPECTRUM_LAYERS),
    (("spectrum", "--geometry", "infinite", "--mu", "1", "--k", "1"),
     _SPECTRUM_LAYERS),
    ((*_SWEEP_BETA, "--observable", "chi"), _SPECTRUM_LAYERS),
    (("sweep", *_FINITE, "--param", "n", "--start", "1", "--stop", "5",
      "--lambda", "1.5", "--observable", "energy"), _SPECTRUM_LAYERS),
    (("verify",),
     sorted(m.name for m in pkgutil.iter_modules(abcyl.__path__))),
], ids=["packet", "packet-json", "persistent",
        *(f"sweep-persistent_{m}" for m in _METHODS),
        "spectrum-finite", "spectrum-infinite", "sweep-chi", "sweep-energy",
        "verify"])
def test_each_request_executes_only_the_modules_it_reads(argv, modules):
    # a packet builds its momentum rule from quadrature alone, so neither
    # the spinor oracles nor the spectrum runs; type(), unlike any
    # attribute read, does not load a lazy module
    report = _probe_modules([(argv, 0)])
    assert report["executed"] == ["abcyl", *(f"abcyl.{m}" for m in modules)]


_PACKET_REQUEST = [(("packet", "--mu", "1", "--zsteps", "3"), 0)]


def test_cli_runs_blas_on_one_thread_by_default():
    # removed explicitly: importing abcyl.cli has already set it here
    report = _probe_modules(_PACKET_REQUEST, OPENBLAS_NUM_THREADS=None)
    assert report["numpy"] and report["blas_threads"] == "1"


def test_cli_keeps_a_blas_thread_count_the_user_set():
    report = _probe_modules(_PACKET_REQUEST, OPENBLAS_NUM_THREADS="2")
    assert report["numpy"] and report["blas_threads"] == "2"


# --- the heap frozen at exit -------------------------------------------------

@pytest.mark.parametrize("argv", [
    ("persistent", "--mu", "250", "--nu", "1", "--alpha", "50"),
    ("packet", "--mu", "1", "--zsteps", "3"),
    ("persistent", "--mu", "25", "--nu", "1", "--alpha", "10.3", "--beta",
     "0.05", "--radius-nm", "7"),
], ids=["persistent", "packet", "refused"])
def test_main_leaves_the_collector_as_it_was(capsys, argv):
    # the freeze runs at exit only, so an in-process caller keeps a live
    # collector and no frozen object
    before = gc.isenabled(), gc.get_freeze_count()
    run(capsys, *argv)
    assert (gc.isenabled(), gc.get_freeze_count()) == before


# gc.freeze is wrapped before abcyl.cli is imported, so main registers the
# wrapper; it prints once for each time it runs.  Python 3.12 starts with
# some objects frozen already, so the counts are taken from the start.
_FREEZE_PROBE = """
import contextlib, gc, io
start = gc.get_freeze_count()
freeze = gc.freeze
def counting_freeze():
    freeze()
    print("freeze ran, froze more:", gc.get_freeze_count() > start)
gc.freeze = counting_freeze
from abcyl.cli import main
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["persistent", "--mu", "250", "--nu", "1",
                     "--alpha", "50"]) == 0
print("frozen before exit:", gc.get_freeze_count() - start)
"""


def test_a_process_that_calls_main_twice_freezes_once_at_exit():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", _FREEZE_PROBE],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["frozen before exit: 0",
                                        "freeze ran, froze more: True"]


@pytest.mark.parametrize("argv", [("packet", "--mu", "1", "--korder", "400"),
                                  ("verify", "--format", "json")],
                         ids=["packet", "verify-json"])
def test_a_fresh_process_writes_out_what_it_prints(tmp_path, argv):
    # the freeze runs after --out is closed and before stdout is flushed
    printed = _cli_subprocess(*argv, timeout=60, text=False)
    out = tmp_path / "out"
    written = _cli_subprocess(*argv, "--out", str(out), timeout=60,
                              text=False)
    assert printed.returncode == written.returncode == 0, written.stderr
    assert printed.stdout and written.stdout == b""
    assert out.read_bytes() == printed.stdout


# --- what each kind of request reads ----------------------------------------

_SWEEP_RANGES = {"beta": ("0.1", "0.3"), "mu": ("1", "2"), "nu": ("0.5", "1"),
                 "alpha": ("2", "3"), "lambda": ("0.5", "2.5"), "n": ("1", "3")}


def _sweep_kind(observable, param):
    # a persistent current is 0 at beta = 0, whatever else is given
    params = ({"mu": "25", "nu": "1", "beta": "0.1", "alpha": "3"}
              if observable.startswith("persistent_")
              else {"mu": "1", "nu": "1"})
    params.pop(param, None)
    start, stop = _SWEEP_RANGES[param]
    return (("sweep", "--observable", observable, "--param", param,
             "--start", start, "--stop", stop), params)


# a valid request of each kind (or, for three sweeps, one that is refused
# for its --param): its argv without the parameter keys, and the keys
_KINDS = {
    "spectrum-finite": (("spectrum",), {"mu": "1", "nu": "1"}),
    "spectrum-infinite": (("spectrum", "--geometry", "infinite", "--k", "1"),
                          {"mu": "1"}),
    "spectrum-infinite-lambda": (("spectrum", "--geometry", "infinite",
                                  "--k", "1", "--lambda", "0.5"), {"mu": "1"}),
    "persistent": (("persistent",),
                   {"mu": "25", "nu": "1", "beta": "0.1", "alpha": "3"}),
    "packet": (("packet", "--zsteps", "3", "--korder", "200"), {"mu": "1"}),
    "verify": (("verify",), {}),
    **{f"sweep-{observable}-{param}": _sweep_kind(observable, param)
       for observable in ("chi", "persistent_exact")
       for param in _SWEEP_RANGES},
}

# two values of each flag and key; at radius_nm 2 the physical keys put
# mu, nu, beta and alpha near 1, 1, 0.03 and 4
_VALUES = {"--nmax": ("1", "2"), "--lmax": ("0.5", "1.5"), "--k": ("1", "2"),
           "--lambda": ("0.5", "1.5"), "--steps": ("2", "3"),
           "--scale": ("linear", "log"), "--n": ("1", "2"),
           "--seed": ("0", "1"), "--format": ("csv", "json"),
           "mu": ("1", "2"), "nu": ("1", "2"),
           "beta": ("0.1", "0.2"), "alpha": ("3", "5"),
           "mass_eV": ("100", "200"), "radius_nm": ("2", "3"),
           "length_nm": ("6", "9"), "b_field_T": ("10", "20"),
           "fermi_eV": ("300", "500")}
_DRIVES = {"mass_eV": "mu", "length_nm": "nu", "b_field_T": "beta",
           "fermi_eV": "alpha"}


def _argv(prefix, params, *flags):
    return [*prefix, *flags, *(x for key, value in params.items()
                               for x in (f"--{key.replace('_', '-')}", value))]


def _with(prefix, params, name, tmp_path):
    """The request with name given once."""
    if name in PARAM_KEYS:
        return _argv(prefix, {**params, name: _VALUES[name][0]})
    if name == "--physical":
        return _argv(prefix, params, name)
    if name in ("--config", "--out"):
        # the config does not exist: an unread --config is never opened
        return _argv(prefix, params, name, str(tmp_path / name[2:]))
    return _argv(prefix, params, name, _VALUES[name][0])


def _pair(prefix, params, name, reads, tmp_path):
    """Two requests that differ in name alone, each giving what name needs
    to be read."""
    if name == "--out":
        return (_argv(prefix, params),
                _argv(prefix, params, name, str(tmp_path / "out")))
    if name == "--physical":
        return (_argv(prefix, params),
                _argv(prefix, {**params, "radius_nm": "2"}, name))
    if name == "--config":
        # the first key given moves into the config file
        (key, _), *rest = params.items()
        argvs = []
        for value in _VALUES[key]:
            cfg = tmp_path / f"{key}-{value}.cfg"
            cfg.write_text(f"{key} = {value}\n")
            argvs.append(_argv(prefix, dict(rest), name, str(cfg)))
        return argvs
    if name.startswith("--"):
        return tuple(_argv(prefix, params, name, v) for v in _VALUES[name])
    params = dict(params)
    if name in _DRIVES:
        params.pop(_DRIVES[name], None)
        params["radius_nm"] = "2"
        if name == "fermi_eV" and "mass_eV" in reads:
            params.pop("mu", None)
            params["mass_eV"] = "100"
    return tuple(_argv(prefix, {**params, name: v}) for v in _VALUES[name])


def _physical(params):
    """params with the first group given set by its physical key instead."""
    group = next(g for g in ("mu", "nu", "beta") if g in params)
    (driver,) = [d for d, g in _DRIVES.items() if g == group]
    return {**{k: v for k, v in params.items() if k != group},
            driver: _VALUES[driver][0]}


def _walk():
    """(kind, name) for --format, --out and each flag of _UNREAD and key
    that the kind's parser accepts; for a sweep whose observable does not
    read its --param, only (kind, "--param <p>")."""
    parser = build_parser()
    (commands,) = [action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    for kind, (prefix, params) in _KINDS.items():
        if prefix[0] == "sweep":
            args = parser.parse_args(_argv(prefix, params))
            swept = f"--param {args.param}"
            if swept not in cli._reads(args, set(params))[1]:
                yield kind, swept
                continue
        flags = _option_strings(commands.choices[prefix[0]])
        for name in ("--format", "--out", *cli._UNREAD, *PARAM_KEYS):
            if f"--{name.lstrip('-').replace('_', '-')}" in flags:
                yield kind, name


@pytest.mark.parametrize("kind, name", list(_walk()))
def test_a_request_reads_what_the_description_says(capsys, tmp_path, kind,
                                                    name):
    # read: changing it changes stdout, or exits with a documented error
    # (nu must be 0 on the infinite cylinder);
    # unread: exit 2 with one line that names it
    prefix, params = _KINDS[kind]
    argv = (_argv(prefix, params) if name.startswith("--param ")
            else _with(prefix, params, name, tmp_path))
    request, reads = cli._reads(build_parser().parse_args(argv),
                                {*params, name})
    if name in reads or name in ("--format", "--out"):
        runs = [run(capsys, *a)
                for a in _pair(prefix, params, name, reads, tmp_path)]
        for code, out, err in runs:
            assert code == 0 or (code in (2, 3, 4) and out == ""
                                 and err.count("\n") == 1), err
            assert "does not read" not in err
        assert runs[0][:2] != runs[1][:2] or runs[0][0] != 0
    else:
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {request} does not read {name}\n"
    if name == "radius_nm" and params:
        # read once a physical key that the request reads is given
        params = _physical(params)
        argvs = _pair(prefix, params, name, reads, tmp_path)
        args = build_parser().parse_args(argvs[0])
        assert name in cli._reads(args, {*params, name})[1]
        runs = [run(capsys, *a) for a in argvs]
        assert all(code == 0 for code, _, _ in runs)
        assert runs[0][1] != runs[1][1]
