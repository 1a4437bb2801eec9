import math
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import abcyl
from abcyl.fermi import j_coeff
from abcyl.params import DimensionlessParams, RegimeError, validate_regime
from abcyl.spectrum import (MAX_SEA_COLUMNS, FermiSea, ModeSpec, chi,
                            energy_finite, energy_infinite,
                            enumerate_fermi_sea, half_odd_count, half_odd_run,
                            largest_half_odd, mode_energy)

half_odd = st.integers(-9, 8).map(lambda m: m + 0.5)


def test_energy_hand_values():
    d = DimensionlessParams(mu=1.0, nu=1.0)
    assert energy_finite(1, 0.5, d) == pytest.approx(math.sqrt(2.25))
    assert energy_finite(1, 1.5, d) == pytest.approx(math.sqrt(1 + 1 + 2.25))
    assert energy_infinite(0.0, -0.5, DimensionlessParams(mu=1.0, beta=0.5)) \
        == pytest.approx(1.0)


def test_energy_finite_rejects_bad_input():
    d = DimensionlessParams(mu=1.0)
    with pytest.raises(ValueError):
        energy_finite(1, 0.5, d)           # nu = 0
    with pytest.raises(ValueError):
        energy_finite(0, 0.5, DimensionlessParams(mu=1.0, nu=1.0))


def test_mode_spec_validation():
    with pytest.raises(ValueError):
        ModeSpec(geometry="finite", lam=1.0, sigma=0.5, n=1)   # integer lam
    with pytest.raises(ValueError):
        ModeSpec(geometry="finite", lam=0.5, sigma=0.3, n=1)
    with pytest.raises(ValueError):
        ModeSpec(geometry="finite", lam=0.5, sigma=0.5, k=1.0)
    with pytest.raises(ValueError):
        ModeSpec(geometry="infinite", lam=0.5, sigma=0.5, n=1)
    with pytest.raises(ValueError):
        ModeSpec(geometry="finite", lam=0.5, sigma=0.5, n=0)


def test_mode_energy_dispatch():
    d = DimensionlessParams(mu=1.0, nu=0.7, beta=0.2)
    fin = ModeSpec(geometry="finite", lam=1.5, sigma=0.5, n=2)
    inf = ModeSpec(geometry="infinite", lam=1.5, sigma=-0.5, k=1.4)
    assert mode_energy(fin, d) == pytest.approx(energy_finite(2, 1.5, d))
    assert mode_energy(inf, d) == pytest.approx(energy_infinite(1.4, 1.5, d))


def test_largest_half_odd():
    assert largest_half_odd(0.4) is None
    assert largest_half_odd(0.5) == 0.5
    assert largest_half_odd(3.2) == 2.5
    assert largest_half_odd(3.5) == 3.5


def test_fermi_sea_hand_case():
    d = DimensionlessParams(mu=1.0, nu=1.0, alpha=2.0)
    sea = enumerate_fermi_sea(d)
    assert tuple(sea.states()) == ((1, -1.5), (1, -0.5), (1, 0.5), (1, 1.5))
    assert sea.N_e == 4 and sea.n_F == 1 and sea.lambda_F == 1.5
    assert sea.sum_lambda_n() == 1.5
    assert not sea.empty


def test_fermi_sea_boundary_tie_occupied():
    # nu^2 n^2 + lambda^2 = 4 + 2.25 = 6.25 = alpha^2 exactly in floats:
    # the boundary state counts as occupied
    sea = enumerate_fermi_sea(DimensionlessParams(mu=1.0, nu=2.0, alpha=2.5))
    assert (1, 1.5) in tuple(sea.states())


def test_fermi_sea_empty():
    sea = enumerate_fermi_sea(DimensionlessParams(mu=1.0, nu=2.0, alpha=1.0))
    assert sea.empty and sea.N_e == 0 and sea.n_F == 0
    assert "ring-like" in validate_regime(
        DimensionlessParams(mu=1.0, nu=2.0, alpha=1.0))


def test_fermi_sea_exact_uses_beta():
    d = DimensionlessParams(mu=1.0, nu=1.0, alpha=2.0, beta=0.4)
    exact = enumerate_fermi_sea(d)
    quad = enumerate_fermi_sea(d._replace(beta=0.0))
    # beta=0.4 pushes (1, 1.5) out: (1.5+0.4)^2 + 1 > 4
    assert (1, 1.5) in tuple(quad.states())
    assert (1, 1.5) not in tuple(exact.states())
    assert (1, -1.5) in tuple(exact.states())


def test_fermi_sea_rejects_bad_input():
    with pytest.raises(ValueError):
        enumerate_fermi_sea(DimensionlessParams(mu=1.0))


@given(n=st.integers(1, 6), lam=half_odd,
       mu=st.floats(0.1, 10.0), nu=st.floats(0.05, 5.0),
       beta=st.floats(-2.0, 2.0))
@settings(max_examples=80, deadline=None)
def test_energy_depends_on_lambda_plus_beta(n, lam, mu, nu, beta):
    # shifting (lambda, beta) -> (lambda+1, beta-1) leaves E unchanged
    d1 = DimensionlessParams(mu=mu, nu=nu, beta=beta)
    d2 = DimensionlessParams(mu=mu, nu=nu, beta=beta - 1.0)
    assert energy_finite(n, lam, d1) == pytest.approx(
        energy_finite(n, lam + 1.0, d2), rel=1e-14)


@given(n=st.integers(1, 6), lam=half_odd, mu=st.floats(0.1, 10.0),
       nu=st.floats(0.05, 5.0))
@settings(max_examples=50, deadline=None)
def test_energy_monotone_in_n(n, lam, mu, nu):
    d = DimensionlessParams(mu=mu, nu=nu)
    assert energy_finite(n + 1, lam, d) > energy_finite(n, lam, d)


@given(mu=st.floats(0.1, 5.0), nu=st.floats(0.1, 2.0),
       alpha=st.floats(0.0, 8.0), beta=st.floats(-0.9, 0.9))
# state (8, 0.5) sits on the boundary: (nu*n)**2 + (lam+beta)**2 rounds to
# 1.0 = alpha**2, while the sea's own test compares (lam+beta)**2 = 0.36
# with 1.0 - 0.6400000000000001 = 0.3599999999999999 and leaves it empty
@example(mu=1.0, nu=0.1, alpha=1.0, beta=0.1)
@settings(max_examples=60, deadline=None)
def test_fermi_sea_criterion_is_sharp(mu, nu, alpha, beta):
    d = DimensionlessParams(mu=mu, nu=nu, alpha=alpha, beta=beta)
    sea = enumerate_fermi_sea(d)
    a2 = alpha**2
    occupied = set(sea.states())
    for n, lam in occupied:
        assert (nu * n) ** 2 + (lam + beta) ** 2 <= a2 * (1 + 1e-12)
    # no admissible state just inside the boundary was missed
    nmax = math.ceil(alpha / nu) + 1
    for n in range(1, nmax + 1):
        lam = -math.floor(alpha + abs(beta)) - 0.5
        while lam <= alpha + abs(beta) + 0.5:
            # the sea's documented occupation test, rounding included
            if (lam + beta) ** 2 <= a2 - (nu * n) ** 2:
                assert (n, lam) in occupied
            lam += 1.0


@given(mu=st.floats(0.1, 5.0), nu=st.floats(0.1, 2.0),
       alpha=st.floats(0.5, 8.0))
@settings(max_examples=50, deadline=None)
def test_fermi_sea_symmetric_without_beta(mu, nu, alpha):
    d = DimensionlessParams(mu=mu, nu=nu, alpha=alpha)
    sea = enumerate_fermi_sea(d)
    occupied = set(sea.states())
    assert occupied == {(n, -lam) for n, lam in occupied}


def test_fermi_sea_is_frozen():
    sea = FermiSea(columns=())
    with pytest.raises(AttributeError):
        sea.n_F = 1


def scan_fermi_sea(d):
    """Reference enumeration: test every half-odd lambda of every column.

    This is the per-state scan enumerate_fermi_sea replaced; returns
    (occupied, lambda_n) in ascending n then lambda.
    """
    a2 = d.alpha**2
    beta = d.beta
    occupied = []
    lambda_n = {}
    n_max = math.ceil(d.alpha / d.nu) + 1
    lam_max = d.alpha + abs(d.beta) + 1.0
    for n in range(1, n_max + 1):
        rem = a2 - (d.nu * n) ** 2
        if rem < 0.0:
            break
        col = []
        lam = 0.5
        while lam <= lam_max:
            if (lam + beta) ** 2 <= rem:
                col.append(lam)
            if (-lam + beta) ** 2 <= rem:
                col.append(-lam)
            lam += 1.0
        if not col:
            continue
        col.sort()
        occupied.extend((n, lam) for lam in col)
        lambda_n[n] = max(abs(lam) for lam in col)
    return tuple(occupied), lambda_n


def assert_matches_scan(d):
    for point in (d, d._replace(beta=0.0)):
        occupied, lambda_n = scan_fermi_sea(point)
        sea = enumerate_fermi_sea(point)
        assert tuple(sea.states()) == occupied
        assert type(sea.N_e) is int and sea.N_e == len(occupied)
        assert type(sea.n_F) is int and sea.n_F == max(lambda_n, default=0)
        assert sea.sum_lambda_n() == math.fsum(lambda_n.values())
        assert sea.lambda_F == lambda_n.get(1)
        assert sea.empty == (not occupied)


@given(nu=st.floats(0.1, 3.0), alpha=st.floats(0.0, 20.0),
       beta=st.floats(-3.0, 3.0))
@settings(max_examples=150, deadline=None)
def test_columns_match_per_state_scan(nu, alpha, beta):
    assert_matches_scan(DimensionlessParams(mu=1.0, nu=nu, alpha=alpha,
                                            beta=beta))


@st.composite
def boundary_ties(draw):
    """Points where nu^2 n^2 + (lambda+beta)^2 = alpha^2 holds exactly in
    floats for some state (n, lambda), from Pythagorean triples."""
    m = draw(st.integers(2, 9))
    k = draw(st.integers(1, m - 1))
    legs = [m * m - k * k, 2 * m * k]
    if draw(st.booleans()):
        legs.reverse()
    scale = draw(st.sampled_from([0.5, 1.0, 2.0]))
    n = draw(st.sampled_from([1, 2, 3, 4]))
    q = draw(st.sampled_from([1.0, -1.0])) * scale * legs[1]   # lambda+beta
    lam = math.floor(q) + 0.5
    return DimensionlessParams(mu=1.0, nu=scale * legs[0] / n, beta=q - lam,
                               alpha=scale * (m * m + k * k))


@st.composite
def decimal_points(draw):
    """Decimal inputs, whose ties in the reals land either side of the
    boundary once rounded."""
    return DimensionlessParams(mu=1.0, nu=draw(st.integers(1, 30)) / 10,
                               alpha=draw(st.integers(0, 100)) / 10,
                               beta=draw(st.integers(-20, 20)) / 10)


def test_boundary_tie_hand_cases():
    # nu n = 3, lambda + beta = 3.5 + 0.5 = 4, alpha = 5
    d = DimensionlessParams(mu=1.0, nu=1.0, beta=0.5, alpha=5.0)
    assert (3, 3.5) in tuple(enumerate_fermi_sea(d).states())
    assert_matches_scan(d)
    # rounding puts a column end one step beyond the sqrt estimate
    # (column 21 at beta = +-1.3) or one step short of it (column 4)
    for beta in (1.3, -1.3):
        assert_matches_scan(DimensionlessParams(mu=1.0, nu=0.1, beta=beta,
                                                alpha=3.5))
    assert_matches_scan(DimensionlessParams(mu=1.0, nu=0.1, beta=-1.8,
                                            alpha=0.5))


@given(d=st.one_of(boundary_ties(), decimal_points()))
@settings(max_examples=300, deadline=None)
def test_columns_match_per_state_scan_at_ties(d):
    assert_matches_scan(d)


def test_plane_wave_needs_half_odd_lambda():
    with pytest.raises(ValueError, match="half-odd"):
        energy_infinite(0.3, 1.0, DimensionlessParams(mu=1.0))


@pytest.mark.parametrize("fn", [chi, energy_finite, j_coeff])
def test_modes_that_do_not_exist_are_refused(fn):
    d = DimensionlessParams(mu=1.0, nu=1.0, beta=0.3)
    for n, lam in ((0, 0.5), (-3, 0.5), (1, 1.0), (1, 0.7), (2, -2.0)):
        with pytest.raises(ValueError, match="n must be|half-odd"):
            fn(n, lam, d)
    fn(1, -0.5 + 1e-12, d)              # within ModeSpec's tolerance


def test_infinite_cylinder_is_a_regime_error_for_finite_states():
    d = DimensionlessParams(mu=1.0, alpha=3.0)
    for call in (lambda: chi(1, 0.5, d), lambda: energy_finite(1, 0.5, d),
                 lambda: j_coeff(1, 0.5, d), lambda: enumerate_fermi_sea(d)):
        with pytest.raises(RegimeError, match=r"nu > 0"):
            call()


@pytest.mark.parametrize("nu", [1e-9, 1e-320])
@pytest.mark.parametrize("fn", ["abcyl.spectrum.enumerate_fermi_sea",
                                "abcyl.fermi.persistent_exact"])
def test_wide_sea_is_refused_at_once(fn, nu):
    # alpha/nu columns: 8.7e8 of them at nu = 1e-9 (minutes of walking),
    # and an infinite count at 1e-320; run apart, so a walk cannot hang
    # the suite
    module, name = fn.rsplit(".", 1)
    code = (f"import time; from {module} import {name}; "
            "from abcyl.params import DimensionlessParams, RegimeError\n"
            "t = time.perf_counter()\n"
            f"try: {name}(DimensionlessParams(mu=1.0, nu={nu!r}, alpha=1.0))\n"
            "except RegimeError as exc: print(time.perf_counter() - t, exc)")
    src = os.path.dirname(os.path.dirname(abcyl.__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=src),
                          timeout=20)
    assert proc.returncode == 0 and proc.stderr == ""
    seconds, message = proc.stdout.split(" ", 1)
    assert float(seconds) < 1.0
    assert f"the cap is {MAX_SEA_COLUMNS}" in message


def test_sea_at_the_cap_is_built():
    # the widest sea allowed still ends at its first empty column
    nu = math.sqrt(1.0 - 0.25) / MAX_SEA_COLUMNS
    sea = enumerate_fermi_sea(DimensionlessParams(mu=1.0, nu=nu, alpha=1.0))
    assert sea.n_F in (MAX_SEA_COLUMNS - 1, MAX_SEA_COLUMNS)
    assert sea.N_e == 2 * sea.n_F
    with pytest.raises(RegimeError, match="spans 30001 columns"):
        enumerate_fermi_sea(DimensionlessParams(mu=1.0, nu=nu * 0.99999,
                                                alpha=1.0))


def test_sea_of_rounded_ties_never_passes_the_cap():
    # alpha = 1/2 at integer beta: the least |lambda + beta| is alpha, so
    # check_sea_columns counts no column, yet alpha^2 - (nu n)^2 rounds
    # back to alpha^2 and every column keeps its tie
    d = DimensionlessParams(mu=3.0, nu=1e-11, beta=1.0, alpha=0.5)
    assert enumerate_fermi_sea(d).n_F == 372
    with pytest.raises(RegimeError, match="occupies column 30001"):
        enumerate_fermi_sea(d._replace(nu=1e-13))


@pytest.mark.parametrize("lo, hi", [
    (0.5, 6.5), (-3.0, 2.5), (-2.5, -2.5), (0.7, 0.5), (1.0, 5.5 - 1e-12),
    (0.5 + 1e-12, 3.5), (-7.25, 10.25), (2.5, 2.0), (-1e-300, 1e-300),
    (2.0**52 - 2.5, 2.0**52 - 0.5)])
def test_half_odd_count_is_the_run_length(lo, hi):
    run = list(half_odd_run(lo, hi))
    assert half_odd_count(lo, hi) == len(run)
    assert all(lo <= lam <= hi and (lam - 0.5) % 1.0 == 0.0 for lam in run)
    # a run starts at the first half-odd-integer at or above lo
    assert not run or run[0] - 1.0 < lo


def test_half_odd_count_needs_no_run():
    assert half_odd_count(-1e15, 1e15) == 2 * 10**15
    assert half_odd_count(-(2.0**52) + 1.0, 2.0**52 - 1.0) == 2**53 - 2
