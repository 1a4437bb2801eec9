import math
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from abcyl import fermi
from abcyl.fermi import (METHODS, IntegralSumEstimate, c_coefficient_exact,
                         j_coeff, persistent_all, persistent_compact,
                         persistent_exact, persistent_linearized,
                         persistent_nonrel, persistent_short, sum_lambda_n)
from abcyl.params import DimensionlessParams, RegimeError
from abcyl.spectrum import FermiSea, chi, enumerate_fermi_sea, half_odd_run

_ULP = sys.float_info.epsilon


def _chi_per_state(d):
    """The per-state oracle: the sum of chi and of |chi| over the exact
    sea, one state at a time."""
    chis = [chi(n, lam, d) for n, lam in enumerate_fermi_sea(d).states()]
    return math.fsum(chis), math.fsum(map(abs, chis))


def _c_per_state(d):
    """The per-state oracle of c: j summed over the lambda > 0 states of
    the beta-free sea."""
    sea = enumerate_fermi_sea(d._replace(beta=0.0))
    return math.fsum(j_coeff(n, lam, d) for n, lam in sea.states() if lam > 0)


def test_exact_is_sum_of_mode_currents():
    d = DimensionlessParams(mu=1.0, nu=0.8, beta=0.2, alpha=3.0)
    rep = persistent_exact(d)
    sea = enumerate_fermi_sea(d)
    manual = sum(chi(n, lam, d) for n, lam in sea.states()) / (2 * math.pi)
    assert rep.value == pytest.approx(manual, rel=1e-13)
    assert rep.N_e == sea.N_e
    assert rep.method == "exact"


def test_exact_vanishes_without_flux():
    d = DimensionlessParams(mu=1.0, nu=0.5, alpha=4.0)
    assert persistent_exact(d).value == 0.0


def test_exact_odd_in_beta():
    dp = DimensionlessParams(mu=1.0, nu=0.5, beta=0.07, alpha=4.0)
    dm = DimensionlessParams(mu=1.0, nu=0.5, beta=-0.07, alpha=4.0)
    assert persistent_exact(dp).value == pytest.approx(
        -persistent_exact(dm).value, rel=1e-13)


def test_empty_sea_report():
    d = DimensionlessParams(mu=1.0, nu=3.0, beta=0.1, alpha=1.0)
    rep = persistent_exact(d)
    assert rep.value == 0.0 and rep.N_e == 0
    assert "empty-sea" in rep.flags


def test_j_coeff():
    d = DimensionlessParams(mu=1.0, nu=1.0)
    s = 2.0
    assert j_coeff(1, 0.5, d) == pytest.approx(s / (s + 0.25) ** 1.5)
    with pytest.raises(ValueError):
        j_coeff(0, 0.5, d)


def test_linearized_matches_exact_at_small_beta():
    beta = 1e-5
    d = DimensionlessParams(mu=5.0, nu=0.5, beta=beta, alpha=4.0)
    ex = persistent_exact(d).value
    lin = persistent_linearized(d).value
    assert lin == pytest.approx(ex, rel=1e-5)
    # and the c coefficient is beta-independent
    d2 = DimensionlessParams(mu=5.0, nu=0.5, beta=2 * beta, alpha=4.0)
    assert persistent_linearized(d2).c == pytest.approx(
        persistent_linearized(d).c, rel=1e-15)


def test_compact_close_to_linearized():
    d = DimensionlessParams(mu=250.0, nu=1.0, beta=1e-4, alpha=50.0)
    lin = persistent_linearized(d).value
    com = persistent_compact(d).value
    assert com == pytest.approx(lin, rel=0.02)


def test_c_coefficient_positive_lambda_only():
    d = DimensionlessParams(mu=1.0, nu=1.0, alpha=3.0)
    sea = enumerate_fermi_sea(d)
    manual = sum(j_coeff(n, lam, d) for n, lam in sea.states() if lam > 0)
    assert c_coefficient_exact(d) == pytest.approx(manual, rel=1e-14)


def test_sum_lambda_n_exact_vs_integral():
    d = DimensionlessParams(mu=250.0, nu=1.0, alpha=150.0)
    exact = enumerate_fermi_sea(d).sum_lambda_n()
    est = sum_lambda_n(d)
    assert isinstance(est, IntegralSumEstimate)
    assert est.n_F_continuous > 100.0
    assert est.quadrature == pytest.approx(exact, rel=0.01)
    # the printed closed form is reported but may disagree; it must at
    # least be finite and positive here
    assert est.closed_form > 0.0


@pytest.mark.parametrize("alpha, nu", [(300.0, 0.3), (2000.0, 2.0)])
def test_printed_closed_form_is_off_by_one_over_nu_squared(alpha, nu):
    # at n_F ~ 1000 the printed n_F (1 + pi n_F / nu) / 4 is 1/nu^2 times
    # the integral it stands for (leading terms pi n_F^2/(4 nu) against
    # pi nu n_F^2 / 4)
    est = sum_lambda_n(DimensionlessParams(mu=1.0, nu=nu, alpha=alpha))
    assert est.n_F_continuous == pytest.approx(1000.0, rel=1e-5)
    assert est.closed_form / est.quadrature == pytest.approx(1.0 / nu**2,
                                                             rel=1e-3)


def test_import_leaves_scipy_out():
    # neither scipy nor the tests' mpmath oracle is a runtime dependency,
    # and the persistent-current layers and chi run without numpy
    import abcyl
    src = os.path.dirname(os.path.dirname(abcyl.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, abcyl, abcyl.params, abcyl.spectrum, abcyl.fermi; "
         "d = abcyl.params.DimensionlessParams(mu=250.0, nu=1.0, "
         "alpha=50.0, beta=0.1); abcyl.fermi.persistent_all(d); "
         "abcyl.spectrum.chi(1, 0.5, d); "
         "print([m for m in ('scipy', 'mpmath', 'numpy') "
         "if m in sys.modules])"],
        env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_short_cylinder_formula():
    d = DimensionlessParams(mu=300.0, nu=10.0, beta=1e-4, alpha=15.0)
    rep = persistent_short(d)
    expected = (1e-4 / math.pi) * math.sqrt((15.0**2 - 10.0**2)
                                            / (15.0**2 + 300.0**2))
    assert rep.value == pytest.approx(expected, rel=1e-12)
    assert "short" in rep.flags
    assert rep.n_F == 1


def test_short_ring_substitution():
    d = DimensionlessParams(mu=1.0, nu=5.0, beta=0.1, alpha=3.0)
    rep = persistent_short(d)
    assert any("ring substitution" in note for note in rep.notes)
    assert rep.lambda_F == 2.5
    expected = (0.1 / math.pi) * 2.5 / math.sqrt(2.5**2 + 1.0)
    assert rep.value == pytest.approx(expected, rel=1e-12)


def test_short_needs_a_finite_cylinder():
    # no sea and no column cap, but nu = 0 is the infinite cylinder
    with pytest.raises(RegimeError, match="needs nu > 0"):
        persistent_short(DimensionlessParams(mu=1.0, nu=0.0, alpha=3.0))


def test_nonrel_report():
    d = DimensionlessParams(mu=1000.0, nu=1.0, beta=1e-4, alpha=20.0)
    rep = persistent_nonrel(d)
    assert rep.value == pytest.approx((1e-4 / math.pi) * rep.N_e / 2000.0,
                                      rel=1e-14)
    assert any("lambda_F variant" in note for note in rep.notes)
    assert rep.value == pytest.approx(persistent_exact(d).value, rel=1e-3)


def test_persistent_all_keys():
    d = DimensionlessParams(mu=10.0, nu=1.0, beta=1e-3, alpha=5.0)
    reps = persistent_all(d)
    assert set(reps) == {"exact", "linearized", "compact", "short", "nonrel"}
    for name, rep in reps.items():
        assert rep.method == name
        assert math.isfinite(rep.value)


def test_methods_are_the_tags_of_persistent_all():
    # sweep computes persistent_<tag> alone, one call per point, for each
    # tag; each alone must equal its report from persistent_all
    d = DimensionlessParams(mu=10.0, nu=1.0, beta=1e-3, alpha=5.0)
    reps = persistent_all(d)
    assert METHODS == tuple(reps)
    for tag in METHODS:
        assert getattr(fermi, f"persistent_{tag}")(d) == reps[tag]


@given(beta=st.floats(1e-6, 0.05), alpha=st.floats(1.0, 6.0),
       mu=st.floats(0.5, 20.0), nu=st.floats(0.2, 1.5))
@settings(max_examples=40, deadline=None)
def test_exact_odd_in_beta_property(beta, alpha, mu, nu):
    vp = persistent_exact(
        DimensionlessParams(mu=mu, nu=nu, beta=beta, alpha=alpha)).value
    vm = persistent_exact(
        DimensionlessParams(mu=mu, nu=nu, beta=-beta, alpha=alpha)).value
    assert vp == pytest.approx(-vm, rel=1e-12, abs=1e-300)


@given(alpha=st.floats(1.0, 8.0), mu=st.floats(0.5, 10.0),
       nu=st.floats(0.2, 1.5), beta=st.floats(1e-6, 1e-3))
@settings(max_examples=40, deadline=None)
def test_linearized_sign_matches_beta(alpha, mu, nu, beta):
    d = DimensionlessParams(mu=mu, nu=nu, beta=beta, alpha=alpha)
    rep = persistent_linearized(d)
    if rep.N_e > 0:
        assert rep.value > 0.0
        assert rep.c > 0.0


# (mu, nu, alpha) x beta: the README's persistent point, a light fermion
# (mu = 1) and the verify ladder's heavy, dense sea
_IDENTITY_POINTS = [(mu, nu, alpha, beta)
                    for mu, nu, alpha in ((25.0, 1.0, 10.3), (1.0, 0.5, 7.7),
                                          (250.0, 1.0, 50.0))
                    for beta in (0.05, 0.3, 0.45)]


@pytest.mark.parametrize("mu, nu, alpha, beta", _IDENTITY_POINTS)
def test_exact_is_exactly_odd_in_beta(mu, nu, alpha, beta):
    # the -beta sea is the mirror image lambda -> -lambda, term by term,
    # and fsum is correctly rounded, so no rounding slack is needed
    vp = persistent_exact(DimensionlessParams(mu, nu, beta, alpha)).value
    vm = persistent_exact(DimensionlessParams(mu, nu, -beta, alpha)).value
    assert vp != 0.0 and vm == -vp


@pytest.mark.parametrize("mu, nu, alpha, beta", _IDENTITY_POINTS)
def test_exact_is_flux_periodic(mu, nu, alpha, beta):
    # Byers-Yang: a whole flux quantum (beta -> beta +- 1) relabels
    # lambda -> lambda -+ 1 and leaves the current unchanged; (lambda+1)+beta
    # and lambda+(beta+1) may round apart, so allow 4 ulp per |chi| term
    d = DimensionlessParams(mu, nu, beta, alpha)
    sea = enumerate_fermi_sea(d)
    atol = (4 * sys.float_info.epsilon / (2 * math.pi)
            * math.fsum(abs(chi(n, lam, d)) for n, lam in sea.states()))
    value = persistent_exact(d).value
    for shift in (1.0, -1.0):
        shifted = persistent_exact(DimensionlessParams(mu, nu, beta + shift,
                                                       alpha))
        assert shifted.N_e == sea.N_e
        assert abs(shifted.value - value) <= atol


@pytest.mark.parametrize("mu, nu, alpha", [(25.0, 1.0, 10.3),
                                           (1.0, 0.5, 60.0),
                                           (250.0, 1.0, 50.0)])
@pytest.mark.parametrize("beta", [0.5, -0.5, 1.5])
def test_exact_vanishes_at_half_flux(mu, nu, alpha, beta):
    # at half-integer beta every column's q = lambda + beta run is
    # symmetric about 0, so the exact sum is exactly 0
    rep = persistent_exact(DimensionlessParams(mu, nu, beta, alpha))
    assert rep.value == 0.0 and rep.N_e > 0


@given(mu=st.floats(0.5, 300.0), nu=st.floats(0.1, 2.0),
       alpha=st.floats(0.0, 300.0),
       beta=st.floats(-0.5, 0.5, exclude_min=True))
@settings(max_examples=20, deadline=None)
# after the shift by round(beta), one column holds the single state -1/2
@example(mu=1.0, nu=0.25, alpha=1.0, beta=0.25)
def test_column_sums_match_per_state_sums(mu, nu, alpha, beta):
    # the closed-form column sums against the per-state fsum: chi within
    # 1 ulp of sum |chi|, c within 4 ulp of c
    d = DimensionlessParams(mu, nu, beta, alpha)
    total, abs_total = _chi_per_state(d)
    assert (abs(persistent_exact(d).value - total / (2 * math.pi))
            <= _ULP * abs_total / (2 * math.pi))
    c = _c_per_state(d)
    assert abs(c_coefficient_exact(d) - c) <= 4 * _ULP * c


def _mpmath_current(mpmath, d, sea):
    """R*I summed state by state over sea at mpmath's working precision."""
    q0 = mpmath.mpf(d.beta)
    return mpmath.fsum(
        q / mpmath.sqrt(s + q * q)
        for n, lo, hi in sea.columns
        for s in (mpmath.mpf(d.mu) ** 2 + (mpmath.mpf(d.nu) * n) ** 2,)
        for q in (q0 + lam for lam in half_odd_run(lo, hi))) / (2 * mpmath.pi)


# (mu, nu, alpha, beta): a heavy dense sea, the README's point, two
# light fermions, where the explicit window and the order matter most,
# a sea whose first 19 and last 4 columns keep a window and whose
# other 76 have none, and seas of two and three states whose column sums
# and per-state sums lie on opposite sides of the true sum, 1.32 and
# 1.07 times the bound apart
@pytest.mark.parametrize("mu, nu, alpha, beta", [
    (250.0, 1.0, 200.0, 0.3), (25.0, 1.0, 10.3, 0.05),
    (1.0, 0.5, 60.0, 0.37), (1.0, 0.1, 100.0, 0.2),
    (90.0, 1.0, 100.0, 0.3), (3.9375, 2.0, 2.25, 0.353515625),
    (251.9268141935593, 1 / 3, 1.0, 0.419921875)])
def test_exact_against_mpmath(mu, nu, alpha, beta):
    # both the column sums and the per-state sum within 1 ulp of sum |chi|
    # of a 30-digit sum over the same sea
    mpmath = pytest.importorskip("mpmath")
    d = DimensionlessParams(mu, nu, beta, alpha)
    sea = enumerate_fermi_sea(d)
    with mpmath.workdps(30):
        exact = _mpmath_current(mpmath, d, sea)
        total, abs_total = _chi_per_state(d)
        tol = _ULP * abs_total / (2 * math.pi)
        column_err = float(abs(persistent_exact(d, sea).value - exact))
        state_err = float(abs(total / (2 * math.pi) - exact))
    assert column_err <= tol and state_err <= tol, (column_err / tol,
                                                     state_err / tol)


def _ulps_from_mpmath(d):
    """persistent_exact's distance from a 30-digit sum over the same sea,
    in ulp of its value."""
    mpmath = pytest.importorskip("mpmath")
    sea = enumerate_fermi_sea(d)
    with mpmath.workdps(30):
        exact = _mpmath_current(mpmath, d, sea)
        value = persistent_exact(d, sea).value
        return float(abs(value - exact)) / math.ulp(value)


@pytest.mark.parametrize("nu", [1.0, 1.0994543810025033])
def test_small_beta_against_mpmath_in_ulps_of_the_value(nu):
    # README's point and a point of its nu scan: at beta = 1e-4 the +-lambda
    # terms nearly cancel, and every column is summed without explicit
    # terms, to within 4 ulp of the current itself
    err = _ulps_from_mpmath(DimensionlessParams(250.0, nu, 1e-4, 50.0))
    assert err <= 4, err


# (mu, nu, alpha, beta): seas whose light columns keep an explicit window;
# at beta = 1e-4 the +-lambda terms nearly cancel, and beta = 1.2 sums as
# beta = 0.2 over the shifted runs
@pytest.mark.parametrize("mu, nu, alpha, beta", [
    (25.0, 1.0, 10.3, 1e-4), (1.0, 0.5, 60.0, 1e-4), (5.0, 0.3, 40.0, 1e-4),
    (25.0, 1.0, 10.3, 0.05), (1.0, 0.5, 60.0, 0.3), (1.0, 0.5, 60.0, -0.37),
    (1.0, 0.5, 60.0, 1.2), (5.0, 0.3, 40.0, 0.45)])
def test_paired_window_against_mpmath_in_ulps_of_the_value(mu, nu, alpha,
                                                           beta):
    # the window summed in +-lambda pairs, to within 4 ulp of the current
    err = _ulps_from_mpmath(DimensionlessParams(mu, nu, beta, alpha))
    assert err <= 4, err


def _windows(monkeypatch, d):
    """The explicit windows persistent_exact and c_coefficient_exact take,
    per column in ascending n: (chi window, j window)."""
    taken = {0: [], 1: []}
    window = fermi._window

    def spy(s, tol, offset):
        taken[offset].append(window(s, tol, offset))
        return taken[offset][-1]

    monkeypatch.setattr(fermi, "_window", spy)
    persistent_exact(d)
    c_coefficient_exact(d)
    return taken[0], taken[1]


@pytest.mark.parametrize("nu, alpha, beta", [
    (1.0, 200.0, 0.3), (1.0, 500.0, 0.12883976470588235), (0.1, 1000.0, -0.45),
    (5.0, 60.0, 1e-4)])
def test_heavy_columns_have_no_window(monkeypatch, nu, alpha, beta):
    # at mu = 250 the bound holds at q = 0 in every column: each column
    # is one Euler-Maclaurin sum
    d = DimensionlessParams(mu=250.0, nu=nu, beta=beta, alpha=alpha)
    chi_windows, j_windows = _windows(monkeypatch, d)
    assert len(chi_windows) == len(enumerate_fermi_sea(d).columns) > 0
    assert len(j_windows) > 0
    assert set(chi_windows) == set(j_windows) == {0.0}


def test_light_columns_keep_a_window(monkeypatch):
    d = DimensionlessParams(mu=1.0, nu=0.1, beta=0.2, alpha=100.0)
    chi_windows, j_windows = _windows(monkeypatch, d)
    assert min(chi_windows[:100]) >= 1.0 and min(j_windows[:100]) >= 1.0


def test_c_against_mpmath():
    # a heavy dense sea, every column summed without explicit terms, within
    # 4 ulp of c of a 30-digit sum over the same states
    mpmath = pytest.importorskip("mpmath")
    mu, nu, alpha = 250.0, 1.0, 200.0
    d = DimensionlessParams(mu, nu, 0.0, alpha)
    sea = enumerate_fermi_sea(d)
    with mpmath.workdps(30):
        exact = mpmath.fsum(
            s / (s + mpmath.mpf(lam) ** 2) ** 1.5
            for n, lo, hi in sea.columns
            for s in (mpmath.mpf(mu) ** 2 + (mpmath.mpf(nu) * n) ** 2,)
            for lam in half_odd_run(max(lo, 0.5), hi))
        c = c_coefficient_exact(d, sea)
        err = float(abs(c - exact))
    assert err <= 4 * _ULP * c, err / (_ULP * c)


def test_persistent_all_walks_no_state(monkeypatch):
    # every method sums per column: no per-state walk is left
    def walk(self):
        raise AssertionError("per-state walk of the Fermi sea")

    monkeypatch.setattr(FermiSea, "states", walk)
    d = DimensionlessParams(mu=250.0, nu=1.0, beta=1e-4, alpha=1500.0)
    reports = persistent_all(d)
    assert reports["exact"].N_e > 3_000_000
    assert reports["linearized"].value > 0.0


@pytest.mark.parametrize("c_of", [c_coefficient_exact, fermi.c_compact,
                                  persistent_linearized, persistent_compact],
                         ids=["exact", "compact", "linearized",
                              "persistent_compact"])
def test_c_refuses_a_sea_at_beta(c_of):
    # the beta = 0.25 sea's column 3 holds lambda = -1/2 alone; c is
    # defined on the beta-free sea, whose columns are all symmetric
    d = DimensionlessParams(mu=1.0, nu=0.25, beta=0.25, alpha=1.0)
    sea = enumerate_fermi_sea(d)
    assert sea.columns[2] == (3, -0.5, -0.5)
    with pytest.raises(ValueError, match=r"^column n = 3 runs lambda from "
                                         r"-0\.5 to -0\.5; c needs the "
                                         r"beta-free sea"):
        c_of(d, sea)
    # and takes the beta-free sea it documents
    c_of(d, enumerate_fermi_sea(d._replace(beta=0.0)))
