import math
import os
import random
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
        column_err = float(abs(persistent_exact(d).value - exact))
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
        value = persistent_exact(d).value
        return float(abs(value - exact)) / math.ulp(value)


@pytest.mark.parametrize("nu", [1.0, 1.0994543810025033, 24.175998718111952,
                                34.77692306141769])
def test_small_beta_against_mpmath_in_ulps_of_the_value(nu):
    # README's point and three points of its nu scan: at beta = 1e-4 the
    # +-lambda terms nearly cancel, and every column is summed without
    # explicit terms, to within 4 ulp of the current itself; the last two
    # are 12.1 and 9.5 ulp off when [h] is a difference of rounded ends
    err = _ulps_from_mpmath(DimensionlessParams(250.0, nu, 1e-4, 50.0))
    assert err <= 4, err


# (mu, nu, alpha, beta): seas whose light columns keep an explicit window;
# at beta = 1e-4 the +-lambda terms nearly cancel, and beta = 1.2 sums as
# beta = 0.2 over the shifted runs
@pytest.mark.parametrize("mu, nu, alpha, beta", [
    (25.0, 1.0, 10.3, 1e-4), (1.0, 0.5, 60.0, 1e-4), (5.0, 0.3, 40.0, 1e-4),
    (25.0, 1.0, 10.3, 0.05), (1.0, 0.5, 60.0, 0.3), (1.0, 0.5, 60.0, -0.37),
    (1.0, 0.5, 60.0, 1.2), (5.0, 0.3, 40.0, 0.45),
    (1.2630034960030712, 0.6684679895886255, 53.22652819210724, 1e-8)])
def test_paired_window_against_mpmath_in_ulps_of_the_value(mu, nu, alpha,
                                                           beta):
    # the window summed in +-lambda pairs, to within 4 ulp of the current;
    # at beta = 1e-8 the inner pair's ends x -+ beta round apart from their
    # exact gap -2 beta, and [h] must come from that gap (61 ulp if not)
    err = _ulps_from_mpmath(DimensionlessParams(mu, nu, beta, alpha))
    assert err <= 4, err


# (mu, nu, alpha): the light seas of the paired-window ulp test at
# beta = 1e-8 and of its other points, the worst of 25 random light seas
# at beta = 1e-8, README's point and a point of its nu scan, and a light
# sea whose columns all keep a window
@pytest.mark.parametrize("mu, nu, alpha", [
    (1.2630034960030712, 0.6684679895886255, 53.22652819210724),
    (1.0, 0.5, 60.0),
    (2.830110898962995, 0.08562132866464983, 89.3320237310576),
    (250.0, 1.0, 50.0), (250.0, 24.175998718111952, 50.0), (1.0, 0.1, 100.0)])
def test_exact_meets_the_ladder_bound_at_beta_1e_8(mu, nu, alpha):
    # suite_ladder's relative bound 10 beta^2 between the exact and the
    # linearized current is 1e-15 at beta = 1e-8, under 5 eps: no mpmath
    # is needed to see an exact current drift from its true sum
    d = DimensionlessParams(mu, nu, 1e-8, alpha)
    exact = persistent_exact(d).value
    lin = persistent_linearized(d).value
    assert abs(exact - lin) <= 10 * d.beta**2 * abs(lin), (
        abs(exact - lin) / (10 * d.beta**2 * abs(lin)))


def _windows(monkeypatch, d):
    """The explicit windows persistent_exact and c_coefficient_exact take,
    per column in ascending n: (chi window, j window)."""
    taken = {0: [], 1: []}
    window = fermi._window

    def spy(s, tol, odd):
        taken[odd].append(window(s, tol, odd))
        return taken[odd][-1]

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
        c = c_coefficient_exact(d)
        err = float(abs(c - exact))
    assert err <= 4 * _ULP * c, err / (_ULP * c)


@pytest.mark.parametrize("odd", [0, 1])
def test_em_tail_matches_mpmath_derivatives(odd):
    # each term of a tail, [G^(odd)] and _EM[k] [h^(m)], m = odd + 2k, of
    # G = sqrt(s+x^2) and h = G'' = s (s+x^2)^(-3/2), against 40-digit
    # values at the real ends.  The chi ends are drawn as the callers
    # form them, x + beta and y - beta (an outer pair) or x - beta and
    # x + beta (an inner pair), x and y integers, so [G] and [h] must
    # come from the exact gap; the j ends are integers, a = 0 in one draw
    # in five, as a j column's whole run has.  [G^(odd)] and [h] are
    # gated at 8 eps of their own size (worst 2.0 and 3.6 eps), every
    # other term at 1e-14 of |_EM[k]| times the Gegenbauer bound
    # s (m+2)!/2 (s+x^2)^(-(m+3)/2) summed over both ends, so that a root
    # of h^(m) cannot blow up the error (worst 1.1e-15).  Seeded draws:
    # s from 1e-2 to 1e6, x/sqrt(s) from e^-5 to e^5, |beta| from 1e-8
    # to 1/2, either sign
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(34)
    worst = [0.0] * 4
    with mpmath.workdps(40):
        for i in range(100):
            s = math.exp(rng.uniform(math.log(1e-2), math.log(1e6)))
            x, y = (max(1, round(math.sqrt(s) * math.exp(rng.uniform(-5, 5))))
                    for _ in range(2))
            beta = rng.choice((-1.0, 1.0)) * math.exp(
                rng.uniform(math.log(1e-8), math.log(0.5)))
            mb = mpmath.mpf(beta)
            if odd:
                y = 0 if i % 5 == 0 else y
                b, a, gap, span = float(x + y), float(y), float(x), x + 2.0 * y
                ends = (mpmath.mpf(x + y), mpmath.mpf(y))
            elif i % 2:
                b, a, gap, span = x - beta, x + beta, -2.0 * beta, 2.0 * x
                ends = (x - mb, x + mb)
            else:
                b, a = x + beta, y - beta
                gap, span = float(x - y) + 2.0 * beta, float(x + y)
                ends = (x + mb, y - mb)
            ms = mpmath.mpf(s)
            g = (lambda z: mpmath.sqrt(ms + z * z),
                 lambda z: z / mpmath.sqrt(ms + z * z))[odd]
            h = lambda z: ms * (ms + z * z) ** mpmath.mpf(-1.5)
            hb, ha = (list(mpmath.diffs(h, z, 5)) for z in ends)
            terms = fermi._em_tail(b, a, gap, span, s, odd)
            assert len(terms) == 4
            for k, term in enumerate(terms):
                m = odd + 2 * k - 2
                if k == 0:
                    exact = g(ends[0]) - g(ends[1])
                else:
                    exact = mpmath.mpf(fermi._EM[k - 1]) * (hb[m] - ha[m])
                if m <= 0:  # [G^(odd)] and [h]
                    scale = 8 * _ULP * abs(exact)
                else:
                    scale = 1e-14 * (
                        abs(fermi._EM[k - 1]) * s * math.factorial(m + 2) / 2
                        * sum((s + z * z) ** (-(m + 3) / 2) for z in (b, a)))
                worst[k] = max(worst[k], float(abs(term - exact) / scale))
    assert max(worst) <= 1.0, worst


def test_persistent_all_walks_no_state(monkeypatch):
    # every method sums per column: no per-state walk is left
    def walk(self):
        raise AssertionError("per-state walk of the Fermi sea")

    monkeypatch.setattr(FermiSea, "states", walk)
    d = DimensionlessParams(mu=250.0, nu=1.0, beta=1e-4, alpha=1500.0)
    reports = persistent_all(d)
    assert reports["exact"].N_e > 3_000_000
    assert reports["linearized"].value > 0.0


# (mu, nu, alpha, beta): at the second point the beta sea's column 3 holds
# lambda = -1/2 alone, where the beta-free sea's holds -1/2 and 1/2
@pytest.mark.parametrize("mu, nu, alpha, beta", [(25.0, 1.0, 10.3, 0.3),
                                                 (1.0, 0.25, 1.0, 0.25)])
def test_each_method_reports_the_sea_it_sums(mu, nu, alpha, beta):
    # exact fills the sea at the actual beta; linearized, compact and
    # nonrel expand around the beta-free sea
    d = DimensionlessParams(mu, nu, beta, alpha)
    sea, free = enumerate_fermi_sea(d), enumerate_fermi_sea(d._replace(beta=0.0))
    assert sea != free
    reports = persistent_all(d)
    for tag, want in (("exact", sea), ("linearized", free),
                      ("compact", free), ("nonrel", free)):
        rep = reports[tag]
        assert (rep.N_e, rep.n_F, rep.lambda_F, rep.sum_lambda_n) == (
            want.N_e, want.n_F, want.lambda_F, want.sum_lambda_n()), tag
    if nu == 0.25:
        assert sea.columns[2] == (3, -0.5, -0.5)
        assert free.columns[2] == (3, -0.5, 0.5)


@pytest.mark.parametrize("mu, nu, alpha, beta", [(25.0, 1.0, 10.3, 0.3),
                                                 (1.0, 0.25, 1.0, 0.25),
                                                 (250.0, 1.0, 50.0, 1e-4)])
def test_c_compact_sums_the_beta_free_lambda_n(mu, nu, alpha, beta):
    # the largest |lambda| of each column of the beta-free sea, state by
    # state, over sqrt(mu^2 + alpha^2), and R*I = beta c / pi: exactly
    d = DimensionlessParams(mu, nu, beta, alpha)
    largest = {}
    for n, lam in enumerate_fermi_sea(d._replace(beta=0.0)).states():
        largest[n] = max(largest.get(n, 0.0), abs(lam))
    c = math.fsum(largest.values()) / math.sqrt(mu**2 + alpha**2)
    assert fermi.c_compact(d) == c
    rep = persistent_compact(d)
    assert (rep.c, rep.value) == (c, beta * c / math.pi)


def _count_builds(monkeypatch):
    """The list of the seas fermi builds from now on, one entry each,
    starting with no beta-free sea cached."""
    builds, build = [], fermi.enumerate_fermi_sea
    monkeypatch.setattr(fermi, "enumerate_fermi_sea",
                        lambda d: builds.append(d) or build(d))
    fermi._beta_free_sea.cache_clear()
    return builds


def _cold(method, d):
    """method(d) with no beta-free sea cached."""
    fermi._beta_free_sea.cache_clear()
    return method(d)


_D = DimensionlessParams(mu=25.0, nu=1.0, beta=0.05, alpha=10.3)


def test_persistent_all_builds_two_seas(monkeypatch):
    # the sea at beta, and the beta-free sea that linearized, compact and
    # nonrel share
    builds = _count_builds(monkeypatch)
    reports = persistent_all(_D)
    assert [(d.nu, d.beta, d.alpha) for d in builds] == [(1.0, 0.05, 10.3),
                                                        (1.0, 0.0, 10.3)]
    for tag in METHODS:
        assert _cold(getattr(fermi, f"persistent_{tag}"), _D) == reports[tag]


@pytest.mark.parametrize("method", [persistent_linearized, persistent_compact,
                                    persistent_nonrel])
@pytest.mark.parametrize("param, points, seas", [
    ("beta", (-0.4, -0.1, 0.0, 0.2, 0.45), 1), ("alpha", (2.0, 5.0, 20.0), 3),
    ("mu", (1.0, 25.0, 250.0), 1)])
def test_a_sweep_builds_the_beta_free_sea_once_per_alpha(
        monkeypatch, method, param, points, seas):
    # a beta or mu sweep builds the beta-free sea once in all, an alpha
    # sweep once per point; each value equals its cold-cache value
    builds = _count_builds(monkeypatch)
    grid = [_D._replace(**{param: x}) for x in points]
    warm = [method(d) for d in grid]
    assert len(builds) == seas
    assert warm == [_cold(method, d) for d in grid]
