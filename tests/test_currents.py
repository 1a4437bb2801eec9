import ast
import cmath
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcyl.currents import (MAX_MOMENTUM_ORDER, GaussianPacket, MixedState,
                            circular_current_mode,
                            circular_current_mode_quadrature,
                            circular_current_packet,
                            longitudinal_current_packet_direct,
                            longitudinal_current_packet_formula,
                            packet_energy, packet_grid, packet_norm,
                            packet_polarization, packet_total_flux,
                            packet_velocity_expectation, packet_zprofile)
from abcyl.params import DimensionlessParams, ResolutionError
from abcyl.quadrature import leggauss
from abcyl.spectrum import chi

D = DimensionlessParams(mu=1.0, nu=1.0, beta=0.3)


def test_chi_hand_value():
    d = DimensionlessParams(mu=1.0, nu=1.0)
    assert chi(1, 0.5, d) == pytest.approx(0.5 / math.sqrt(2.25))
    with pytest.raises(ValueError):
        chi(1, 0.5, DimensionlessParams(mu=1.0))


def test_chi_antisymmetry_in_lambda_plus_beta():
    d0 = DimensionlessParams(mu=1.0, nu=1.0)
    for n in (1, 2):
        for lam in (0.5, 1.5, 2.5):
            assert chi(n, lam, d0) == pytest.approx(-chi(n, -lam, d0), rel=1e-15)


def test_mixed_state_normalization():
    MixedState(n=1, lam=0.5, c_plus=1.0, c_minus=0.0)
    MixedState(n=1, lam=0.5, c_plus=1 / math.sqrt(2), c_minus=1j / math.sqrt(2))
    with pytest.raises(ValueError):
        MixedState(n=1, lam=0.5, c_plus=1.0, c_minus=0.5)


def test_circular_current_closed_vs_quadrature():
    for c_plus, c_minus in ((1.0, 0.0), (0.0, 1.0),
                            (1 / math.sqrt(2), 1j / math.sqrt(2))):
        state = MixedState(n=2, lam=1.5, c_plus=c_plus, c_minus=c_minus)
        closed = circular_current_mode(state, D)
        quad = circular_current_mode_quadrature(state, D)
        assert quad == pytest.approx(closed, abs=1e-12)


_ORACLE_PROBE = """
import sys
from abcyl.currents import (MixedState, circular_current_mode,
                            circular_current_mode_quadrature)
from abcyl.params import DimensionlessParams
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "abcyl")
d = DimensionlessParams(mu=1.0, nu=1.0, beta=0.3)
states = [MixedState(n=n, lam=lam, c_plus=0.6, c_minus=0.8j)
          for n in (1, 2, 5) for lam in (-2.5, -0.5, 0.5, 1.5)]
print(repr({"loaded": loaded, "worst": max(
    abs(circular_current_mode_quadrature(s, d) - circular_current_mode(s, d))
    for s in states)}))
"""


def test_mode_oracle_matches_closed_form_without_the_cli():
    # currents imports spectrum and spinors only inside its mode functions,
    # so outside the CLI (which registers them lazily) they import there
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _ORACLE_PROBE],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = ast.literal_eval(proc.stdout)
    assert report["loaded"] == ["abcyl", "abcyl.currents", "abcyl.params",
                                "abcyl.quadrature"]
    assert report["worst"] <= 1e-12


def test_circular_current_mixing_independent_bitwise():
    values = set()
    for ph in (0.0, 1.0, 2.5):
        state = MixedState(n=1, lam=-0.5,
                           c_plus=0.6 * cmath.exp(1j * ph), c_minus=0.8)
        values.add(circular_current_mode(state, D))
    assert len(values) == 1


def test_packet_grid_normalizes():
    p = GaussianPacket(lam=0.5, k0=1.0, width=0.5)
    k, wk, ap, am = packet_grid(p)
    assert np.sum(wk * (np.abs(ap) ** 2 + np.abs(am) ** 2)) \
        == pytest.approx(1.0, abs=1e-12)


def test_packet_grid_solves_each_order_once():
    # leggauss(order) is a Newton solve over order/2 nodes.  The packet
    # carries its momentum rule, so every observable of every packet of
    # one order shares a single solve, on p.order nodes
    order = 137
    d = DimensionlessParams(mu=1.0, beta=0.2)
    before = leggauss.cache_info().misses
    p1 = GaussianPacket(lam=0.5, k0=1.0, width=0.5, order=order)
    p2 = GaussianPacket(lam=1.5, k0=0.2, width=0.7, weight_minus=0.6 - 0.3j,
                        order=order)
    k1, wk1, _, _ = packet_grid(p1)
    _, wk2, _, _ = packet_grid(p2)
    circular_current_packet(p2, d)
    packet_energy(p2, d)
    packet_polarization(p2)
    packet_velocity_expectation(p2, d)
    longitudinal_current_packet_direct(p2, d, 1.0, [0.0, 1.0])
    longitudinal_current_packet_formula(p2, d, 1.0, [0.0, 1.0])
    packet_norm(p2, d, 1.0, 5.0)
    packet_total_flux(p2, d, 1.0, 5.0)
    assert leggauss.cache_info().misses == before + 1
    x, w = leggauss(order)
    assert np.array_equal(k1, 1.0 + 8.0 * 0.5 * x)
    assert np.array_equal(wk2, 8.0 * 0.7 * w)


_RULE_ORDERS = [*range(2, 301), *range(301, MAX_MOMENTUM_ORDER, 433),
                MAX_MOMENTUM_ORDER]


def test_leggauss_nodes_match_numpy():
    # numpy's rule is the eigenvalues of the order x order Jacobi matrix
    for order in _RULE_ORDERS:
        x, _ = leggauss(order)
        ref, _ = np.polynomial.legendre.leggauss(order)
        assert np.max(np.abs(x - ref)) <= 4.5e-16, order


def _mp_gauss_weight(mpmath, order, x0):
    """Gauss weight 2 (1-x^2) / (n P_{n-1}(x))^2 at the root of P_n next
    to x0, with the root refined by Newton at the working precision."""
    x = mpmath.mpf(x0)
    for _ in range(3):
        pn, pm = mpmath.legendre(order, x), mpmath.legendre(order - 1, x)
        x -= pn * (1 - x * x) / (order * (pm - x * pn))
    return 2 * (1 - x * x) / (order * mpmath.legendre(order - 1, x)) ** 2


@pytest.mark.parametrize("order", [2, 3, 64, 400, 800, MAX_MOMENTUM_ORDER])
def test_leggauss_weights_match_a_40_digit_reference(order):
    # numpy's weights are off by up to 1.3e-8 relative at order 2000; the
    # first and last three nodes are where a rule loses accuracy first
    mpmath = pytest.importorskip("mpmath")
    x, w = leggauss(order)
    picks = {0, 1, 2, order // 2, order - 3, order - 2, order - 1,
             *range(order // 2, order, max(1, order // 12))}
    with mpmath.workdps(40):
        for i in sorted(i for i in picks if 0 <= i < order):
            ref = _mp_gauss_weight(mpmath, order, x[i])
            assert abs(float(w[i] / ref - 1)) <= 1e-10, (order, i)


def test_leggauss_is_mirror_symmetric_and_sums_to_two():
    for order in _RULE_ORDERS:
        x, w = leggauss(order)
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert np.all(np.diff(x) > 0)
        if order % 2:
            assert x[order // 2] == 0.0 and not np.signbit(x[order // 2])
        assert abs(math.fsum(w) - 2.0) <= 1e-14, order


def test_leggauss_cached_arrays_are_read_only():
    x, w = leggauss(64)
    for a in (x, w):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    assert leggauss(64)[0] is x


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_packet_quadrature_forms_no_order_squared_array():
    # an order x order array at MAX_MOMENTUM_ORDER is 32 MB of float64:
    # the eigenproblem of numpy's rule and the norm's sinc kernel
    order = MAX_MOMENTUM_ORDER
    assert _traced_peak(leggauss.__wrapped__, order) < 1e6
    d = DimensionlessParams(mu=1.0, beta=0.2)
    p = GaussianPacket(lam=0.5, k0=1.0, width=0.5, weight_minus=0.3 + 0.2j,
                       order=order)
    packet_grid(p)  # the rule is solved outside the traced calls
    assert _traced_peak(packet_norm, p, d, 2.0, 15.0) < 8e6
    assert _traced_peak(packet_total_flux, p, d, 2.0, 15.0) < 8e6


def test_packet_validation():
    with pytest.raises(ValueError):
        GaussianPacket(lam=0.5, k0=0.0, width=0.0)
    with pytest.raises(ValueError):
        GaussianPacket(lam=0.5, k0=0.0, width=1.0,
                       weight_plus=0.0, weight_minus=0.0)


def test_packet_grid_refuses_collapsed_nodes():
    # at width 1e-17, k0 + 8 width x rounds to a few repeated values and
    # the norm sums a packet with no width; at 1e-12 the nodes are
    # distinct but rounded by 0.18 of their spacing, and the norm is
    # 6e-6 off 1; at 1e-6 the rounding is 1.8e-7 spacings
    for width in (1e-17, 1e-12, 1e-7):
        with pytest.raises(ValueError, match="rounded"):
            packet_grid(GaussianPacket(lam=0.5, k0=1.0, width=width))
    k, _, _, _ = packet_grid(GaussianPacket(lam=0.5, k0=1.0, width=1e-6))
    assert np.all(np.diff(k) > 0.0)


def test_packet_polarization_pure():
    d = DimensionlessParams(mu=1.0)
    p = GaussianPacket(lam=1.5, k0=0.7, width=0.4)
    assert packet_polarization(p) == pytest.approx(1.5, abs=1e-12)
    m = GaussianPacket(lam=1.5, k0=0.7, width=0.4,
                       weight_plus=1.0, weight_minus=1.0)
    assert packet_polarization(m) == pytest.approx(0.0, abs=1e-12)
    assert packet_energy(p, d) > d.mu


def test_symmetric_packet_has_no_flux_at_origin():
    d = DimensionlessParams(mu=1.0)
    p = GaussianPacket(lam=0.5, k0=0.0, width=0.5)
    i3 = longitudinal_current_packet_direct(p, d, 0.0, [0.0])
    assert abs(i3[0]) < 1e-12


def test_packet_norm_and_flux_conservation():
    d = DimensionlessParams(mu=1.0)
    p = GaussianPacket(lam=0.5, k0=1.0, width=0.5, order=400)
    v = packet_velocity_expectation(p, d)
    for t in (0.0, 2.0):
        assert packet_norm(p, d, t, 20.0) == pytest.approx(1.0, abs=1e-8)
        assert packet_total_flux(p, d, t, 20.0) == pytest.approx(v, abs=1e-8)


def _grid_direct(p, d, t, z):
    """R int dphi j^3 on a 64-point phi grid: the reference for the
    closed-form phi integral of longitudinal_current_packet_direct."""
    phi_points = 64
    h = packet_zprofile(p, d, t, z)
    phi = np.arange(phi_points) * (2.0 * math.pi / phi_points)
    lamm, lamp = p.lam - 0.5, p.lam + 0.5
    psi = np.stack([
        np.exp(1j * lamm * phi)[:, None] * h[0][None, :],
        np.exp(1j * lamp * phi)[:, None] * h[1][None, :],
        np.exp(1j * lamm * phi)[:, None] * h[2][None, :],
        np.exp(1j * lamp * phi)[:, None] * h[3][None, :],
    ])
    j3 = (np.conj(psi[0]) * psi[2] + np.conj(psi[2]) * psi[0]
          - np.conj(psi[1]) * psi[3] - np.conj(psi[3]) * psi[1])
    return ((2.0 * math.pi / phi_points) * np.sum(j3, axis=0)).real


def _grid_norm_and_flux(p, d, t, z_window):
    """Norm and z-integrated flux on an order-1200 Gauss-Legendre z rule:
    the reference for the closed-form z integrals."""
    x, w = leggauss(1200)
    z, wz = z_window * x, z_window * w
    h = packet_zprofile(p, d, t, z)
    norm = 2.0 * math.pi * (np.sum(np.abs(h) ** 2, axis=0) @ wz)
    return norm, _grid_direct(p, d, t, z) @ wz


# (packet, beta, t, z window); the last packet has left the window in part
_EXACT_CASES = [
    (GaussianPacket(lam=0.5, k0=1.0, width=0.5), 0.0, 0.0, 20.0),
    (GaussianPacket(lam=1.5, k0=0.8, width=0.5, weight_minus=0.6 - 0.3j),
     0.2, 3.0, 15.0),
    (GaussianPacket(lam=-2.5, k0=-0.6, width=0.7, weight_plus=0.3,
                    weight_minus=1.0), -0.4, -4.0, 12.0),
    (GaussianPacket(lam=0.5, k0=1.5, width=0.5), 0.0, 8.0, 6.0),
]


@pytest.mark.parametrize("p, beta, t, z_window", _EXACT_CASES)
def test_exact_integrals_match_quadrature(p, beta, t, z_window):
    d = DimensionlessParams(mu=1.0, beta=beta)
    want_norm, want_flux = _grid_norm_and_flux(p, d, t, z_window)
    assert packet_norm(p, d, t, z_window) \
        == pytest.approx(want_norm, abs=1e-12)
    assert packet_total_flux(p, d, t, z_window) \
        == pytest.approx(want_flux, abs=1e-12)
    zs = np.linspace(-z_window, z_window, 41)
    want = _grid_direct(p, d, t, zs)
    got = longitudinal_current_packet_direct(p, d, t, zs)
    assert np.max(np.abs(got - want)) <= 4e-15 * np.max(np.abs(want))


def test_norm_of_packet_partly_outside_window():
    # at t = 8 the packet centre (velocity 0.80) is past z = 6
    d = DimensionlessParams(mu=1.0)
    p = GaussianPacket(lam=0.5, k0=1.5, width=0.5)
    assert packet_norm(p, d, 8.0, 6.0) == pytest.approx(0.430, abs=5e-4)


def test_resolution_error():
    d = DimensionlessParams(mu=1.0)
    p = GaussianPacket(lam=0.5, k0=2.0, width=0.5, order=20)
    with pytest.raises(ResolutionError) as exc:
        longitudinal_current_packet_direct(p, d, 100.0, [50.0])
    assert exc.value.min_points > 20
    assert str(exc.value.min_points) in str(exc.value)


def test_appendix_formula_runs_and_deviates_smoothly():
    # the printed double-integral form is tracked for comparison only;
    # it must evaluate to a real, finite profile
    d = DimensionlessParams(mu=1.0)
    p = GaussianPacket(lam=0.5, k0=1.0, width=0.5, order=300)
    zs = np.linspace(-3, 3, 7)
    direct = longitudinal_current_packet_direct(p, d, 0.0, zs)
    formula = longitudinal_current_packet_formula(p, d, 0.0, zs)
    assert np.all(np.isfinite(formula))
    assert np.max(np.abs(direct - formula)) < 0.1


def _tensor_grid_formula(p, d, t, z):
    """The printed double integral summed term by term on the (k, k')
    tensor grid, O(Nz Nk^2): the reference for the separable evaluation."""
    k, wk, ap, am = packet_grid(p)
    E = np.sqrt(d.mu**2 + k**2 + (p.lam + d.beta) ** 2)
    q = p.lam + d.beta
    Ek, Ekp = E[:, None], E[None, :]
    kk, kkp = k[:, None], k[None, :]
    denom = np.sqrt(Ek * Ekp * (Ek + d.mu) * (Ekp + d.mu))
    bracket = kk * Ekp + kkp * Ek + d.mu * (Ek + Ekp)
    like = np.conj(ap)[:, None] * ap[None, :] + np.conj(am)[:, None] * am[None, :]
    cross = np.conj(ap)[:, None] * am[None, :] + np.conj(am)[:, None] * ap[None, :]
    core = (bracket * like - 1j * q * (Ek - Ekp) * cross) / denom
    wmat = wk[:, None] * wk[None, :]
    out = np.empty(len(z), dtype=complex)
    for i, zi in enumerate(z):
        phase = np.exp(1j * (t * (Ek - Ekp) - zi * (kk - kkp)))
        out[i] = np.sum(wmat * phase * core) / (4.0 * math.pi)
    return out.real


# the cross term -i (lambda+beta)(E - E') is live only when weight_minus != 0
@pytest.mark.parametrize("weight_minus", [0.0, 0.6 - 0.3j])
@pytest.mark.parametrize("t", [0.0, 3.0])
@pytest.mark.parametrize("order", [200, 400])
def test_formula_matches_tensor_grid_sum(order, t, weight_minus):
    d = DimensionlessParams(mu=1.0, beta=0.2)
    p = GaussianPacket(lam=1.5, k0=0.8, width=0.5, weight_minus=weight_minus,
                       order=order)
    zs = np.linspace(-3.0, 3.0, 13)
    want = _tensor_grid_formula(p, d, t, zs)
    got = longitudinal_current_packet_formula(p, d, t, zs)
    assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want))


half_odd = st.integers(-5, 4).map(lambda m: m + 0.5)


@given(n=st.integers(1, 8), lam=half_odd, mu=st.floats(0.1, 5.0),
       nu=st.floats(0.1, 3.0), beta=st.floats(-1.5, 1.5))
@settings(max_examples=80, deadline=None)
def test_chi_bounded(n, lam, mu, nu, beta):
    d = DimensionlessParams(mu=mu, nu=nu, beta=beta)
    assert -1.0 < chi(n, lam, d) < 1.0


@given(n=st.integers(1, 6), lam=half_odd, mu=st.floats(0.1, 5.0),
       nu=st.floats(0.1, 3.0), beta=st.floats(-1.5, 1.5))
@settings(max_examples=60, deadline=None)
def test_chi_magnitude_decreases_with_n(n, lam, mu, nu, beta):
    d = DimensionlessParams(mu=mu, nu=nu, beta=beta)
    assert abs(chi(n + 1, lam, d)) <= abs(chi(n, lam, d)) + 1e-15


@given(lam=half_odd, k0=st.floats(-2.0, 2.0), width=st.floats(0.1, 1.0),
       mu=st.floats(0.2, 4.0), beta=st.floats(-0.9, 0.9))
@settings(max_examples=40, deadline=None)
def test_packet_current_bounded_by_saturation(lam, k0, width, mu, beta):
    d = DimensionlessParams(mu=mu, beta=beta)
    p = GaussianPacket(lam=lam, k0=k0, width=width)
    val = 2 * math.pi * circular_current_packet(p, d)
    assert abs(val) <= 1.0
    assert val * (lam + beta) >= 0.0     # sign follows lambda + beta


@pytest.mark.parametrize("change, message", [
    ({"lam": 1.0}, "half-odd"), ({"lam": 0.7}, "half-odd"),
    ({"width": math.inf}, "width must be positive and finite"),
    ({"width": math.nan}, "width must be positive and finite"),
    ({"k0": 1e200}, "momentum window"), ({"width": 1e300}, "momentum window"),
    ({"k0": math.nan}, "momentum window"),
    ({"width": 1e-200}, "square underflows"),
    ({"weight_plus": 1e200}, "packet norm"),
    ({"weight_minus": 1e200j}, "packet norm"),
    ({"weight_plus": 1e150, "width": 1e10}, "packet norm"),
    ({"weight_plus": 1e-200}, "packet norm"),
    ({"order": 1}, "order >= 2"),
    ({"order": MAX_MOMENTUM_ORDER + 1}, "above the cap"),
    ({"order": 400.5}, "must be an integer"),
    ({"order": "400"}, "must be an integer")])
def test_packet_refuses_what_it_cannot_integrate(change, message):
    # each gave NaN rows, all-zero rows, a polarization of 1 for
    # lambda = 1, or an OverflowError or ZeroDivisionError while the
    # amplitudes or their norm were built, or a TypeError from leggauss
    # on a non-integer order; an order above the cap grew
    # time and memory as order^2.  Only the constructor runs here, so no
    # grid of the refused order is built.
    with pytest.raises(ValueError, match=message):
        GaussianPacket(**{"lam": 0.5, "k0": 0.0, "width": 1.0, **change})
    GaussianPacket(lam=0.5, k0=1e150, width=1.0)   # a finite window squared
    GaussianPacket(lam=0.5, k0=0.0, width=1e-150)  # a normal width squared
    GaussianPacket(lam=0.5, k0=0.0, width=1.0, weight_plus=1e150)
    GaussianPacket(lam=0.5, k0=0.0, width=1.0, order=MAX_MOMENTUM_ORDER)

