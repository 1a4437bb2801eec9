import cmath
import math

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
from abcyl.spectrum import chi
from abcyl.spinors import QuadratureRule, leggauss

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
    # leggauss(order) is an order x order eigenproblem.  The packet
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
    x, w = np.polynomial.legendre.leggauss(order)
    assert np.array_equal(k1, 1.0 + 8.0 * 0.5 * x)
    assert np.array_equal(wk2, 8.0 * 0.7 * w)


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
    zr = QuadratureRule.window(-z_window, z_window, 1200)
    h = packet_zprofile(p, d, t, zr.z_nodes)
    norm = 2.0 * math.pi * (np.sum(np.abs(h) ** 2, axis=0) @ zr.z_weights)
    return norm, _grid_direct(p, d, t, zr.z_nodes) @ zr.z_weights


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
    ({"order": MAX_MOMENTUM_ORDER + 1}, "above the cap")])
def test_packet_refuses_what_it_cannot_integrate(change, message):
    # each gave NaN rows, all-zero rows, a polarization of 1 for
    # lambda = 1, or an OverflowError or ZeroDivisionError while the
    # amplitudes or their norm were built; an order above the cap grew
    # time and memory as order^2.  Only the constructor runs here, so no
    # grid of the refused order is built.
    with pytest.raises(ValueError, match=message):
        GaussianPacket(**{"lam": 0.5, "k0": 0.0, "width": 1.0, **change})
    GaussianPacket(lam=0.5, k0=1e150, width=1.0)   # a finite window squared
    GaussianPacket(lam=0.5, k0=0.0, width=1e-150)  # a normal width squared
    GaussianPacket(lam=0.5, k0=0.0, width=1.0, weight_plus=1e150)
    GaussianPacket(lam=0.5, k0=0.0, width=1.0, order=MAX_MOMENTUM_ORDER)

