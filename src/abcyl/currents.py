"""Circular and longitudinal currents of modes, mixed states and packets.

Currents are reported as the dimensionless product R*I; multiply by
e c / R for the physical value.  The closed forms are

    mode:    R*I^c = chi(n, lambda) / (2 pi),
             chi = (beta+lambda)/sqrt(mu^2 + nu^2 n^2 + (beta+lambda)^2)
    packet:  R*I^c = (lambda+beta)/(2 pi) * int dk (|a+|^2+|a-|^2)/(R E_k)

and every closed form here has a spinor-bilinear quadrature oracle next
to it.  The longitudinal packet current exists twice on purpose: the
direct bilinear evaluation is authoritative, the printed double-integral
formula is kept for comparison (see longitudinal_current_packet_formula).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import DimensionlessParams
from .spectrum import ModeSpec, _check_half_odd, chi
from .spinors import QuadratureRule, leggauss, mode_components

__all__ = [
    "MixedState",
    "GaussianPacket",
    "TabulatedPacket",
    "MomentumRule",
    "ResolutionError",
    "circular_current_mode",
    "circular_current_mode_quadrature",
    "packet_grid",
    "circular_current_packet",
    "packet_energy",
    "packet_polarization",
    "packet_zprofile",
    "longitudinal_current_packet_direct",
    "longitudinal_current_packet_formula",
    "packet_norm",
    "packet_total_flux",
    "packet_velocity_expectation",
]

_NORM_TOL = 1e-10
_WINDOW_SIGMAS = 8.0  # half-width of a Gaussian packet's k window, in widths


@dataclass(frozen=True)
class MixedState:
    """Normalized combination c+ U^+ + c- U^- of one finite (n, lambda)."""

    n: int
    lam: float
    c_plus: complex
    c_minus: complex

    def __post_init__(self):
        norm = abs(self.c_plus) ** 2 + abs(self.c_minus) ** 2
        if abs(norm - 1.0) > 1e-13:
            raise ValueError(f"|c+|^2 + |c-|^2 = {norm!r}, must be 1")


@dataclass(frozen=True)
class GaussianPacket:
    """Gaussian momentum-space amplitudes of one angular momentum lambda.

    a+(k) = weight_plus * g(k), a-(k) = weight_minus * g(k) with
    g(k) = exp(-(k-k0)^2 / (2 w^2)); k and w are the dimensionless
    products kR and wR.  The overall scale is fixed by normalization.
    """

    lam: float
    k0: float
    width: float
    weight_plus: complex = 1.0
    weight_minus: complex = 0.0

    def __post_init__(self):
        _check_half_odd(self.lam)
        if not 0 < self.width < math.inf:
            raise ValueError(f"width must be positive and finite, "
                             f"got {self.width}")
        window = abs(self.k0) + _WINDOW_SIGMAS * self.width
        if not math.isfinite(window * window):
            raise ValueError(f"the momentum window |k0| + "
                             f"{_WINDOW_SIGMAS:g} width = {window} must "
                             f"have a finite square")
        if abs(self.weight_plus) + abs(self.weight_minus) == 0:
            raise ValueError("empty packet")

    def raw_amplitudes(self, k: np.ndarray):
        g = np.exp(-((k - self.k0) ** 2) / (2.0 * self.width**2))
        return self.weight_plus * g, self.weight_minus * g


@dataclass(frozen=True)
class TabulatedPacket:
    """Amplitudes sampled on a fixed momentum grid (trapezoid weights)."""

    lam: float
    k_grid: tuple[float, ...]
    a_plus: tuple[complex, ...]
    a_minus: tuple[complex, ...]

    def __post_init__(self):
        _check_half_odd(self.lam)
        k = np.asarray(self.k_grid, dtype=float)
        if k.size < 2 or not np.all(np.diff(k) > 0.0):
            raise ValueError("k_grid needs at least 2 strictly increasing "
                             "points")
        if not (any(self.a_plus) or any(self.a_minus)):
            raise ValueError("empty packet")


PacketSpec = GaussianPacket | TabulatedPacket


@dataclass(frozen=True)
class MomentumRule:
    """Gauss-Legendre momentum quadrature on +/- _WINDOW_SIGMAS packet
    widths around the center (Gaussian packets only)."""

    order: int = 400

    def __post_init__(self):
        if self.order < 2:
            raise ValueError(f"momentum quadrature needs order >= 2, "
                             f"got {self.order}")


class ResolutionError(ValueError):
    """Momentum grid too coarse to resolve the phase at (t, z)."""

    def __init__(self, spacing: float, required: float, min_points: int):
        self.spacing = spacing
        self.required = required
        self.min_points = min_points
        super().__init__(
            f"momentum grid spacing {spacing:.3e} exceeds the resolution "
            f"bound {required:.3e}; use at least {min_points} points")


def circular_current_mode(state: MixedState, d: DimensionlessParams) -> float:
    """R*I^c of a mixed state; independent of the mixing by construction,
    and the API takes the full state deliberately so tests can assert
    that the output is bitwise identical across mixings."""
    return chi(state.n, state.lam, d) / (2.0 * math.pi)


def _mixed_components(state: MixedState, d: DimensionlessParams, t, phi, z):
    up = ModeSpec(geometry="finite", n=state.n, lam=state.lam, sigma=0.5)
    dn = ModeSpec(geometry="finite", n=state.n, lam=state.lam, sigma=-0.5)
    return (state.c_plus * mode_components(up, d, t, phi, z)
            + state.c_minus * mode_components(dn, d, t, phi, z))


def circular_current_mode_quadrature(state: MixedState, d: DimensionlessParams,
                                     rule: QuadratureRule | None = None
                                     ) -> float:
    """Brute-force oracle: (1/2pi) int dphi int dz j^phi over the
    mixed-state spinor at t = 0, j^phi = psi^dag g0 g_phi psi (the state
    is stationary, so the current does not depend on t)."""
    rule = rule or QuadratureRule.finite(d)
    phi = rule.phi_nodes[:, None]
    psi = _mixed_components(state, d, 0.0, phi, rule.z_nodes[None, :])
    c1, c2, c3, c4 = psi
    # psi^dag g0 gamma_phi psi with the phi dependence written out
    jphi = 2.0 * np.real(-1j * np.exp(-1j * phi) * np.conj(c1) * c4
                         + 1j * np.exp(1j * phi) * np.conj(c2) * c3)
    val = rule.phi_weight * np.sum(jphi @ rule.z_weights)
    return float(val / (2.0 * math.pi))


# --- packets on the infinite cylinder ------------------------------------

def packet_grid(p: PacketSpec, rule: MomentumRule | None = None):
    """Momentum nodes, weights and normalized amplitudes (k, w, a+, a-)."""
    rule = rule or MomentumRule()
    if isinstance(p, GaussianPacket):
        x, w = leggauss(rule.order)
        half = _WINDOW_SIGMAS * p.width
        k = p.k0 + half * x
        wk = half * w
        ap, am = p.raw_amplitudes(k)
    else:
        k = np.asarray(p.k_grid, dtype=float)
        ap = np.asarray(p.a_plus, dtype=complex)
        am = np.asarray(p.a_minus, dtype=complex)
        edges = np.pad(k, 1, mode="edge")
        wk = 0.5 * (edges[2:] - edges[:-2])  # trapezoid weights
    norm = np.sum(wk * (np.abs(ap) ** 2 + np.abs(am) ** 2))
    scale = 1.0 / math.sqrt(norm)
    return k, wk, ap * scale, am * scale


def _packet_energies(p: PacketSpec, k: np.ndarray, d: DimensionlessParams):
    q = p.lam + d.beta
    return np.sqrt(d.mu**2 + k**2 + q**2)


def circular_current_packet(p: PacketSpec, d: DimensionlessParams,
                            rule: MomentumRule | None = None) -> float:
    """Closed-form R*I^c of a packet state."""
    k, wk, ap, am = packet_grid(p, rule)
    E = _packet_energies(p, k, d)
    dens = np.abs(ap) ** 2 + np.abs(am) ** 2
    return float((p.lam + d.beta) / (2.0 * math.pi) * np.sum(wk * dens / E))


def packet_energy(p: PacketSpec, d: DimensionlessParams,
                  rule: MomentumRule | None = None) -> float:
    """Expectation value R*E of the packet energy."""
    k, wk, ap, am = packet_grid(p, rule)
    E = _packet_energies(p, k, d)
    return float(np.sum(wk * E * (np.abs(ap) ** 2 + np.abs(am) ** 2)))


def packet_polarization(p: PacketSpec,
                        rule: MomentumRule | None = None) -> float:
    """Polarization degree lambda * int dk (|a+|^2 - |a-|^2)."""
    k, wk, ap, am = packet_grid(p, rule)
    return float(p.lam * np.sum(wk * (np.abs(ap) ** 2 - np.abs(am) ** 2)))


def packet_velocity_expectation(p: PacketSpec, d: DimensionlessParams,
                                rule: MomentumRule | None = None) -> float:
    """Mode-wise longitudinal velocity expectation int dk |a|^2 k/E."""
    k, wk, ap, am = packet_grid(p, rule)
    E = _packet_energies(p, k, d)
    return float(np.sum(wk * (np.abs(ap) ** 2 + np.abs(am) ** 2) * k / E))


def check_resolution(p: PacketSpec, rule: MomentumRule | None, d, t, z) -> None:
    """Reject grids that cannot resolve the e^{i(kz - Et)} phase."""
    k, wk, _, _ = packet_grid(p, rule)
    E = _packet_energies(p, k, d)
    vmax = float(np.max(np.abs(k) / E))
    reach = abs(t) * vmax + float(np.max(np.abs(z)))
    if reach == 0.0:
        return
    spacing = float(np.max(np.diff(np.sort(k))))
    required = math.pi / (4.0 * reach)
    if spacing > required:
        min_points = math.ceil(len(k) * spacing / required)
        raise ResolutionError(spacing, required, min_points)


def _zprofile_coefficients(p: PacketSpec, d: DimensionlessParams,
                           rule: MomentumRule | None):
    """(k, E, c) with h_j(t, z) = sum_k c[j](k) e^{i(kz - E t)}."""
    k, wk, ap, am = packet_grid(p, rule)
    E = _packet_energies(p, k, d)
    q = p.lam + d.beta
    C = np.sqrt((E + d.mu) / (2.0 * E)) / (2.0 * math.pi)
    low = C / (E + d.mu)
    c = np.stack([wk * ap * C, wk * am * C,
                  wk * low * (ap * k - 1j * q * am),
                  wk * low * (1j * q * ap - am * k)])
    return k, E, c


def packet_zprofile(p: PacketSpec, d: DimensionlessParams, t, z,
                    rule: MomentumRule | None = None) -> np.ndarray:
    """Reduced z-profiles h_j(t, z) of the packet spinor, shape (4, len(z)).

    The full spinor is psi_j = e^{i p_j phi} h_j with azimuthal phases
    p = (lambda-1/2, lambda+1/2, lambda-1/2, lambda+1/2).
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    k, E, c = _zprofile_coefficients(p, d, rule)
    phase = np.exp(1j * (np.outer(z, k) - t * E[None, :]))  # (Nz, Nk)
    return np.stack([phase @ cj for cj in c])


def longitudinal_current_packet_direct(p: PacketSpec, d: DimensionlessParams,
                                       t: float, z,
                                       rule: MomentumRule | None = None
                                       ) -> np.ndarray:
    """Authoritative longitudinal current R int dphi j^3 at (t, z).

    The phi integral of psi^dag g0 g3 psi = c1* c3 + c3* c1 - c2* c4 - c4* c2
    is 2 pi times the z-profile bilinear, since each pair of terms shares
    its azimuthal phase.  Raises ResolutionError when the momentum grid
    cannot resolve the phase at the requested point.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    check_resolution(p, rule, d, t, z)
    h = packet_zprofile(p, d, t, z, rule)
    integ = 2.0 * math.pi * (np.conj(h[0]) * h[2] + np.conj(h[2]) * h[0]
                             - np.conj(h[1]) * h[3] - np.conj(h[3]) * h[1])
    if np.max(np.abs(integ.imag)) > _NORM_TOL:
        raise ArithmeticError(
            f"non-real longitudinal bilinear: Im = {np.max(np.abs(integ.imag)):.3e}")
    return integ.real


def longitudinal_current_packet_formula(p: PacketSpec, d: DimensionlessParams,
                                        t: float, z,
                                        rule: MomentumRule | None = None
                                        ) -> np.ndarray:
    """The printed double-integral form of the packet longitudinal current.

    Evaluates the printed kernel: prefactor 1/(4 pi), bracket
    [k E' + k' E + mu (E + E')] on the like-polarization terms and the
    cross term -i (lambda+beta)(E - E') on the mixed ones.  On the
    diagonal k = k' the bracket does not reduce to the single-mode flux
    k/E of the bilinear, so this routine is for comparison against
    longitudinal_current_packet_direct, never an oracle in itself.

    Every term of the kernel is a product f(k) g(k'): the denominator
    is sqrt(E (E+mu)) sqrt(E' (E'+mu)), the bracket is
    (k+mu) E' + E (k'+mu) and the phase is P(k) conj(P(k')) with
    P = e^{i(tE - zk)}.  Each double sum is therefore X_f conj(X_g),
    X_f = P @ (w f conj(a) / sqrt(E (E+mu))), at O(Nz Nk) cost.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    check_resolution(p, rule, d, t, z)
    k, wk, ap, am = packet_grid(p, rule)
    E = _packet_energies(p, k, d)
    q = p.lam + d.beta
    u = wk / np.sqrt(E * (E + d.mu))
    phase = np.exp(1j * (t * E[None, :] - np.outer(z, k)))  # (Nz, Nk)
    factors = (k + d.mu, E, np.ones_like(k))
    cols = np.stack([u * f * np.conj(a) for a in (ap, am) for f in factors],
                    axis=1)
    Kp, Ep, Op, Km, Em, Om = (phase @ cols).T
    like = (Kp * np.conj(Ep) + Ep * np.conj(Kp)
            + Km * np.conj(Em) + Em * np.conj(Km))
    cross = (Ep * np.conj(Om) - Op * np.conj(Em)
             + Em * np.conj(Op) - Om * np.conj(Ep))
    out = (like - 1j * q * cross) / (4.0 * math.pi)
    if np.max(np.abs(out.imag)) > 1e-8 * (1.0 + np.max(np.abs(out.real))):
        raise ArithmeticError("double-integral current came out non-real")
    return out.real


def _zprofile_gram(p: PacketSpec, d: DimensionlessParams, t: float,
                   z_window: float, rule: MomentumRule | None) -> np.ndarray:
    """P[i, j] = int_{-W}^{W} conj(h_i) h_j dz in closed form: b^H K b with
    b = c e^{-iEt} and K(k, k') = 2W sinc((k'-k) W / pi), shape (4, 4)."""
    k, E, c = _zprofile_coefficients(p, d, rule)
    b = c * np.exp(-1j * t * E)
    kernel = np.sinc(np.subtract.outer(k, k) * (z_window / math.pi))
    return 2.0 * z_window * (np.conj(b) @ kernel @ b.T)


def packet_norm(p: PacketSpec, d: DimensionlessParams, t: float,
                z_window: float, rule: MomentumRule | None = None) -> float:
    """Packet norm int dphi int_{-W}^{W} dz psi^dag psi, exact for the
    momentum-quadrature packet (psi^dag psi is phi-independent)."""
    P = _zprofile_gram(p, d, t, z_window, rule)
    return float(2.0 * math.pi * np.trace(P).real)


def packet_total_flux(p: PacketSpec, d: DimensionlessParams, t: float,
                      z_window: float, rule: MomentumRule | None = None) -> float:
    """z-integral of the direct longitudinal current over [-W, W], exact
    for the momentum-quadrature packet."""
    check_resolution(p, rule, d, t, [-z_window, z_window])
    P = _zprofile_gram(p, d, t, z_window, rule)
    return float(4.0 * math.pi * (P[0, 2] - P[1, 3]).real)
