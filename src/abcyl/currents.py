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
import numbers
import sys
from typing import NamedTuple

import numpy as np

from .params import (CheckedRecord, DimensionlessParams, ResolutionError,
                     _check_half_odd)
from .quadrature import leggauss

# spectrum and spinors serve only the mode-level functions, which import
# them when called, so a packet request executes neither

__all__ = [
    "MAX_MOMENTUM_ORDER",
    "MixedState",
    "GaussianPacket",
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
_GRAM_ROWS = 64  # rows of the norm's sinc kernel formed at once

# Largest momentum quadrature a packet takes.  The norm's sinc kernel is
# Nk^2 work, formed _GRAM_ROWS rows at a time: a default `packet` request
# at korder 2000 takes 0.26 s (0.26 CPU-s) and 34 MB peak RSS on a 2-core
# x86-64 host with one BLAS thread.
MAX_MOMENTUM_ORDER = 2000


class _MixedFields(NamedTuple):
    n: int
    lam: float
    c_plus: complex
    c_minus: complex


class MixedState(CheckedRecord, _MixedFields):
    """Normalized combination c+ U^+ + c- U^- of one finite (n, lambda)."""

    __slots__ = ()

    def _check(self):
        norm = abs(self.c_plus) ** 2 + abs(self.c_minus) ** 2
        if abs(norm - 1.0) > 1e-13:
            raise ValueError(f"|c+|^2 + |c-|^2 = {norm!r}, must be 1")


class _PacketFields(NamedTuple):
    lam: float
    k0: float
    width: float
    weight_plus: complex = 1.0
    weight_minus: complex = 0.0
    order: int = 400


class GaussianPacket(CheckedRecord, _PacketFields):
    """Gaussian momentum-space amplitudes of one angular momentum lambda.

    a+(k) = weight_plus * g(k), a-(k) = weight_minus * g(k) with
    g(k) = exp(-(k-k0)^2 / (2 w^2)); k and w are the dimensionless
    products kR and wR.  The overall scale is fixed by normalization.
    The packet lives on its momentum rule: `order` Gauss-Legendre nodes
    on k0 +/- _WINDOW_SIGMAS widths, the one grid every observable uses.
    """

    __slots__ = ()

    def _check(self):
        _check_half_odd(self.lam)
        if not 0 < self.width < math.inf:
            raise ValueError(f"width must be positive and finite, "
                             f"got {self.width}")
        if self.width * self.width < sys.float_info.min:
            raise ValueError(f"width {self.width} is too small: its square "
                             f"underflows")
        window = abs(self.k0) + _WINDOW_SIGMAS * self.width
        if not math.isfinite(window * window):
            raise ValueError(f"the momentum window |k0| + "
                             f"{_WINDOW_SIGMAS:g} width = {window} must "
                             f"have a finite square")
        weight = math.hypot(abs(self.weight_plus), abs(self.weight_minus))
        if weight == 0:
            raise ValueError("empty packet")
        # packet_grid sums |a+|^2 + |a-|^2 <= weight^2 over a window of
        # about sqrt(pi) widths, and divides by that norm
        norm = weight * weight * self.width * math.sqrt(math.pi)
        if not sys.float_info.min <= norm < math.inf:
            raise ValueError(f"the packet norm (|weight_plus|^2 + "
                             f"|weight_minus|^2) sqrt(pi) width = {norm} "
                             f"must be finite and must not underflow")
        if not isinstance(self.order, numbers.Integral):
            raise ValueError(f"momentum quadrature order must be an "
                             f"integer, got {self.order!r}")
        if self.order < 2:
            raise ValueError(f"momentum quadrature needs order >= 2, "
                             f"got {self.order}")
        if self.order > MAX_MOMENTUM_ORDER:
            raise ValueError(f"momentum quadrature order {self.order} is "
                             f"above the cap {MAX_MOMENTUM_ORDER}")


def circular_current_mode(state: MixedState, d: DimensionlessParams) -> float:
    """R*I^c of a mixed state; independent of the mixing by construction,
    and the API takes the full state deliberately so tests can assert
    that the output is bitwise identical across mixings."""
    from . import spectrum
    return spectrum.chi(state.n, state.lam, d) / (2.0 * math.pi)


def circular_current_mode_quadrature(state: MixedState,
                                     d: DimensionlessParams) -> float:
    """Brute-force oracle: (1/2pi) int dphi int dz j^phi over the
    mixed-state spinor at t = 0, j^phi = psi^dag g0 g_phi psi (the state
    is stationary, so the current does not depend on t).  It is c^H X c
    with X the 2 x 2 closed-phi products of the U^+, U^- profiles against
    their g0 g_phi images."""
    from . import spectrum, spinors
    z, w = spinors.z_quadrature(d)
    modes = [spectrum.ModeSpec(geometry="finite", n=state.n, lam=state.lam,
                               sigma=sigma) for sigma in (0.5, -0.5)]
    profiles = [spinors._z_profiles(mode, d, z) for mode in modes]
    X = spinors._closed_phi_products(
        profiles, [_g0_gphi(h, p) for h, p in profiles], w)
    c = np.array([state.c_plus, state.c_minus], dtype=complex)
    return float((np.conj(c) @ X @ c).real / (2.0 * math.pi))


def _g0_gphi(h, p):
    """g0 g_phi applied to components h_c(z) e^{i p_c phi}: they become
    (-i h4 e^{-i phi}, i h3 e^{i phi}, -i h2 e^{-i phi}, i h1 e^{i phi})."""
    return (np.array([-1j, 1j, -1j, 1j])[:, None] * h[::-1],
            (p[3] - 1, p[2] + 1, p[1] - 1, p[0] + 1))


# --- packets on the infinite cylinder ------------------------------------

def packet_grid(p: GaussianPacket):
    """Momentum nodes, weights and normalized amplitudes (k, w, a+, a-)."""
    x, w = leggauss(p.order)
    half = _WINDOW_SIGMAS * p.width
    k = p.k0 + half * x
    # k0 = 1, order 400: rounding by 1.8e-6 spacings moves the norm 7.6e-11
    rounding = float(np.max(np.abs((k - p.k0) - half * x)))
    spacing = half * float(np.min(np.diff(x)))
    if not rounding <= 1e-6 * spacing:
        raise ValueError(f"the momentum nodes k0 + {_WINDOW_SIGMAS:g} "
                         f"width x are rounded by {rounding:.3g}, above "
                         f"1e-6 of their smallest spacing {spacing:.3g}: "
                         f"width {p.width} is too small for k0 = {p.k0}")
    wk = half * w
    g = np.exp(-((k - p.k0) ** 2) / (2.0 * p.width**2))
    ap, am = p.weight_plus * g, p.weight_minus * g
    norm = float(np.sum(wk * (np.abs(ap) ** 2 + np.abs(am) ** 2)))
    scale = 1.0 / math.sqrt(norm)
    return k, wk, ap * scale, am * scale


def _packet_on_rule(p: GaussianPacket, d: DimensionlessParams):
    """The packet on its momentum rule: packet_grid's (k, w, a+, a-), then
    q = lambda + beta and the energies R*E = sqrt(mu^2 + k^2 + q^2)."""
    k, wk, ap, am = packet_grid(p)
    q = p.lam + d.beta
    return k, wk, ap, am, q, np.sqrt(d.mu**2 + k**2 + q**2)


def circular_current_packet(p: GaussianPacket,
                            d: DimensionlessParams) -> float:
    """Closed-form R*I^c of a packet state."""
    k, wk, ap, am, q, E = _packet_on_rule(p, d)
    dens = np.abs(ap) ** 2 + np.abs(am) ** 2
    return float(q / (2.0 * math.pi) * np.sum(wk * dens / E))


def packet_energy(p: GaussianPacket, d: DimensionlessParams) -> float:
    """Expectation value R*E of the packet energy."""
    k, wk, ap, am, q, E = _packet_on_rule(p, d)
    return float(np.sum(wk * E * (np.abs(ap) ** 2 + np.abs(am) ** 2)))


def packet_polarization(p: GaussianPacket) -> float:
    """Polarization degree lambda * int dk (|a+|^2 - |a-|^2)."""
    k, wk, ap, am = packet_grid(p)
    return float(p.lam * np.sum(wk * (np.abs(ap) ** 2 - np.abs(am) ** 2)))


def packet_velocity_expectation(p: GaussianPacket,
                                d: DimensionlessParams) -> float:
    """Mode-wise longitudinal velocity expectation int dk |a|^2 k/E."""
    k, wk, ap, am, q, E = _packet_on_rule(p, d)
    return float(np.sum(wk * (np.abs(ap) ** 2 + np.abs(am) ** 2) * k / E))


def check_resolution(p: GaussianPacket, d, t, z) -> None:
    """Reject grids that cannot resolve the e^{i(kz - Et)} phase: the
    largest node spacing must be at most pi / (4 reach), reach = |t| v_max
    + max|z|, and the ResolutionError names the least order that is."""
    k, _, _, _, _, E = _packet_on_rule(p, d)
    vmax = float(np.max(np.abs(k) / E))
    reach = abs(t) * vmax + float(np.max(np.abs(z)))
    spacing = float(np.max(np.diff(k)))
    # about len(k) spacing 4 reach / pi points resolve the phase; a reach
    # whose count overflows (inf and nan included) is refused before
    # anything divides by it
    if not math.isfinite(4.0 * reach * len(k) * spacing):
        raise ValueError(f"the phase reach |t| v_max + max|z| = {reach:.3g} "
                         f"is too far for any momentum grid to resolve")
    _check_spacing(p, spacing, 4.0 * reach)


def _check_spacing(p: GaussianPacket, spacing: float, span: float) -> None:
    """Refuse p's rule when its largest node spacing exceeds pi / span, the
    bound under which it resolves e^{ikz} over a z span of span.  The error
    advises the least order up to the cap whose nodes, placed as
    packet_grid places them, meet the bound: the largest Gauss-Legendre gap
    is close to pi half / (n + 1/2), so the search starts there and steps
    up.  Above the cap it counts ceil(n spacing / bound) points."""
    required = math.pi / span if span > 0.0 else math.inf
    if spacing <= required:
        return
    n, half = p.order, _WINDOW_SIGMAS * p.width
    order = math.ceil((n + 0.5) * spacing / required - 0.5)
    while (order <= MAX_MOMENTUM_ORDER and required
           < float(np.max(np.diff(p.k0 + half * leggauss(order)[0])))):
        order += 1
    if order > MAX_MOMENTUM_ORDER:
        order = max(math.ceil(n * spacing / required),
                    MAX_MOMENTUM_ORDER + 1)
    raise ResolutionError(spacing, required, order, MAX_MOMENTUM_ORDER)


def _zprofile_coefficients(p: GaussianPacket, d: DimensionlessParams):
    """(k, E, c) with h_j(t, z) = sum_k c[j](k) e^{i(kz - E t)}."""
    k, wk, ap, am, q, E = _packet_on_rule(p, d)
    C = np.sqrt((E + d.mu) / (2.0 * E)) / (2.0 * math.pi)
    low = C / (E + d.mu)
    c = np.stack([wk * ap * C, wk * am * C,
                  wk * low * (ap * k - 1j * q * am),
                  wk * low * (1j * q * ap - am * k)])
    return k, E, c


def packet_zprofile(p: GaussianPacket, d: DimensionlessParams,
                    t, z) -> np.ndarray:
    """Reduced z-profiles h_j(t, z) of the packet spinor, shape (4, len(z)).

    The full spinor is psi_j = e^{i p_j phi} h_j with azimuthal phases
    p = (lambda-1/2, lambda+1/2, lambda-1/2, lambda+1/2).
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    k, E, c = _zprofile_coefficients(p, d)
    phase = np.exp(1j * (np.outer(z, k) - t * E[None, :]))  # (Nz, Nk)
    return np.stack([phase @ cj for cj in c])


def longitudinal_current_packet_direct(p: GaussianPacket,
                                       d: DimensionlessParams, t: float,
                                       z) -> np.ndarray:
    """Authoritative longitudinal current R int dphi j^3 at (t, z).

    The phi integral of psi^dag g0 g3 psi = c1* c3 + c3* c1 - c2* c4 - c4* c2
    is 2 pi times the z-profile bilinear, since each pair of terms shares
    its azimuthal phase.  Raises ResolutionError when the momentum grid
    cannot resolve the phase at the requested point.
    """
    check_resolution(p, d, t, z)
    h = packet_zprofile(p, d, t, z)
    integ = 2.0 * math.pi * (np.conj(h[0]) * h[2] + np.conj(h[2]) * h[0]
                             - np.conj(h[1]) * h[3] - np.conj(h[3]) * h[1])
    if np.max(np.abs(integ.imag)) > _NORM_TOL:
        raise ArithmeticError(
            f"non-real longitudinal bilinear: Im = {np.max(np.abs(integ.imag)):.3e}")
    return integ.real


def longitudinal_current_packet_formula(p: GaussianPacket,
                                        d: DimensionlessParams, t: float,
                                        z) -> np.ndarray:
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
    check_resolution(p, d, t, z)
    k, wk, ap, am, q, E = _packet_on_rule(p, d)
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


def _zprofile_gram(p: GaussianPacket, d: DimensionlessParams, t: float,
                   z_window: float) -> np.ndarray:
    """P[i, j] = int_{-W}^{W} conj(h_i) h_j dz in closed form: b^H K b with
    b = c e^{-iEt} and K(k, k') = 2 sin((k'-k) W) / (k'-k), shape (4, 4).

    K b is built _GRAM_ROWS rows of K at a time against the 8 real
    columns [Re b; Im b], so no Nk x Nk array is ever formed.  K resolves
    e^{i(k'-k)z} on [-W, W] only while the rule's largest node spacing h
    has h W <= pi; beyond that, the rule's aliases of the packet enter
    the window, so a coarser rule raises ResolutionError at any reach.
    """
    k, E, c = _zprofile_coefficients(p, d)
    _check_spacing(p, float(np.max(np.diff(k))), z_window)
    b = c * np.exp(-1j * t * E)
    cols = np.hstack([b.real.T, b.imag.T])  # (Nk, 8)
    Kb = np.empty_like(cols)
    for start in range(0, len(k), _GRAM_ROWS):
        rows = slice(start, start + _GRAM_ROWS)
        arg = np.subtract.outer(k[rows], k)
        arg *= z_window
        # the diagonal's sin(0)/0 is 1, and so is sin(1e-20)/1e-20
        arg[arg == 0.0] = 1e-20
        kernel = np.sin(arg)
        kernel /= arg
        np.matmul(kernel, cols, out=Kb[rows])
    return 2.0 * z_window * (np.conj(b) @ (Kb[:, :4] + 1j * Kb[:, 4:]))


def packet_norm(p: GaussianPacket, d: DimensionlessParams, t: float,
                z_window: float) -> float:
    """Packet norm int dphi int_{-W}^{W} dz psi^dag psi, exact for the
    momentum-quadrature packet (psi^dag psi is phi-independent) while its
    largest node spacing h has h W <= pi; ResolutionError otherwise."""
    P = _zprofile_gram(p, d, t, z_window)
    return float(2.0 * math.pi * np.trace(P).real)


def packet_total_flux(p: GaussianPacket, d: DimensionlessParams, t: float,
                      z_window: float) -> float:
    """z-integral of the direct longitudinal current over [-W, W], exact
    for the momentum-quadrature packet."""
    check_resolution(p, d, t, [-z_window, z_window])
    P = _zprofile_gram(p, d, t, z_window)
    return float(4.0 * math.pi * (P[0, 2] - P[1, 3]).real)
