"""Closed-form mode spinors and the brute-force oracle layer.

Conventions (natural units, lengths in units of the cylinder radius,
so R = 1 everywhere below):

* standard Dirac representation, diagonal gamma^0 -- the concrete
  matrices live in STANDARD_GAMMAS and nowhere else;
* a finite cylinder has length L = pi/nu and standing-wave momenta
  k_n = nu * n; an infinite cylinder has plane-wave momenta k = kR;
* four-component values are ordered (c1, c2, c3, c4) with (c1, c2) the
  upper (large) and (c3, c4) the lower (small) components.

The oracles here (quadrature inner products, reduced-system residuals,
angular-operator application, current densities) apply all derivatives
analytically to the known functional forms, so their only error source
is quadrature/roundoff.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .params import DimensionlessParams
from .spectrum import ModeSpec, mode_energy

__all__ = [
    "GammaSet",
    "STANDARD_GAMMAS",
    "QuadratureRule",
    "eval_mode",
    "mode_components",
    "mode_profiles",
    "inner_product",
    "gram_matrix",
    "dirac_residual",
    "k_operator_apply",
    "current_density",
    "FourierSpinorField",
    "apply_restricted_dirac",
]


_SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA2 = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SIGMA3 = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_ZERO2 = np.zeros((2, 2), dtype=complex)


def _block(upper_left, upper_right, lower_left, lower_right):
    return np.block([[upper_left, upper_right], [lower_left, lower_right]])


@dataclass(frozen=True)
class GammaSet:
    """The fixed 4x4 matrices of the standard representation."""

    g0: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    g3: np.ndarray

    def gamma_phi(self, phi: float) -> np.ndarray:
        """Azimuthal matrix (-g1 sin(phi) + g2 cos(phi)) / R, R = 1."""
        return -self.g1 * math.sin(phi) + self.g2 * math.cos(phi)


STANDARD_GAMMAS = GammaSet(
    g0=_block(np.eye(2, dtype=complex), _ZERO2, _ZERO2, -np.eye(2, dtype=complex)),
    g1=_block(_ZERO2, _SIGMA1, -_SIGMA1, _ZERO2),
    g2=_block(_ZERO2, _SIGMA2, -_SIGMA2, _ZERO2),
    g3=_block(_ZERO2, _SIGMA3, -_SIGMA3, _ZERO2),
)


# numpy's leggauss solves an order x order eigenproblem; solve each order
# once per process.  The cached arrays are shared: never write to them.
leggauss = functools.lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes in z.  No phi grid: every oracle integrates
    over phi exactly from the components' phase exponents."""

    z_nodes: np.ndarray
    z_weights: np.ndarray

    def __post_init__(self):
        if np.any(self.z_weights <= 0.0):
            raise ValueError("quadrature weights must be positive")

    @classmethod
    def finite(cls, d: DimensionlessParams,
               z_order: int = 64) -> "QuadratureRule":
        return cls.window(0.0, d.length, z_order)

    @classmethod
    def window(cls, zmin: float, zmax: float,
               z_order: int = 64) -> "QuadratureRule":
        if not zmax > zmin:
            raise ValueError("empty z window")
        x, w = leggauss(z_order)
        half = 0.5 * (zmax - zmin)
        return cls(z_nodes=zmin + half * (x + 1.0), z_weights=half * w)


def mode_profiles(mode: ModeSpec, d: DimensionlessParams, z):
    """Reduced z-profiles (f1, f2, g1, g2) and their analytic derivatives.

    Returns ((f1, f2, g1, g2), (f1', f2', g1', g2'), N) where N is the
    normalization constant; the phi phases and e^{-iEt} are not included.
    """
    z = np.asarray(z, dtype=float)
    E = mode_energy(mode, d)
    q = mode.lam + d.beta
    zero = np.zeros_like(z, dtype=complex)
    if mode.geometry == "infinite":
        k = mode.k
        N = math.sqrt((E + d.mu) / (2.0 * E)) / math.sqrt(2.0 * math.pi)
        wave = np.exp(1j * k * z) / math.sqrt(2.0 * math.pi)
        up = wave
        dup = 1j * k * wave
        low_k = k / (E + d.mu) * wave
        dlow_k = 1j * k * low_k
        low_q = 1j * q / (E + d.mu) * wave
        dlow_q = 1j * k * low_q
        if mode.sigma > 0:
            f = (up, zero, low_k, low_q)
            df = (dup, zero, dlow_k, dlow_q)
        else:
            f = (zero, up, -low_q, -low_k)
            df = (zero, dup, -dlow_q, -dlow_k)
        return f, df, N
    kn = d.nu * mode.n
    L = d.length
    N = math.sqrt((E + d.mu) / (2.0 * E)) / math.sqrt(math.pi * L)
    s = np.sin(kn * z).astype(complex)
    c = np.cos(kn * z).astype(complex)
    ds = kn * c
    dc = -kn * s
    if mode.sigma > 0:
        f = (s, zero, -1j * kn / (E + d.mu) * c, 1j * q / (E + d.mu) * s)
        df = (ds, zero, -1j * kn / (E + d.mu) * dc, 1j * q / (E + d.mu) * ds)
    else:
        f = (zero, s, -1j * q / (E + d.mu) * s, 1j * kn / (E + d.mu) * c)
        df = (zero, ds, -1j * q / (E + d.mu) * ds, 1j * kn / (E + d.mu) * dc)
    return f, df, N


def _phase_powers(mode: ModeSpec):
    """Azimuthal phase integer+half exponents per component."""
    lo, hi = mode.lam - 0.5, mode.lam + 0.5
    if mode.sigma > 0:
        return (lo, lo, lo, hi)
    return (hi, hi, lo, hi)  # second entry is the only upper one in use


def mode_components(mode: ModeSpec, d: DimensionlessParams, t, phi, z) -> np.ndarray:
    """All four components, vectorized; shape (4,) + broadcast(t, phi, z)."""
    t = np.asarray(t, dtype=float)
    phi = np.asarray(phi, dtype=float)
    z = np.asarray(z, dtype=float)
    if mode.geometry == "finite":
        L = d.length
        if np.any(z < -1e-12) or np.any(z > L + 1e-12):
            raise ValueError(f"z outside [0, L={L:.6g}] for finite geometry")
    E = mode_energy(mode, d)
    (f1, f2, g1, g2), _, N = mode_profiles(mode, d, z)
    p = _phase_powers(mode)
    tp = np.exp(-1j * E * t)
    comps = [
        N * tp * f1 * np.exp(1j * p[0] * phi),
        N * tp * f2 * np.exp(1j * p[1] * phi),
        N * tp * g1 * np.exp(1j * p[2] * phi),
        N * tp * g2 * np.exp(1j * p[3] * phi),
    ]
    return np.stack(np.broadcast_arrays(*comps))


def eval_mode(mode: ModeSpec, d: DimensionlessParams, t: float, phi: float,
              z: float) -> np.ndarray:
    """Normalized fundamental spinor U^sigma at one point, shape (4,)."""
    return mode_components(mode, d, t, phi, z)


def inner_product(a: ModeSpec, b: ModeSpec, d: DimensionlessParams,
                  rule: QuadratureRule | None = None) -> complex:
    """Relativistic scalar product R * int dphi int dz psi^dag psi'.

    Finite geometry integrates over the whole cylinder.  For the
    infinite geometry the z-integrand carries a delta(k - k') factor
    that quadrature cannot represent, so only equal-k mode pairs are
    accepted and the phi-integrated norm density is returned (1 for a
    normalized mode).
    """
    if a.geometry != b.geometry:
        raise ValueError("inner_product needs modes of the same geometry")
    if a.geometry == "infinite":
        if a.k != b.k:
            raise ValueError("infinite-geometry inner product is defined "
                             "at equal k only (norm density check)")
        # the density at z = 0; 2 pi cancels the plane waves' 1/(2 pi)
        z, w = np.zeros(1), np.full(1, 2.0 * math.pi)
    else:
        rule = rule or QuadratureRule.finite(d)
        z, w = rule.z_nodes, rule.z_weights
    (ha, pa), (hb, pb) = _z_profiles(a, d, z), _z_profiles(b, d, z)
    return _finite_product(ha.conj(), pa, hb, pb, w)


def _z_profiles(mode: ModeSpec, d: DimensionlessParams, z: np.ndarray):
    """(h, p): at t = 0, component c of the mode is h[c](z) e^{i p[c] phi},
    with h of shape (4, len(z))."""
    f, _, N = mode_profiles(mode, d, z)
    return N * np.stack(f), _phase_powers(mode)


def _finite_product(conj_a: np.ndarray, pa, b: np.ndarray, pb,
                    z_weights: np.ndarray) -> complex:
    """int dphi int dz of conj_a . b, components conj_a[c](z) e^{-i pa[c] phi}
    and b[c](z) e^{i pb[c] phi}: the phi integral is 2 pi where the
    exponents match and 0 elsewhere, z is the quadrature.  Every mode
    scalar product reduces through it, so gram_matrix entries equal
    inner_product values bit for bit."""
    same = [c for c in range(4) if pa[c] == pb[c]]
    return complex(2.0 * math.pi * np.sum((conj_a[same] * b[same]) @ z_weights))


def gram_matrix(modes, d: DimensionlessParams,
                rule: QuadratureRule | None = None) -> np.ndarray:
    """M x M matrix G[i, j] = inner_product(modes[i], modes[j], d, rule).

    Finite geometry only.  Each mode's z profiles are evaluated once, and
    each row's conjugate is formed once, instead of the two evaluations
    per pair that M^2 inner_product calls make.
    """
    if any(m.geometry != "finite" for m in modes):
        raise ValueError("gram_matrix needs finite-geometry modes")
    rule = rule or QuadratureRule.finite(d)
    grids = [_z_profiles(m, d, rule.z_nodes) for m in modes]
    G = np.empty((len(modes), len(modes)), dtype=complex)
    for i, (ha, pa) in enumerate(grids):
        conj_a = ha.conj()
        for j, (hb, pb) in enumerate(grids):
            G[i, j] = _finite_product(conj_a, pa, hb, pb, rule.z_weights)
    return G


def dirac_residual(mode: ModeSpec, d: DimensionlessParams, z_samples,
                   energy_scale: float = 1.0) -> float:
    """Max-norm residual of the reduced 4x4 first-order system.

    The system matrix entries are (E -/+ mu), +/- i d/dz and
    +/- i(lambda+beta); derivatives are applied analytically to the
    known profiles.  energy_scale != 1 perturbs E in the matrix (only),
    so a test can check that the dirac_residual suite catches it.
    """
    z = np.asarray(z_samples, dtype=float)
    E = mode_energy(mode, d) * energy_scale
    q = mode.lam + d.beta
    (f1, f2, g1, g2), (df1, df2, dg1, dg2), _ = mode_profiles(mode, d, z)
    r1 = (E - d.mu) * f1 + 1j * dg1 + 1j * q * g2
    r2 = (E - d.mu) * f2 - 1j * q * g1 - 1j * dg2
    r3 = -1j * df1 - 1j * q * f2 - (E + d.mu) * g1
    r4 = 1j * q * f1 + 1j * df2 - (E + d.mu) * g2
    return float(max(np.max(np.abs(r)) for r in (r1, r2, r3, r4)))


def k_operator_apply(mode: ModeSpec, d: DimensionlessParams, t: float,
                     phi: float, z: float) -> np.ndarray:
    """Apply K = gamma^0 (2 S3 L3 + 1/2) with L3 = -i d/dphi taken
    analytically on the known azimuthal phases."""
    comps = mode_components(mode, d, t, phi, z)
    p = _phase_powers(mode)
    spin = (0.5, -0.5, 0.5, -0.5)
    g0 = (1.0, 1.0, -1.0, -1.0)
    return np.array([g0[j] * (2.0 * spin[j] * p[j] + 0.5) * comps[j]
                     for j in range(4)], dtype=complex)


_IM_TOL = 1e-10


def current_density(psi: np.ndarray, phi: float):
    """Current-density triple (j0, j_phi, j3) of a (4,) spinor value.

    j0 = psi^dag psi, j_phi = psi^dag g0 g_phi psi, j3 = psi^dag g0 g3 psi.
    The bilinears are computed as full complex sandwiches; a residual
    imaginary part above 1e-10 signals a spinor construction bug and
    raises instead of being discarded.
    """
    v = np.asarray(psi, dtype=complex)
    g = STANDARD_GAMMAS
    j0 = complex(v.conj() @ v)
    jphi = complex(v.conj() @ (g.g0 @ g.gamma_phi(phi)) @ v)
    j3 = complex(v.conj() @ (g.g0 @ g.g3) @ v)
    for name, val in (("j0", j0), ("jphi", jphi), ("j3", j3)):
        if abs(val.imag) > _IM_TOL:
            raise ArithmeticError(
                f"non-real current bilinear {name}: Im = {val.imag:.3e}")
    return j0.real, jphi.real, j3.real


# --- analytic test-spinor fields for operator-level checks ---------------

@dataclass(frozen=True)
class FourierSpinorField:
    """Smooth test spinor on the finite cylinder, represented term-wise.

    Each component is a finite sum of amp * e^{i p phi} * h(m nu z) with
    h in {sin, cos, one}; the restricted Dirac operator maps this class
    into itself, so derivatives stay analytic.  terms[j] is the list for
    component j.
    """

    terms: tuple[tuple[tuple[complex, float, str, int], ...], ...]

    def evaluate(self, phi, z, nu: float) -> np.ndarray:
        phi = np.asarray(phi, dtype=float)
        z = np.asarray(z, dtype=float)
        shape = np.broadcast_shapes(phi.shape, z.shape)
        out = np.zeros((4,) + shape, dtype=complex)
        for j, comp in enumerate(self.terms):
            for amp, p, kind, m in comp:
                out[j] += amp * np.exp(1j * p * phi) * _term_profile(kind, m,
                                                                     nu, z)
        return out


def _term_profile(kind: str, m: int, nu: float, z: np.ndarray) -> np.ndarray:
    if kind == "sin":
        return np.sin(m * nu * z)
    if kind == "cos":
        return np.cos(m * nu * z)
    return np.ones_like(z)


def _d_z(term):
    amp, p, kind, m = term
    if kind == "sin":
        return (amp * m, p, "cos", m)       # times nu, applied by caller
    if kind == "cos":
        return (-amp * m, p, "sin", m)
    return (0.0 + 0.0j, p, "one", 0)


def apply_restricted_dirac(field: FourierSpinorField, d: DimensionlessParams
                           ) -> FourierSpinorField:
    """Spatial part of the restricted Dirac operator applied analytically.

    Implements gamma^phi (i d_phi - beta) + (i/2)(d_phi gamma^phi)
    + i gamma^3 d_z on a FourierSpinorField (the i gamma^0 d_t term acts
    trivially on static fields and is dropped)."""
    nu = d.nu
    beta = d.beta

    def dphi_shift(comp, shift, extra):
        # extra * e^{i shift phi} * (i d_phi - beta) applied to each term
        return [(extra * amp * (-p - beta), p + shift, kind, m)
                for amp, p, kind, m in comp]

    def mul(comp, shift, factor):
        return [(factor * amp, p + shift, kind, m) for amp, p, kind, m in comp]

    def dz(comp, factor):
        out = []
        for term in comp:
            amp, p, kind, m = _d_z(term)
            if amp != 0.0:
                out.append((factor * amp * nu, p, kind, m))
        return out

    c1, c2, c3, c4 = field.terms
    row1 = dphi_shift(c4, -1.0, -1j) + mul(c4, -1.0, -0.5j) + dz(c3, 1j)
    row2 = dphi_shift(c3, +1.0, +1j) + mul(c3, +1.0, -0.5j) + dz(c4, -1j)
    row3 = dphi_shift(c2, -1.0, +1j) + mul(c2, -1.0, +0.5j) + dz(c1, -1j)
    row4 = dphi_shift(c1, +1.0, -1j) + mul(c1, +1.0, +0.5j) + dz(c2, 1j)
    return FourierSpinorField(terms=tuple(
        tuple(row) for row in (row1, row2, row3, row4)))


def field_inner_product(a: FourierSpinorField, b: FourierSpinorField,
                        d: DimensionlessParams, rule: QuadratureRule) -> complex:
    """Quadrature scalar product of two test fields, R = 1.

    The integrand is the Lorentz-invariant bilinear a-bar b = a^dag g0 b,
    the product under which the restricted Dirac operator is
    self-adjoint; mode norms use the plain a^dag b product instead.  The
    phi integral of a term pair is 2 pi at equal exponents p and 0
    otherwise; the z integral is the quadrature.
    """
    z, total = rule.z_nodes, 0j
    for g0, comp_a, comp_b in zip((1.0, 1.0, -1.0, -1.0), a.terms, b.terms):
        for amp_a, p_a, kind_a, m_a in comp_a:
            conj_h = np.conj(amp_a) * _term_profile(kind_a, m_a, d.nu, z)
            for amp_b, p_b, kind_b, m_b in comp_b:
                if p_a == p_b:
                    h = amp_b * _term_profile(kind_b, m_b, d.nu, z)
                    total += g0 * ((conj_h * h) @ rule.z_weights)
    return complex(2.0 * math.pi * total)
