"""Closed-form mode spinors and the brute-force oracle layer.

Conventions (natural units, lengths in units of the cylinder radius,
so R = 1 everywhere below):

* standard Dirac representation, diagonal gamma^0: STANDARD_GAMMAS, and
  products applied by hand in _g0_gphi, k_operator_apply,
  field_inner_product, longitudinal_current_packet_direct, packet_total_flux;
* a finite cylinder has length L = pi/nu and standing-wave momenta
  k_n = nu * n; an infinite cylinder has plane-wave momenta k = kR; a
  finite mode is the standing wave of the plane-wave spinors at
  k = +/- nu n (mode_profiles);
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
from typing import NamedTuple

import numpy as np

from .params import DimensionlessParams
from .spectrum import ModeSpec, mode_energy

__all__ = [
    "GammaSet",
    "STANDARD_GAMMAS",
    "z_quadrature",
    "eval_mode",
    "mode_profiles",
    "inner_product",
    "gram_matrix",
    "field_inner_product",
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


class GammaSet(NamedTuple):
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


# Newton passes that leggauss allows; every order from 1 to 2000 converges
# in at most 4.
_NEWTON_PASSES = 10


@functools.lru_cache(maxsize=None)
def leggauss(order: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton iteration on the three-term recurrence of P_{n-1}, P_n from
    Tricomi's asymptotic nodes (Hale & Townsend, SIAM J. Sci. Comput. 35,
    A652 (2013)) in O(order) memory, where numpy's leggauss solves an
    order x order eigenproblem.  Only the non-negative half is solved;
    the rule is its mirror image, so it is exactly symmetric and an odd
    order has an exact 0 node.  Each order is solved once per process,
    and the cached arrays are read-only.
    """
    if order < 1:
        raise ValueError(f"Gauss-Legendre order must be >= 1, got {order}")
    n = order
    theta = math.pi * (4.0 * np.arange(1, (n + 1) // 2 + 1) - 1.0) / (4 * n + 2)
    x = (1.0 - (n - 1) / (8.0 * n**3)
         - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n**4)) * np.cos(theta)
    if n % 2:
        x[-1] = 0.0
    scratch = np.empty_like(x)
    for _ in range(_NEWTON_PASSES):
        p0, p1 = np.ones_like(x), x.copy()
        for j in range(1, n):
            # p0 <- P_{j+1} = ((2j+1) x P_j - j P_{j-1}) / (j+1), in place
            np.multiply(x, p1, out=scratch)
            scratch *= (2 * j + 1) / (j + 1)
            p0 *= j / (j + 1)
            np.subtract(scratch, p0, out=p0)
            p0, p1 = p1, p0
        one_minus_x2 = (1.0 - x) * (1.0 + x)
        dp = n * (p0 - x * p1) / one_minus_x2  # P_n'
        dx = p1 / dp
        x -= dx
        if np.max(np.abs(dx)) <= 2.0 * np.finfo(float).eps:
            break
    else:
        raise ArithmeticError(f"Gauss-Legendre order {order}: Newton did "
                              f"not converge in {_NEWTON_PASSES} passes")
    w = 2.0 / (one_minus_x2 * dp**2)
    half = n // 2
    nodes = np.concatenate([-x[:half], x[::-1]])
    weights = np.concatenate([w[:half], w[::-1]])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


# The one z rule of every quadrature oracle; none has a phi grid, as each
# integrates phi exactly from the components' phase exponents.  Their z
# integrands oscillate a few times over [0, L], which 64 Gauss-Legendre
# nodes integrate to roundoff.
_Z_ORDER = 64


def z_quadrature(d: DimensionlessParams):
    """The _Z_ORDER Gauss-Legendre nodes and weights on [0, L]."""
    x, w = leggauss(_Z_ORDER)
    half = 0.5 * d.length
    return half * (x + 1.0), half * w


def mode_profiles(mode: ModeSpec, d: DimensionlessParams, z):
    """Reduced z-profiles (f1, f2, g1, g2) and their analytic derivatives.

    Returns ((f1, f2, g1, g2), (f1', f2', g1', g2'), N) where N is the
    normalization constant; the phi phases and e^{-iEt} are not included.
    Both geometries use the plane-wave rows U+ = (1, 0, a, b) and
    U- = (0, 1, -b, -a), a = k/(E+mu), b = iq/(E+mu), q = lambda + beta.
    An infinite mode is U e^{ikz}/sqrt(2 pi).  A finite mode is the
    standing wave (U_k e^{ikz} - U_{-k} e^{-ikz})/2i at k = nu n: only a
    is odd in k, so the k-even components carry sin(kz) and the k-odd one
    carries -i cos(kz).
    """
    z = np.asarray(z, dtype=float)
    E = mode_energy(mode, d)
    k = mode.k if mode.geometry == "infinite" else d.nu * mode.n
    a, b = k / (E + d.mu), 1j * (mode.lam + d.beta) / (E + d.mu)
    row, odd = (((1.0, 0.0, a, b), 2) if mode.sigma > 0
                else ((0.0, 1.0, -b, -a), 3))
    if mode.geometry == "infinite":
        N = math.sqrt((E + d.mu) / (2.0 * E)) / math.sqrt(2.0 * math.pi)
        wave = np.exp(1j * k * z) / math.sqrt(2.0 * math.pi)
        f = tuple(u * wave for u in row)
        return f, tuple(1j * k * h for h in f), N
    N = math.sqrt((E + d.mu) / (2.0 * E)) / math.sqrt(math.pi * d.length)
    s, c = np.sin(k * z), np.cos(k * z)
    f = tuple(u * (-1j * c if j == odd else s) for j, u in enumerate(row))
    df = tuple(u * (1j * k * s if j == odd else k * c)
               for j, u in enumerate(row))
    return f, df, N


def _phase_powers(mode: ModeSpec):
    """Azimuthal exponents (lambda-1/2, lambda+1/2, lambda-1/2, lambda+1/2)
    of the four components, the same for both polarizations."""
    return (mode.lam - 0.5, mode.lam + 0.5, mode.lam - 0.5, mode.lam + 0.5)


def eval_mode(mode: ModeSpec, d: DimensionlessParams, t, phi, z) -> np.ndarray:
    """Normalized fundamental spinor U^sigma, vectorized: all four
    components, shape (4,) + broadcast(t, phi, z)."""
    t = np.asarray(t, dtype=float)
    phi = np.asarray(phi, dtype=float)
    z = np.asarray(z, dtype=float)
    if mode.geometry == "finite":
        L = d.length
        if np.any(z < -1e-12) or np.any(z > L + 1e-12):
            raise ValueError(f"z outside [0, L={L:.6g}] for finite geometry")
    h, p = _z_profiles(mode, d, z)
    tp = np.exp(-1j * mode_energy(mode, d) * t)
    return np.stack(np.broadcast_arrays(
        *(h[c] * tp * np.exp(1j * p[c] * phi) for c in range(4))))


def inner_product(a: ModeSpec, b: ModeSpec, d: DimensionlessParams) -> complex:
    """Relativistic scalar product R * int dphi int dz psi^dag psi'.

    Finite geometry integrates over the whole cylinder on z_quadrature.
    For the infinite geometry the z-integrand carries a delta(k - k')
    factor that quadrature cannot represent, so only equal-k mode pairs
    are accepted and the phi-integrated norm density is returned (1 for
    a normalized mode).
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
        z, w = z_quadrature(d)
    return complex(_closed_phi_products(
        [_z_profiles(a, d, z)], [_z_profiles(b, d, z)], w)[0, 0])


def _z_profiles(mode: ModeSpec, d: DimensionlessParams, z):
    """(h, p): at t = 0, component c of the mode is h[c](z) e^{i p[c] phi},
    with h of shape (4,) + z.shape."""
    f, _, N = mode_profiles(mode, d, z)
    return N * np.stack(f), _phase_powers(mode)


def _closed_phi_products(left, right, z_weights: np.ndarray) -> np.ndarray:
    """X[i, j] = int dphi int dz left_i^dag right_j over lists of (h, p),
    component c being h[c](z) e^{i p[c] phi}: phi gives 2 pi where
    p_i[c] == p_j[c] and 0 elsewhere, z is the quadrature.  One einsum,
    not BLAS (whose blocking may change with the size), so an entry is
    bitwise the same for any sizes of left and right."""
    (ha, pa), (hb, pb) = zip(*left), zip(*right)
    S = np.einsum("icz,jcz,z->ijc", np.conj(ha), np.stack(hb), z_weights)
    same = np.asarray(pa)[:, None, :] == np.asarray(pb)[None, :, :]
    return 2.0 * math.pi * np.where(same, S, 0.0).sum(axis=2)


def gram_matrix(modes, d: DimensionlessParams) -> np.ndarray:
    """M x M matrix G[i, j] = inner_product(modes[i], modes[j], d).

    Finite geometry only.  Each mode's z profiles are evaluated once, and
    one closed-phi reduction gives all entries, bitwise as inner_product.
    """
    if any(m.geometry != "finite" for m in modes):
        raise ValueError("gram_matrix needs finite-geometry modes")
    z, w = z_quadrature(d)
    grids = [_z_profiles(m, d, z) for m in modes]
    return _closed_phi_products(grids, grids, w)


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
    comps = eval_mode(mode, d, t, phi, z)
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

class FourierSpinorField(NamedTuple):
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
                        d: DimensionlessParams) -> complex:
    """Quadrature scalar product of two test fields, R = 1.

    The integrand is the Lorentz-invariant bilinear a-bar b = a^dag g0 b,
    the product under which the restricted Dirac operator is
    self-adjoint; mode norms use the plain a^dag b product instead.  The
    phi integral of a term pair is 2 pi at equal exponents p and 0
    otherwise; the z integral is z_quadrature.
    """
    (z, w), total = z_quadrature(d), 0j
    for g0, comp_a, comp_b in zip((1.0, 1.0, -1.0, -1.0), a.terms, b.terms):
        for amp_a, p_a, kind_a, m_a in comp_a:
            conj_h = np.conj(amp_a) * _term_profile(kind_a, m_a, d.nu, z)
            for amp_b, p_b, kind_b, m_b in comp_b:
                if p_a == p_b:
                    h = amp_b * _term_profile(kind_b, m_b, d.nu, z)
                    total += g0 * ((conj_h * h) @ w)
    return complex(2.0 * math.pi * total)
