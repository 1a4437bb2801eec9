"""Self-contained verification suites behind the `verify` CLI command.

Each suite checks one family of invariants at a fixed tolerance and
reports the worst measured deviation.  The suites are the same oracles
the test suite uses, packaged for a one-shot machine-readable run.

Note on the angular-operator suite: the printed eigenvalue relation
K U^+- = +-lambda U^+- holds only on components that carry no
longitudinal-momentum profile; on the cos(k_n z) component the diagonal
operator necessarily flips the sign (no operator built from gamma^0,
S3, L3 can avoid this, since that component has identical spin/phase
structure in both polarization families but needs opposite
eigenvalues).  The suite therefore asserts the relation where it is an
actual identity and pins the sign-flip structure where it is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import currents, fermi, spectrum, spinors
from .params import DimensionlessParams
from .spectrum import ModeSpec, energy_finite, enumerate_fermi_sea, mode_energy
from .spinors import QuadratureRule, STANDARD_GAMMAS

__all__ = ["SuiteResult", "run_suites"]


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    tolerance: float
    worst: float
    passed: bool
    detail: str = ""


def _result(suite, tol, worst, detail=""):
    return SuiteResult(suite=suite, tolerance=tol, worst=float(worst),
                       passed=bool(worst <= tol), detail=detail)


_MINKOWSKI = (1.0, -1.0, -1.0, -1.0)


def suite_clifford() -> SuiteResult:
    g = [STANDARD_GAMMAS.g0, STANDARD_GAMMAS.g1,
         STANDARD_GAMMAS.g2, STANDARD_GAMMAS.g3]
    eye = np.eye(4)
    worst = 0.0
    for a in range(4):
        for b in range(4):
            anti = g[a] @ g[b] + g[b] @ g[a]
            want = 2.0 * (_MINKOWSKI[a] if a == b else 0.0) * eye
            worst = max(worst, float(np.max(np.abs(anti - want))))
    # gamma_phi is spacelike and anticommutes with g0 and g3
    for phi in (0.0, 0.7, 2.9):
        gp = STANDARD_GAMMAS.gamma_phi(phi)
        for other, want in ((gp, -2.0 * eye), (g[0], 0.0), (g[3], 0.0)):
            anti = gp @ other + other @ gp
            worst = max(worst, float(np.max(np.abs(anti - want))))
    return _result("clifford", 1e-13, worst)


def _finite_modes(nmax=3, lmax=2.5):
    lams = [s * (j + 0.5) for j in range(int(lmax + 0.5)) for s in (1, -1)]
    return [ModeSpec(geometry="finite", n=n, lam=lam, sigma=sig)
            for n in range(1, nmax + 1) for lam in lams for sig in (0.5, -0.5)]


def suite_orthonormality() -> SuiteResult:
    modes = _finite_modes(nmax=3, lmax=1.5)
    worst = 0.0
    for beta in (0.0, 0.3):
        d = DimensionlessParams(mu=1.0, nu=1.0, beta=beta)
        G = spinors.gram_matrix(modes, d, QuadratureRule.finite(d))
        worst = max(worst, float(np.max(np.abs(G - np.eye(len(modes))))))
    return _result("orthonormality", 1e-10, worst)


def suite_dirac_residual(seed: int = 0) -> SuiteResult:
    rng = np.random.default_rng(seed)
    d = DimensionlessParams(mu=1.0, nu=1.0, beta=0.3)
    worst = 0.0
    for mode in _finite_modes():
        zs = rng.uniform(0.0, d.length, size=32)
        res = spinors.dirac_residual(mode, d, zs)
        worst = max(worst, res / mode_energy(mode, d))
    for k in (0.0, 1.3, -2.7):
        mode = ModeSpec(geometry="infinite", k=k, lam=1.5, sigma=0.5)
        zs = rng.uniform(-3.0, 3.0, size=32)
        res = spinors.dirac_residual(mode, d, zs)
        worst = max(worst, res / mode_energy(mode, d))
    return _result("dirac_residual", 1e-12, worst, detail="relative to R*E")


def suite_k_operator() -> SuiteResult:
    d = DimensionlessParams(mu=1.0, nu=1.0, beta=0.3)
    worst = 0.0
    pts = [(0.0, 0.4, 0.9), (1.2, 2.2, 1.7)]
    for lam in (0.5, -0.5, 1.5, -2.5):
        for sig in (0.5, -0.5):
            mode = ModeSpec(geometry="infinite", k=0.0, lam=lam, sigma=sig)
            for (t, phi, z) in pts:
                psi = spinors.eval_mode(mode, d, t, phi, z)
                got = spinors.k_operator_apply(mode, d, t, phi, z)
                want = (lam if sig > 0 else -lam) * psi
                worst = max(worst, float(np.max(np.abs(got - want))))
    # finite modes: identity on the sin-profile components, exact sign
    # flip on the cos(k_n z) component
    for mode in _finite_modes(nmax=2, lmax=1.5):
        for (t, phi, z) in pts:
            psi = spinors.eval_mode(mode, d, t, phi, z)
            got = spinors.k_operator_apply(mode, d, t, phi, z)
            ev = mode.lam if mode.sigma > 0 else -mode.lam
            cos_idx = 2 if mode.sigma > 0 else 3
            want = ev * psi
            want[cos_idx] = -ev * psi[cos_idx]
            worst = max(worst, float(np.max(np.abs(got - want))))
    return _result("k_operator", 1e-13, worst,
                   detail="printed relation where exact; sign-flip pinned on "
                          "the longitudinal component")


def suite_circular_current() -> SuiteResult:
    d = DimensionlessParams(mu=1.0, nu=1.0, beta=0.4)
    rule = QuadratureRule.finite(d)
    mixings = [(1.0, 0.0), (0.0, 1.0), (1 / math.sqrt(2), 1 / math.sqrt(2))]
    worst = 0.0
    for n in (1, 2, 3):
        for lam in (0.5, -0.5, 1.5, 2.5):
            vals = []
            for cp, cm in mixings:
                st = currents.MixedState(n=n, lam=lam, c_plus=cp, c_minus=cm)
                closed = currents.circular_current_mode(st, d)
                quad = currents.circular_current_mode_quadrature(st, d, rule)
                worst = max(worst, abs(closed - quad))
                vals.append(closed)
            if not (vals[0] == vals[1] == vals[2]):
                worst = max(worst, 1.0)  # bitwise mixing-independence broken
    return _result("circular_current", 1e-9, worst)


def suite_derivative_identity(seed: int = 0) -> SuiteResult:
    rng = np.random.default_rng(seed)
    h = 1e-6
    worst = 0.0
    for _ in range(50):
        mu = rng.uniform(0.5, 5.0)
        nu = rng.uniform(0.2, 2.0)
        n = int(rng.integers(1, 6))
        lam = (int(rng.integers(0, 5)) + 0.5) * rng.choice([-1.0, 1.0])
        beta = rng.uniform(-0.4, 0.4)
        if abs(lam + beta) < 0.3:
            beta += 0.4 * math.copysign(1.0, lam)
        dm = DimensionlessParams(mu=mu, nu=nu, beta=beta)
        dp = DimensionlessParams(mu=mu, nu=nu, beta=beta + h)
        dn_ = DimensionlessParams(mu=mu, nu=nu, beta=beta - h)
        fd = (energy_finite(n, lam, dp) - energy_finite(n, lam, dn_)) / (2 * h)
        st = currents.MixedState(n=n, lam=lam, c_plus=1.0, c_minus=0.0)
        analytic = 2.0 * math.pi * currents.circular_current_mode(st, dm)
        worst = max(worst, abs(fd - analytic) / abs(analytic))
    return _result("derivative_identity", 1e-6, worst, detail="relative")


def suite_saturation() -> SuiteResult:
    d = DimensionlessParams(mu=1.0, nu=1.0)
    lam = 4001 / 2
    s = d.mu**2 + d.nu**2
    worst = 0.0
    for sgn in (1.0, -1.0):
        err = abs(spectrum.chi(1, sgn * lam, d) - sgn)
        bound = s / (2.0 * lam**2) * (1.0 + 1e-3)
        worst = max(worst, err / bound)
    p = currents.GaussianPacket(lam=lam, k0=0.0, width=1.0)
    ri = currents.circular_current_packet(p, DimensionlessParams(mu=1.0))
    worst = max(worst, abs(ri - 1.0 / (2.0 * math.pi)) / 1e-5)
    return _result("saturation", 1.0, worst, detail="normalized to each bound")


def suite_beta_expansion() -> SuiteResult:
    mu, nu, n, lam = 2.0, 1.0, 1, 2.5

    def resid(beta):
        d = DimensionlessParams(mu=mu, nu=nu, beta=beta)
        pair = spectrum.chi(n, lam, d) + spectrum.chi(n, -lam, d)
        return abs(pair - 2.0 * fermi.j_coeff(n, lam, d) * beta)

    ratio = resid(1e-2) / resid(1e-3)
    worst = abs(ratio - 1000.0)
    return _result("beta_expansion", 100.0, worst,
                   detail=f"residual ratio {ratio:.1f}, cubic scaling wants ~1000")


def suite_ladder() -> SuiteResult:
    d = DimensionlessParams(mu=250.0, nu=1.0, beta=1e-4, alpha=50.0)
    ex = fermi.persistent_exact(d)
    sea0 = enumerate_fermi_sea(replace(d, beta=0.0))
    lin = fermi.persistent_linearized(d, sea0)
    cmp_ = fermi.persistent_compact(d, sea0)
    gap1 = abs(ex.value - lin.value) / abs(lin.value)
    gap2 = abs(lin.value - cmp_.value) / abs(lin.value)
    worst = max(gap1 / (10.0 * d.beta**2), gap2 / 0.02)
    return _result("persistent_ladder", 1.0, worst,
                   detail=f"exact-vs-linearized {gap1:.3e}, linearized-vs-compact {gap2:.3e}")


def suite_appendix_b() -> SuiteResult:
    # B1-style inner sum at n=1
    d = DimensionlessParams(mu=250.0, nu=1.0, alpha=50.0)
    sea = enumerate_fermi_sea(d)
    inner = math.fsum(fermi.j_coeff(1, lam, d)   # column n = 1, lambda > 0
                      for lam in spectrum.half_odd_run(0.5, sea.lambda_F))
    approx = sea.lambda_F / math.sqrt(d.mu**2 + d.alpha**2)
    worst = abs(inner - approx) / inner / 0.01
    # B2 sum-to-integral with a genuinely dense sea (n_F > 100, lambda_F >> 1)
    d2 = DimensionlessParams(mu=250.0, nu=1.0, alpha=150.0)
    exact = enumerate_fermi_sea(d2).sum_lambda_n()
    est = fermi.sum_lambda_n(d2)
    worst = max(worst, abs(exact - est.quadrature) / exact / 0.01)
    return _result("appendix_b", 1.0, worst, detail="normalized to 1%")


def suite_boundary() -> SuiteResult:
    d = DimensionlessParams(mu=1.0, nu=1.0, beta=0.3)
    worst = 0.0
    ok = True
    for mode in _finite_modes(nmax=2, lmax=1.5):
        for z in (0.0, d.length):
            v = spinors.eval_mode(mode, d, 0.0, 0.9, z)
            sin_idx = [0, 1, 3] if mode.sigma > 0 else [0, 1, 2]
            cos_idx = 2 if mode.sigma > 0 else 3
            worst = max(worst, float(np.max(np.abs(v[sin_idx]))))
            if abs(v[cos_idx]) < 1e-6:
                ok = False
    if not ok:
        worst = max(worst, 1.0)
    return _result("boundary_behavior", 1e-13, worst,
                   detail="sin components at z in {0, L}; cos component stays finite")


def suite_hermiticity(seed: int = 0) -> SuiteResult:
    rng = np.random.default_rng(seed + 7)
    d = DimensionlessParams(mu=1.0, nu=1.0, beta=0.25)
    rule = QuadratureRule.finite(d, z_order=96)

    def random_field():
        comps = []
        for j in range(4):
            kinds = ("sin",) if j < 2 else ("sin", "cos")
            terms = []
            for _ in range(3):
                amp = complex(rng.normal(), rng.normal())
                p = (int(rng.integers(-3, 3)) + 0.5)
                kind = kinds[int(rng.integers(0, len(kinds)))]
                m = int(rng.integers(1, 4))
                terms.append((amp, p, kind, m))
            comps.append(tuple(terms))
        return spinors.FourierSpinorField(terms=tuple(comps))

    worst = 0.0
    for _ in range(6):
        a, b = random_field(), random_field()
        # self-adjointness holds in the invariant a-bar b product
        lhs = spinors.field_inner_product(
            a, spinors.apply_restricted_dirac(b, d), d, rule)
        rhs = spinors.field_inner_product(
            b, spinors.apply_restricted_dirac(a, d), d, rule)
        scale = max(1.0, abs(lhs))
        worst = max(worst, abs(lhs - rhs.conjugate()) / scale)
    return _result("hermiticity", 1e-8, worst)


def run_suites(seed: int = 0) -> list[SuiteResult]:
    """Every suite, in a fixed order; seed draws the random sample points
    of the three suites that have any."""
    return [
        suite_clifford(),
        suite_orthonormality(),
        suite_dirac_residual(seed),
        suite_k_operator(),
        suite_circular_current(),
        suite_derivative_identity(seed),
        suite_saturation(),
        suite_beta_expansion(),
        suite_ladder(),
        suite_appendix_b(),
        suite_boundary(),
        suite_hermiticity(seed),
    ]
