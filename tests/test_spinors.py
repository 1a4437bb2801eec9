import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcyl import spinors, verify
from abcyl.params import DimensionlessParams
from abcyl.spectrum import ModeSpec, mode_energy
from abcyl.spinors import (STANDARD_GAMMAS, FourierSpinorField,
                           apply_restricted_dirac, current_density, dirac_residual, eval_mode,
                           field_inner_product, gram_matrix,
                           inner_product, k_operator_apply, z_quadrature)

ETA = np.diag([1.0, -1.0, -1.0, -1.0])


def test_clifford_algebra():
    g = [STANDARD_GAMMAS.g0, STANDARD_GAMMAS.g1,
         STANDARD_GAMMAS.g2, STANDARD_GAMMAS.g3]
    for a in range(4):
        for b in range(4):
            anti = g[a] @ g[b] + g[b] @ g[a]
            assert np.allclose(anti, 2 * ETA[a, b] * np.eye(4), atol=1e-15)


def test_gamma_phi_assembly():
    for phi in (0.0, 1.1, 2 * math.pi - 0.3):
        expected = (-STANDARD_GAMMAS.g1 * math.sin(phi)
                    + STANDARD_GAMMAS.g2 * math.cos(phi))
        assert np.allclose(STANDARD_GAMMAS.gamma_phi(phi), expected)


def _finite(n, lam, sigma):
    return ModeSpec(geometry="finite", n=n, lam=lam, sigma=sigma)


def test_mode_norm_is_one():
    d = DimensionlessParams(mu=1.0, nu=1.0, beta=0.3)
    for mode in (_finite(1, 0.5, 0.5), _finite(2, -1.5, -0.5),
                 _finite(3, 2.5, 0.5)):
        assert inner_product(mode, mode, d) == pytest.approx(1.0, abs=1e-12)


def test_cross_mode_orthogonality():
    d = DimensionlessParams(mu=1.0, nu=1.0, beta=0.3)
    a = _finite(1, 0.5, 0.5)
    for b in (_finite(2, 0.5, 0.5), _finite(1, 1.5, 0.5),
              _finite(1, 0.5, -0.5)):
        assert abs(inner_product(a, b, d)) < 1e-12


def test_gram_matrix_equals_inner_product_bitwise():
    d = DimensionlessParams(mu=1.0, nu=1.0, beta=0.3)
    modes = [_finite(n, s * lam, sigma) for n in (1, 2, 3)
             for lam in (0.5, 1.5) for s in (1, -1) for sigma in (0.5, -0.5)]
    G = gram_matrix(modes, d)
    assert G.shape == (24, 24)
    for i, a in enumerate(modes):
        for j, b in enumerate(modes):
            assert G[i, j] == inner_product(a, b, d)
    infinite = ModeSpec(geometry="infinite", lam=0.5, sigma=0.5, k=1.3)
    with pytest.raises(ValueError):
        gram_matrix([modes[0], infinite], d)


_PHI_POINTS = 256  # periodic rule, exact for e^{i m phi} with |m| < 256
_PHI = np.arange(_PHI_POINTS) * (2.0 * math.pi / _PHI_POINTS)


@pytest.mark.parametrize("beta", [0.0, 0.3])
def test_gram_matrix_matches_phi_grid_quadrature(beta):
    # the library integrates phi in closed form; a full (phi, z) grid
    # over the same z rule must give the same matrix.  The grid sums z
    # before phi: one flat sum over (c, phi, z) rounds to above 1e-14.
    d = DimensionlessParams(mu=1.0, nu=1.0, beta=beta)
    z, w = z_quadrature(d)
    modes = [_finite(n, s * lam, sigma) for n in (1, 2, 3)
             for lam in (0.5, 1.5) for s in (1, -1) for sigma in (0.5, -0.5)]
    A = np.stack([eval_mode(m, d, 0.0, _PHI[:, None], z[None, :])
                  for m in modes])
    G = (2.0 * math.pi / _PHI_POINTS) * np.stack([
        np.sum(np.einsum("cpz,bcpz->bpz", a.conj(), A) @ w, axis=1)
        for a in A])
    assert np.max(np.abs(gram_matrix(modes, d) - G)) < 1e-14


def test_field_inner_product_matches_phi_grid_quadrature():
    d = DimensionlessParams(mu=1.0, nu=1.0, beta=0.25)
    z, w = z_quadrature(d)
    a = FourierSpinorField(terms=(
        ((1.0, 0.5, "sin", 1), (0.4j, -1.5, "sin", 2)),
        ((2.0j, 1.5, "sin", 2),), ((0.7, -0.5, "cos", 1),),
        ((1.1, 0.5, "sin", 1), (0.3, 0.5, "one", 0))))
    b = apply_restricted_dirac(a, d)
    pa = a.evaluate(_PHI[:, None], z[None, :], d.nu)
    pb = b.evaluate(_PHI[:, None], z[None, :], d.nu)
    pb[2:] *= -1.0  # gamma^0
    grid = (2.0 * math.pi / _PHI_POINTS) * np.sum(
        np.einsum("cpz,cpz->pz", pa.conj(), pb) @ w)
    assert abs(field_inner_product(a, b, d) - grid) < 1e-13


@pytest.mark.parametrize("sigma, component", [(0.5, 3), (-0.5, 2)])
def test_verify_catches_a_wrong_phase_exponent(monkeypatch, sigma,
                                               component):
    # the closed phi integral reads the exponents from _phase_powers; one
    # polarization with one exponent off by 1 must fail both suites (a
    # shift of every mode alike leaves the Gram matrix as it is)
    right = spinors._phase_powers

    def wrong(mode):
        p = list(right(mode))
        if mode.sigma == sigma:
            p[component] += 1.0
        return tuple(p)

    monkeypatch.setattr(spinors, "_phase_powers", wrong)
    assert not verify.suite_orthonormality().passed
    assert not verify.suite_circular_current().passed


@pytest.mark.parametrize("tilt", [
    lambda g, phi: -g.g1 * math.sin(phi) + g.g3 * math.cos(phi),
    lambda g, phi: 2.0 * (-g.g1 * math.sin(phi) + g.g2 * math.cos(phi))],
    ids=["leans-on-g3", "twice-unit-norm"])
def test_verify_clifford_catches_a_wrong_gamma_phi(monkeypatch, tilt):
    # the suite checks relations gamma_phi must satisfy, not the
    # expression it is built from: one leaning on g3, or off unit norm,
    # must fail
    class Wrong(spinors.GammaSet):
        def gamma_phi(self, phi):
            return tilt(self, phi)

    g = STANDARD_GAMMAS
    monkeypatch.setattr(verify, "STANDARD_GAMMAS",
                        Wrong(g0=g.g0, g1=g.g1, g2=g.g2, g3=g.g3))
    result = verify.suite_clifford()
    assert not result.passed and result.worst >= 1.0


def test_infinite_norm_density():
    d = DimensionlessParams(mu=1.0, beta=0.2)
    mode = ModeSpec(geometry="infinite", lam=0.5, sigma=0.5, k=1.3)
    assert inner_product(mode, mode, d) == pytest.approx(1.0, abs=1e-12)
    other = ModeSpec(geometry="infinite", lam=0.5, sigma=0.5, k=0.9)
    with pytest.raises(ValueError):
        inner_product(mode, other, d)


@pytest.mark.parametrize("beta", [0.0, 0.3])
def test_finite_mode_is_standing_wave_of_plane_waves(beta):
    # U_n = (2 pi / sqrt(pi L)) (U_{k=nu n} - U_{k=-nu n}) / 2i: the
    # plane waves carry 1/sqrt(2 pi) and the finite mode 1/sqrt(pi L)
    # at the same E, so the common factor sqrt((E+mu)/2E) cancels
    d_fin = DimensionlessParams(mu=1.0, nu=1.0, beta=beta)
    d_inf = DimensionlessParams(mu=1.0, beta=beta)
    z = np.linspace(0.0, d_fin.length, 17)
    t, phi = 0.4, 1.1
    scale = 2.0 * math.pi / math.sqrt(math.pi * d_fin.length)
    worst = 0.0
    for n in (1, 2, 3):
        for lam in (0.5, -1.5, 2.5):
            for sigma in (0.5, -0.5):
                want = eval_mode(_finite(n, lam, sigma), d_fin, t, phi, z)
                plus, minus = (eval_mode(ModeSpec(geometry="infinite",
                                                  lam=lam, sigma=sigma,
                                                  k=k), d_inf, t, phi, z)
                               for k in (d_fin.nu * n, -d_fin.nu * n))
                got = scale * (plus - minus) / 2j
                worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst < 1e-14


def test_boundary_conditions():
    d = DimensionlessParams(mu=1.0, nu=1.0, beta=0.3)
    L = d.length
    for sigma in (0.5, -0.5):
        mode = _finite(2, 1.5, sigma)
        for z in (0.0, L):
            v = eval_mode(mode, d, 0.0, 0.7, z)
            # sin-type components vanish at the caps, the cos one does not
            if sigma > 0:
                assert abs(v[0]) < 1e-14 and abs(v[3]) < 1e-14
                assert abs(v[2]) > 1e-3
            else:
                assert abs(v[1]) < 1e-14 and abs(v[2]) < 1e-14
                assert abs(v[3]) > 1e-3


def test_z_domain_enforced():
    d = DimensionlessParams(mu=1.0, nu=1.0)
    with pytest.raises(ValueError):
        eval_mode(_finite(1, 0.5, 0.5), d, 0.0, 0.0, -0.5)


def test_dirac_residual_small_and_sensitive():
    d = DimensionlessParams(mu=1.0, nu=1.0, beta=0.3)
    z = np.linspace(0.1, d.length - 0.1, 17)
    for mode in (_finite(1, 0.5, 0.5), _finite(3, -2.5, -0.5)):
        E = mode_energy(mode, d)
        assert dirac_residual(mode, d, z) <= 1e-12 * E
        assert dirac_residual(mode, d, z, energy_scale=1.01) > 1e-3


def test_dirac_residual_infinite():
    d = DimensionlessParams(mu=1.0, beta=0.2)
    mode = ModeSpec(geometry="infinite", lam=1.5, sigma=-0.5, k=0.8)
    assert dirac_residual(mode, d, np.linspace(-3, 3, 9)) < 1e-13
    k0 = ModeSpec(geometry="infinite", lam=1.5, sigma=0.5, k=0.0)
    assert dirac_residual(k0, d, [0.0]) < 1e-13


def test_k_operator_eigenrelation_at_k0():
    # plane-wave modes with k = 0 are exact eigenvectors of
    # K = g0 (2 S3 L3 + 1/2) with eigenvalue +/- lambda
    d = DimensionlessParams(mu=1.0, beta=0.2)
    for lam, sigma, sign in ((1.5, 0.5, 1.0), (1.5, -0.5, -1.0)):
        mode = ModeSpec(geometry="infinite", lam=lam, sigma=sigma, k=0.0)
        v = eval_mode(mode, d, 0.3, 1.1, 0.7)
        kv = k_operator_apply(mode, d, 0.3, 1.1, 0.7)
        assert np.max(np.abs(kv - sign * lam * v)) < 1e-13


def test_k_operator_sign_structure_with_longitudinal_motion():
    # with k != 0 the cos-profile lower component picks up the opposite
    # sign, so the printed eigenrelation cannot hold off the ring limit
    d = DimensionlessParams(mu=1.0, nu=1.0, beta=0.2)
    mode = _finite(2, 1.5, 0.5)
    z, phi = 0.37, 0.9
    v = eval_mode(mode, d, 0.0, phi, z)
    kv = k_operator_apply(mode, d, 0.0, phi, z)
    lam = 1.5
    assert abs(kv[0] - lam * v[0]) < 1e-13
    assert abs(kv[3] - lam * v[3]) < 1e-13
    assert abs(kv[2] + lam * v[2]) < 1e-13      # flipped sign
    assert abs(kv[2] - lam * v[2]) > 1e-3       # and genuinely nonzero


def test_current_density_single_mode():
    d = DimensionlessParams(mu=1.0, nu=1.0, beta=0.3)
    mode = _finite(2, 1.5, 0.5)
    E = mode_energy(mode, d)
    L = d.length
    kn = d.nu * mode.n
    for z, phi in ((0.4, 0.0), (1.1, 2.2), (2.0, 4.0)):
        j0, jphi, j3 = current_density(eval_mode(mode, d, 0.0, phi, z), phi)
        assert j0 >= 0.0
        assert j3 == pytest.approx(0.0, abs=1e-15)
        expected = (mode.lam + d.beta) * math.sin(kn * z) ** 2 / (math.pi * L * E)
        assert jphi == pytest.approx(expected, rel=1e-12)


def test_current_density_time_independent():
    d = DimensionlessParams(mu=1.0, nu=1.0, beta=0.3)
    mode = _finite(1, -0.5, -0.5)
    a = current_density(eval_mode(mode, d, 0.0, 1.0, 0.8), 1.0)
    b = current_density(eval_mode(mode, d, 1.7, 1.0, 0.8), 1.0)
    assert a == pytest.approx(b, rel=1e-13)


def test_current_density_of_unit_upper_spinor():
    # psi = (1, 0, 0, 0): j0 = psi^dag psi = 1, and the g0 g_phi and g0 g3
    # sandwiches couple upper to lower components only, so both vanish
    unit = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    j0, jphi, j3 = current_density(unit, 0.0)
    assert j0 == pytest.approx(1.0)
    assert jphi == 0.0 and j3 == 0.0


def test_restricted_dirac_action_on_fields():
    # E_D maps the analytic test-field class into itself and matches a
    # brute-force pointwise evaluation
    d = DimensionlessParams(mu=1.0, nu=1.0, beta=0.25)
    field = FourierSpinorField(terms=(
        (((1 + 2j), 0.5, "sin", 1),),
        ((0.5j, -1.5, "sin", 2),),
        ((1.0, 0.5, "cos", 1),),
        ((2.0, 1.5, "sin", 3),),
    ))
    out = apply_restricted_dirac(field, d)
    phi, z = 1.3, 0.7
    h = 1e-6
    psi = field.evaluate(phi, z, d.nu)
    dphi = (field.evaluate(phi + h, z, d.nu)
            - field.evaluate(phi - h, z, d.nu)) / (2 * h)
    dz = (field.evaluate(phi, z + h, d.nu)
          - field.evaluate(phi, z - h, d.nu)) / (2 * h)
    D = 1j * dphi - d.beta * psi
    em, ep = np.exp(-1j * phi), np.exp(1j * phi)
    expected = np.array([
        -1j * em * D[3] - 0.5j * em * psi[3] + 1j * dz[2],
        1j * ep * D[2] - 0.5j * ep * psi[2] - 1j * dz[3],
        1j * em * D[1] + 0.5j * em * psi[1] - 1j * dz[0],
        -1j * ep * D[0] + 0.5j * ep * psi[0] + 1j * dz[1],
    ])
    got = out.evaluate(phi, z, d.nu)
    assert np.max(np.abs(got - expected)) < 1e-8


def test_restricted_dirac_self_adjoint_in_dirac_product():
    d = DimensionlessParams(mu=1.0, nu=1.0, beta=0.25)
    a = FourierSpinorField(terms=(
        ((1.0, 0.5, "sin", 1),), ((2.0j, 1.5, "sin", 2),),
        ((0.7, -0.5, "cos", 1),), ((1.1, 0.5, "sin", 1),)))
    b = FourierSpinorField(terms=(
        ((0.3, -1.5, "sin", 2),), ((1.0, 0.5, "sin", 1),),
        ((2.0, 1.5, "sin", 3),), ((0.5j, -0.5, "cos", 2),)))
    lhs = field_inner_product(a, apply_restricted_dirac(b, d), d)
    rhs = field_inner_product(b, apply_restricted_dirac(a, d), d)
    assert lhs == pytest.approx(rhs.conjugate(), abs=1e-10)


@pytest.mark.parametrize("seed", range(4))
def test_hermiticity_suite_is_at_roundoff_on_the_fixed_z_rule(seed):
    # the suite's fields are sin/cos of m nu z with m < 4, which the 64
    # nodes integrate to roundoff: far inside the suite's 1e-8 tolerance
    assert verify.suite_hermiticity(seed).worst <= 1e-13


@given(n=st.integers(1, 4), lam2=st.integers(-7, 6),
       sigma=st.sampled_from([0.5, -0.5]),
       mu=st.floats(0.3, 5.0), nu=st.floats(0.2, 2.0),
       beta=st.floats(-0.9, 0.9))
@settings(max_examples=60, deadline=None)
def test_dirac_residual_property(n, lam2, sigma, mu, nu, beta):
    d = DimensionlessParams(mu=mu, nu=nu, beta=beta)
    mode = _finite(n, lam2 + 0.5, sigma)
    z = np.linspace(0.0, d.length, 13)
    assert dirac_residual(mode, d, z) <= 1e-12 * mode_energy(mode, d)


@given(n=st.integers(1, 3), lam2=st.integers(-4, 3),
       sigma=st.sampled_from([0.5, -0.5]), beta=st.floats(-0.5, 0.5),
       phi=st.floats(0.0, 6.28), zfrac=st.floats(0.05, 0.95))
@settings(max_examples=40, deadline=None)
def test_norm_density_positive(n, lam2, sigma, beta, phi, zfrac):
    d = DimensionlessParams(mu=1.0, nu=1.0, beta=beta)
    mode = _finite(n, lam2 + 0.5, sigma)
    j0, _, _ = current_density(eval_mode(mode, d, 0.0, phi, zfrac * d.length),
                               phi)
    assert j0 >= 0.0
