"""Acceptance gate: twelve numbered criteria, one pass/fail line each.

Each test prints `[criterion NN] <name>: PASS|FAIL (worst=...)` and then
asserts, so `pytest -v tests/test_acceptance.py` doubles as the release
checklist.  Criterion 03 asserts the K-operator eigenrelation where it
is an identity: K U = +/-lambda U on every component in the ring limit
k = 0, and K U = +/-lambda (U - 2 U_long) for k != 0, with U_long the
longitudinal lower component.  The componentwise relation cannot hold
for k != 0: i gamma^3 d_z ties each upper component to the lower one of
the same spin, and K gives that lower component the opposite eigenvalue.
"""

import math

import numpy as np
import pytest

from abcyl.cli import main as cli_main
from abcyl.currents import (GaussianPacket, MixedState,
                            circular_current_mode,
                            circular_current_mode_quadrature,
                            circular_current_packet,
                            longitudinal_current_packet_direct,
                            longitudinal_current_packet_formula, packet_norm,
                            packet_total_flux, packet_velocity_expectation)
from abcyl.fermi import (j_coeff, persistent_compact, persistent_exact,
                         persistent_linearized, persistent_nonrel,
                         persistent_short, sum_lambda_n)
from abcyl.params import DimensionlessParams
from abcyl.spectrum import ModeSpec, chi, energy_finite, \
    enumerate_fermi_sea, largest_half_odd, mode_energy
from abcyl.spinors import (dirac_residual, eval_mode, k_operator_apply,
                           z_quadrature)


def _report(num, name, worst, tol, passed=None):
    ok = worst <= tol if passed is None else passed
    verdict = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {verdict} "
          f"(worst={worst:.3e}, tol={tol:.3e})")
    assert ok, f"criterion {num} {name}: worst={worst!r} tol={tol!r}"


def _mode_set():
    return [ModeSpec(geometry="finite", n=n, lam=l2 / 2.0, sigma=s)
            for n in range(1, 6)
            for l2 in range(-9, 10, 2)
            for s in (0.5, -0.5)]


_PHI_POINTS = 256  # periodic rule, exact for e^{i m phi} with |m| < 256


def test_criterion_01_orthonormality():
    # a full (phi, z) quadrature, independent of the library's closed phi
    phi = np.arange(_PHI_POINTS) * (2.0 * math.pi / _PHI_POINTS)
    worst = 0.0
    for beta in (0.0, 0.3, 0.9):
        d = DimensionlessParams(mu=1.0, nu=1.0, beta=beta)
        z, w = z_quadrature(d)
        modes = _mode_set()
        A = np.stack([
            eval_mode(m, d, 0.0, phi[:, None], z[None, :])
            for m in modes])
        W = (A * w[None, None, None, :]
             * (2.0 * math.pi / _PHI_POINTS))
        G = np.einsum("acpz,bcpz->ab", W.conj(), A)
        worst = max(worst, float(np.max(np.abs(G - np.eye(len(modes))))))
    _report(1, "orthonormality", worst, 1e-10)


def test_criterion_02_dirac_residual():
    rng = np.random.default_rng(0)
    d = DimensionlessParams(mu=1.0, nu=1.0, beta=0.3)
    worst = 0.0
    worst_pert = math.inf
    for mode in _mode_set():
        z = rng.uniform(0.0, d.length, size=32)
        E = mode_energy(mode, d)
        worst = max(worst, dirac_residual(mode, d, z) / (1e-12 * E))
        worst_pert = min(worst_pert,
                         dirac_residual(mode, d, z, energy_scale=1.01))
    _report(2, "dirac-residual", worst, 1.0,
            passed=(worst <= 1.0 and worst_pert > 1e-3))


def test_criterion_03_k_operator_eigenrelation():
    # K = g0 (2 S3 L3 + 1/2) gives +lambda on the upper spin-up and lower
    # spin-down components and -lambda on the other two.  i g3 d_z couples
    # each upper component to the lower one of the same spin, so for
    # k != 0 the longitudinal lower component U_long (index 2 for
    # sigma = +1/2, index 3 for sigma = -1/2) carries the opposite
    # eigenvalue: K U = +/-lambda (U - 2 U_long).  Only in the ring limit
    # k = 0, where U_long vanishes, is K U = +/-lambda U componentwise.
    worst = 0.0
    defects = []            # |K U -/+ lambda U| on the k != 0 modes
    phi, zfrac, t = 0.9, 0.37, 0.2
    for beta in (0.0, 0.3):
        d_fin = DimensionlessParams(mu=1.0, nu=1.0, beta=beta)
        d_inf = DimensionlessParams(mu=1.0, beta=beta)
        z = zfrac * d_fin.length
        for mode in _mode_set():
            sign = 1.0 if mode.sigma > 0 else -1.0
            long_index = 2 if mode.sigma > 0 else 3
            ring, moving = (ModeSpec(geometry="infinite", lam=mode.lam,
                                     sigma=mode.sigma, k=k)
                            for k in (0.0, 0.8 * mode.n))
            for m, d in ((ring, d_inf), (mode, d_fin), (moving, d_inf)):
                v = eval_mode(m, d, t, phi, z)
                kv = k_operator_apply(m, d, t, phi, z)
                expected = sign * mode.lam * v
                if m is not ring:
                    defects.append(float(np.max(np.abs(kv - expected))))
                    expected[long_index] *= -1.0
                worst = max(worst, float(np.max(np.abs(kv - expected))))
    print(f"    componentwise K U -/+ lambda U deviation at k != 0 "
          f"(archived, not asserted): worst={max(defects):.3e}; "
          f"smallest={min(defects):.3e} (asserted > 1e-3)")
    _report(3, "k-operator-eigenrelation", worst, 1e-13,
            passed=(worst <= 1e-13 and min(defects) > 1e-3))


def test_criterion_04_circular_current_oracle():
    d = DimensionlessParams(mu=1.0, nu=1.0, beta=0.3)
    mixings = ((1.0, 0.0), (0.0, 1.0),
               (1 / math.sqrt(2), 1j / math.sqrt(2)))
    worst = 0.0
    for n, lam in ((1, 0.5), (2, -1.5), (3, 2.5)):
        closed_values = set()
        for cp, cm in mixings:
            state = MixedState(n=n, lam=lam, c_plus=cp, c_minus=cm)
            closed = circular_current_mode(state, d)
            closed_values.add(closed)
            quad = circular_current_mode_quadrature(state, d)
            worst = max(worst, abs(closed - quad))
        assert len(closed_values) == 1, "not bitwise mixing-independent"
    _report(4, "circular-current-oracle", worst, 1e-9)


def test_criterion_05_derivative_identity():
    rng = np.random.default_rng(5)
    h = 1e-6
    worst = 0.0
    count = 0
    while count < 50:
        n = int(rng.integers(1, 5))
        lam = int(rng.integers(-4, 4)) + 0.5
        mu = rng.uniform(0.5, 5.0)
        nu = rng.uniform(0.2, 2.0)
        beta = rng.uniform(-0.4, 0.4)
        if abs(lam + beta) < 0.3:
            continue         # avoid catastrophic cancellation in the fd
        count += 1
        d = DimensionlessParams(mu=mu, nu=nu, beta=beta)
        dp = DimensionlessParams(mu=mu, nu=nu, beta=beta + h)
        dm = DimensionlessParams(mu=mu, nu=nu, beta=beta - h)
        fd = (energy_finite(n, lam, dp) - energy_finite(n, lam, dm)) / (2 * h)
        analytic = 2 * math.pi * circular_current_mode(
            MixedState(n=n, lam=lam, c_plus=1.0, c_minus=0.0), d)
        worst = max(worst, abs(analytic - fd) / abs(fd))
    _report(5, "derivative-identity", worst, 1e-6)


def test_criterion_06_saturation():
    d = DimensionlessParams(mu=1.0, nu=1.0)
    lam = 4001 / 2
    bound = (d.mu**2 + d.nu**2) / (2 * lam**2) * (1 + 1e-3)
    worst = max(abs(chi(1, lam, d) - 1.0), abs(chi(1, -lam, d) + 1.0)) / bound
    p = GaussianPacket(lam=lam, k0=0.0, width=0.5)
    pk = circular_current_packet(p, DimensionlessParams(mu=1.0))
    worst_packet = abs(2 * math.pi * pk - 1.0) / 1e-5
    _report(6, "saturation", max(worst, worst_packet), 1.0)


def test_criterion_07_beta_expansion():
    d0 = DimensionlessParams(mu=1.0, nu=1.0)
    n, lam = 1, 1.5
    j = j_coeff(n, lam, d0)

    def residual(beta):
        d = DimensionlessParams(mu=1.0, nu=1.0, beta=beta)
        return abs(chi(n, lam, d) + chi(n, -lam, d) - 2 * j * beta)

    ratio = residual(1e-2) / residual(1e-3)
    _report(7, "beta-expansion-cubic", abs(ratio - 1000.0), 100.0)


def test_criterion_08_persistent_ladder():
    beta = 1e-4
    d = DimensionlessParams(mu=250.0, nu=1.0, beta=beta, alpha=50.0)
    ex = persistent_exact(d).value
    lin = persistent_linearized(d).value
    com = persistent_compact(d).value
    gap_lin = abs(ex - lin) / abs(ex)
    gap_com = abs(lin - com) / abs(lin)
    print(f"    measured gaps: exact-vs-linearized={gap_lin:.3e}, "
          f"linearized-vs-compact={gap_com:.3e}")
    worst = max(gap_lin / (10 * beta**2), gap_com / 0.02)
    _report(8, "persistent-method-ladder", worst, 1.0)


def test_criterion_09_appendix_b():
    # (B1) single-column sum vs lambda_n / sqrt(mu^2 + alpha^2)
    d = DimensionlessParams(mu=250.0, nu=1.0, alpha=50.0)
    sea = enumerate_fermi_sea(d)
    inner = sum(j_coeff(1, lam, d)
                for n, lam in sea.states() if n == 1 and lam > 0)
    compact = sea.lambda_F / math.sqrt(d.mu**2 + d.alpha**2)
    b1 = abs(inner - compact) / inner
    # (B2) exact sum of lambda_n vs the integral estimate at n_F > 100
    d2 = DimensionlessParams(mu=250.0, nu=1.0, alpha=150.0)
    exact = enumerate_fermi_sea(d2).sum_lambda_n()
    est = sum_lambda_n(d2)
    assert est.n_F_continuous > 100.0
    b2 = abs(est.quadrature - exact) / exact
    print(f"    B2 printed closed form {est.closed_form:.6e} vs exact "
          f"{exact:.6e} (reported, not asserted)")
    _report(9, "appendix-b-sums", max(b1, b2), 0.01)


def test_criterion_10_short_and_nonrel_limits():
    d = DimensionlessParams(mu=300.0, nu=10.0, beta=1e-4, alpha=15.0)
    ex = persistent_exact(d).value
    sh = persistent_short(d)
    tol_short = 1.0 / sh.lambda_F + 0.02
    gap_short = abs(sh.value - ex) / abs(ex)
    devs = []
    for mu in (1e3, 1e4, 1e5):
        alpha = math.sqrt(0.4 * mu)       # fixed Fermi energy scaling
        dn = DimensionlessParams(mu=mu, nu=1.0, beta=1e-4, alpha=alpha)
        ratio = persistent_nonrel(dn).value / persistent_exact(dn).value
        devs.append(abs(ratio - 1.0))
    print(f"    nonrel |ratio-1| over mu decades: "
          f"{devs[0]:.3e}, {devs[1]:.3e}, {devs[2]:.3e}")
    scaling_ok = all(0.05 < devs[i + 1] / devs[i] < 0.2 for i in range(2))
    _report(10, "short-and-nonrel-limits", gap_short / tol_short, 1.0,
            passed=(gap_short <= tol_short and scaling_ok))


def test_criterion_11_packet_longitudinal_current():
    d = DimensionlessParams(mu=1.0)
    p = GaussianPacket(lam=0.5, k0=1.0, width=0.5)
    fine = p._replace(order=1600)
    v = packet_velocity_expectation(fine, d)
    worst = 0.0
    fluxes = []
    for t in (0.0, 5.0, 20.0):
        window = abs(t) + 30.0
        norm = packet_norm(fine, d, t, window)
        flux = packet_total_flux(fine, d, t, window)
        fluxes.append(flux)
        worst = max(worst, abs(norm - 1.0), abs(flux - v))
    worst = max(worst, max(fluxes) - min(fluxes))
    # symmetric case vanishes at t = z = 0
    sym = GaussianPacket(lam=0.5, k0=0.0, width=0.5)
    i0 = longitudinal_current_packet_direct(sym, d, 0.0, [0.0])
    worst = max(worst, abs(float(i0[0])))
    # archive (not assert) the printed double-integral deviation
    zs = np.linspace(-4.0, 4.0, 9)
    direct = longitudinal_current_packet_direct(p, d, 0.0, zs)
    formula = longitudinal_current_packet_formula(p, d, 0.0, zs)
    print("    double-integral formula deviation (archived, not asserted):")
    for z, a, b in zip(zs, direct, formula):
        print(f"      z={z:+.1f}  direct={a:+.6e}  printed={b:+.6e}  "
              f"diff={a - b:+.3e}")
    _report(11, "packet-longitudinal-current", worst, 1e-6)


def test_criterion_12_cli_determinism(tmp_path, capsys):
    commands = {
        "spectrum": ["spectrum", "--mu", "1", "--nu", "1", "--beta", "0.2",
                     "--nmax", "3", "--lmax", "2.5"],
        "persistent": ["persistent", "--mu", "10", "--nu", "1",
                       "--beta", "1e-3", "--alpha", "5", "--format", "json"],
        "packet": ["packet", "--mu", "1", "--k0", "1", "--width", "0.5",
                   "--zsteps", "5", "--korder", "200"],
        "sweep": ["sweep", "--mu", "1", "--nu", "1", "--param", "beta",
                  "--start", "0", "--stop", "0.5", "--steps", "7",
                  "--observable", "chi"],
        "verify": ["verify", "--format", "json"],
    }
    worst_cmd = None
    for name, argv in commands.items():
        paths = [tmp_path / f"{name}-{i}.out" for i in (0, 1)]
        for path in paths:
            assert cli_main(argv + ["--out", str(path)]) == 0
        if paths[0].read_bytes() != paths[1].read_bytes():
            worst_cmd = name
            break
    capsys.readouterr()      # drop any diagnostic chatter from the runs
    _report(12, "cli-determinism", 0.0 if worst_cmd is None else 1.0, 0.5,
            passed=worst_cmd is None)
