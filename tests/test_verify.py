import numpy as np
import pytest

from abcyl import spinors, verify
from abcyl.params import DimensionlessParams
from abcyl.spectrum import ModeSpec

_K_MODES = [
    *(ModeSpec(geometry="infinite", k=0.0, lam=lam, sigma=sig)
      for lam in (0.5, -0.5, 1.5, -2.5) for sig in (0.5, -0.5)),
    *verify._finite_modes(nmax=2, lmax=1.5),
]


def _within_ulps(got, want, ulps):
    for part in (np.real, np.imag):
        g, w = part(got), part(want)
        assert np.all(np.abs(g - w) <= ulps * np.spacing(np.abs(w))), (g, w)


@pytest.mark.parametrize("mode", _K_MODES, ids=repr)
def test_k_operator_points_batch_like_single_points(mode):
    # suite_k_operator evaluates both of its points in one call per mode
    d = DimensionlessParams(mu=1.0, nu=1.0, beta=0.3)
    t, phi, z = verify._K_POINTS
    psi = spinors.eval_mode(mode, d, t, phi, z)
    kpsi = spinors.k_operator_apply(mode, d, t, phi, z)
    assert psi.shape == kpsi.shape == (4, 2)
    for i, point in enumerate(zip(t, phi, z)):
        _within_ulps(psi[:, i], spinors.eval_mode(mode, d, *point), 4)
        _within_ulps(kpsi[:, i], spinors.k_operator_apply(mode, d, *point), 4)


@pytest.mark.parametrize("seed", range(8))
def test_run_suites_passes(seed):
    results = verify.run_suites(seed)
    assert len(results) == 12
    assert [r.suite for r in results if not r.passed] == []


def test_a_seed_draws_the_same_points_every_time():
    assert verify.run_suites(5) == verify.run_suites(5)
    assert verify.run_suites(5) != verify.run_suites(6)


def test_seeded_suites_draw_from_the_standard_library(monkeypatch):
    # numpy's generators are never asked for a draw
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.random used")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    assert all(r.passed for r in verify.run_suites(3))
