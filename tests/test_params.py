import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcyl.currents import GaussianPacket, MixedState
from abcyl.fermi import PersistentReport
from abcyl.params import (E_OVER_2HBAR_PER_NM2_T, E_TIMES_C, HBARC_EV_NM,
                          ConfigError, DimensionlessParams, PhysicalParams,
                          parse_config_text, resolve_params, to_dimensionless,
                          validate_regime)
from abcyl.spectrum import ModeSpec


def test_constants():
    assert HBARC_EV_NM == pytest.approx(197.3269804)
    # e/(2 hbar) in 1/(nm^2 T)
    assert E_OVER_2HBAR_PER_NM2_T == pytest.approx(
        1.602176634e-19 / (2 * 1.054571817e-34) * 1e-18)


def test_e_times_c():
    # e in C times c in m/s, the factor from R*I to amperes
    assert E_TIMES_C == 1.602176634e-19 * 2.99792458e8


def test_physical_validation():
    with pytest.raises(ValueError):
        PhysicalParams(mass_eV=-1.0, radius_nm=10.0)
    with pytest.raises(ValueError):
        PhysicalParams(mass_eV=1.0, radius_nm=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(mass_eV=1.0, radius_nm=1.0, fermi_eV=-0.1)
    with pytest.raises(ValueError):
        PhysicalParams(mass_eV=1.0, radius_nm=1.0, length_nm=0.0)


def test_dimensionless_validation():
    with pytest.raises(ValueError):
        DimensionlessParams(mu=0.0)
    with pytest.raises(ValueError):
        DimensionlessParams(mu=1.0, nu=-0.1)
    with pytest.raises(ValueError):
        DimensionlessParams(mu=1.0, alpha=-1.0)
    with pytest.raises(ValueError):
        DimensionlessParams(mu=1.0, beta=math.inf)


def test_dimensionless_fields_are_the_four_groups():
    assert list(DimensionlessParams._fields) == [
        "mu", "nu", "beta", "alpha"]


@pytest.mark.parametrize("good, bad", [
    (DimensionlessParams(mu=1.0), {"mu": -1.0}),
    (DimensionlessParams(mu=1.0), {"nu": math.inf}),
    (PhysicalParams(mass_eV=1.0, radius_nm=1.0), {"radius_nm": 0.0}),
    (ModeSpec(geometry="finite", lam=0.5, sigma=0.5, n=1), {"sigma": 0.3}),
    (PersistentReport(method="exact", value=0.0, N_e=0), {"value": math.nan}),
    (MixedState(n=1, lam=0.5, c_plus=1.0, c_minus=0.0), {"c_minus": 1.0}),
    (GaussianPacket(lam=0.5, k0=0.0, width=1.0), {"order": 1}),
], ids=["mu", "nu", "radius", "sigma", "value", "mixing", "order"])
def test_checks_hold_on_construction_and_on_replace(good, bad):
    # _replace builds through _make, which a NamedTuple runs without
    # __new__; CheckedRecord routes it through the constructor
    with pytest.raises(ValueError) as built:
        type(good)(**{**good._asdict(), **bad})
    with pytest.raises(ValueError) as replaced:
        good._replace(**bad)
    assert str(replaced.value) == str(built.value)
    assert type(good._replace()) is type(good) and good._replace() == good


@pytest.mark.parametrize("key, value, message", [
    ("mu", math.inf, "mu must be finite, got inf"),
    ("nu", math.nan, "nu must be finite, got nan"),
    ("nu", math.inf, "nu must be finite, got inf"),
    ("alpha", math.inf, "alpha must be finite, got inf"),
    ("alpha", math.nan, "alpha must be finite, got nan"),
    ("beta", -math.inf, "beta must be finite, got -inf"),
    ("alpha", 2.0**51, "alpha must be below 2**51"),
    ("beta", -(2.0**51), "|beta| must be below 2**51"),
    ("beta", 1e17, "|beta| must be below 2**51"),
])
def test_dimensionless_range_rule(key, value, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        DimensionlessParams(**{"mu": 1.0, "nu": 1.0, key: value})


def test_dimensionless_range_rule_admits_the_largest_groups():
    below = math.nextafter(2.0**51, 0.0)
    d = DimensionlessParams(mu=1e300, nu=1e300, beta=-below, alpha=below)
    assert d.alpha == below and d.beta == -below


def test_to_dimensionless_hand_values():
    p = PhysicalParams(mass_eV=HBARC_EV_NM, radius_nm=1.0,
                       length_nm=math.pi, b_field_T=0.0, fermi_eV=0.0)
    d = to_dimensionless(p)
    assert d.mu == pytest.approx(1.0)
    assert d.nu == pytest.approx(1.0)
    assert d.beta == 0.0
    assert d.alpha == 0.0
    assert d.length == pytest.approx(math.pi)


def test_infinite_has_no_length():
    d = DimensionlessParams(mu=1.0)
    assert d.nu == 0.0
    with pytest.raises(ValueError):
        _ = d.length


def test_parse_config_text():
    text = """
    # a comment
    mu = 1.5
    nu = 0.25   # trailing comment
    beta = -0.1
    """
    assert parse_config_text(text) == {"mu": 1.5, "nu": 0.25, "beta": -0.1}


def test_parse_config_errors():
    with pytest.raises(ConfigError):
        parse_config_text("mu 1.5")
    with pytest.raises(ConfigError):
        parse_config_text("bogus = 1")
    with pytest.raises(ConfigError):
        parse_config_text("mu = abc")


def test_resolve_conflicts():
    with pytest.raises(ConfigError):
        resolve_params({"mu": 1.0, "mass_eV": 5.0, "radius_nm": 1.0})
    with pytest.raises(ConfigError):
        resolve_params({"mu": 1.0, "beta": 0.1, "b_field_T": 1.0})
    with pytest.raises(ConfigError):
        resolve_params({"mass_eV": 5.0})   # no radius
    with pytest.raises(ConfigError):
        resolve_params({})


_BASE = {"mass_eV": 1.0, "radius_nm": 1.0, "length_nm": 5.0,
         "fermi_eV": 1.0}


@pytest.mark.parametrize("key, value, message", [
    ("mass_eV", -1.0, "mass_eV must be positive, got -1.0"),
    ("radius_nm", 0.0, "radius_nm must be positive, got 0.0"),
    ("fermi_eV", -0.1, "fermi_eV must be non-negative, got -0.1"),
    ("length_nm", 0.0, "length_nm must be positive, got 0.0"),
])
def test_resolve_applies_physical_ranges(key, value, message):
    # resolve_params and PhysicalParams reject the same values with the
    # same message
    values = {**_BASE, key: value}
    with pytest.raises(ValueError) as from_values:
        resolve_params(values)
    with pytest.raises(ValueError) as from_params:
        PhysicalParams(**values)
    assert str(from_values.value) == str(from_params.value) == message
    # also when the key is not needed for the conversion
    if key in ("radius_nm", "length_nm"):
        with pytest.raises(ValueError, match=message):
            resolve_params({"mu": 1.0, key: value})


def test_resolve_matches_to_dimensionless():
    p = PhysicalParams(mass_eV=5e5, radius_nm=50.0, fermi_eV=0.1,
                       length_nm=500.0, b_field_T=2.0)
    d1 = to_dimensionless(p)
    d2 = resolve_params({"mass_eV": 5e5, "radius_nm": 50.0, "fermi_eV": 0.1,
                         "length_nm": 500.0, "b_field_T": 2.0})
    assert d1 == d2


def test_resolve_mixed_sources():
    d = resolve_params({"mu": 2.0, "nu": 0.5, "b_field_T": 1.0,
                        "radius_nm": 10.0})
    assert d.mu == 2.0 and d.nu == 0.5
    assert d.beta == pytest.approx(100.0 * E_OVER_2HBAR_PER_NM2_T)


def test_regime_flags():
    assert "short" in validate_regime(
        DimensionlessParams(mu=300.0, nu=10.0, alpha=15.0))
    assert "ring-like" in validate_regime(
        DimensionlessParams(mu=1.0, nu=2.0, alpha=1.0))
    assert "non-relativistic" in validate_regime(
        DimensionlessParams(mu=100.0, nu=1.0, alpha=5.0))
    assert validate_regime(DimensionlessParams(mu=1.0, nu=1.0, alpha=5.0)) \
        == frozenset()
    # the fixed cut-offs: short needs nu >= 10, non-relativistic alpha <= mu/10
    assert "short" not in validate_regime(
        DimensionlessParams(mu=300.0, nu=9.999, alpha=15.0))
    assert "non-relativistic" in validate_regime(
        DimensionlessParams(mu=100.0, nu=1.0, alpha=10.0))
    assert "non-relativistic" not in validate_regime(
        DimensionlessParams(mu=100.0, nu=1.0, alpha=10.001))


@given(mass=st.floats(1e3, 1e7), radius=st.floats(1.0, 500.0),
       fermi=st.floats(0.0, 10.0))
@settings(max_examples=50, deadline=None)
def test_nonrel_alpha_limit(mass, radius, fermi):
    # for E_F << M, alpha approaches R sqrt(2 M E_F)
    p = PhysicalParams(mass_eV=mass * 1e3, radius_nm=radius,
                       fermi_eV=fermi * 1e-3)
    d = to_dimensionless(p)
    approx = radius * math.sqrt(2 * mass * 1e3 * fermi * 1e-3) / HBARC_EV_NM
    assert d.alpha == pytest.approx(approx, rel=1e-3, abs=1e-12)


@given(mass=st.floats(1e-3, 1e7), radius=st.floats(1e-2, 1e4),
       fermi=st.floats(0.0, 1e3), b_field=st.floats(-50.0, 50.0),
       length=st.one_of(st.none(), st.floats(0.1, 1e5)))
@settings(max_examples=100, deadline=None)
def test_to_dimensionless_is_the_module_formulas(mass, radius, fermi,
                                                 b_field, length):
    # bit for bit the formulas of the module docstring, in lab units
    d = to_dimensionless(PhysicalParams(mass_eV=mass, radius_nm=radius,
                                        fermi_eV=fermi, length_nm=length,
                                        b_field_T=b_field))
    assert d.mu == mass * radius / HBARC_EV_NM
    assert d.nu == (0.0 if length is None else math.pi * radius / length)
    assert d.beta == b_field * radius**2 * E_OVER_2HBAR_PER_NM2_T
    assert d.alpha == radius * math.sqrt(fermi * (fermi + 2.0 * mass)) \
        / HBARC_EV_NM
    # the units of spectrum --physical: hbar c / R turns R*E into eV
    assert d.mu * (HBARC_EV_NM / radius) == pytest.approx(mass, rel=1e-15)


@given(nu=st.floats(0.01, 50.0), alpha=st.floats(0.0, 50.0))
@settings(max_examples=50, deadline=None)
def test_regime_flags_consistent(nu, alpha):
    flags = validate_regime(DimensionlessParams(mu=1.0, nu=nu, alpha=alpha))
    # the single-column and ring-like classifications are exclusive
    assert not ({"short", "ring-like"} <= flags)
