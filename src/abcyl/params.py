"""Conversion of physical device parameters to the dimensionless groups.

Everything downstream works in natural units (hbar = c = 1) with all
lengths measured in units of the cylinder radius R.  The four groups are

    mu    = M R               (rest energy x radius)
    nu    = pi R / L          (0 encodes the infinite cylinder)
    beta  = e B R^2 / 2       (flux parameter)
    alpha = R sqrt(E_F (E_F + 2M))   (Fermi-condition radius)

Inputs in eV, nm or tesla are converted here and nowhere else; the only
way back is the CLI's `spectrum --physical`, which multiplies R*E by
hbar c / R and R*I by e c / R from the radius_nm it was given.
"""

from __future__ import annotations

import math
from typing import NamedTuple

__all__ = [
    "HBARC_EV_NM",
    "E_OVER_2HBAR_PER_NM2_T",
    "E_TIMES_C",
    "PARAM_KEYS",
    "ConfigError",
    "RegimeError",
    "ResolutionError",
    "CheckedRecord",
    "PhysicalParams",
    "DimensionlessParams",
    "to_dimensionless",
    "validate_regime",
    "parse_config_text",
    "resolve_params",
]

# CODATA 2018.  hbar*c in eV nm; e/(2 hbar) in 1/(nm^2 T), computed from
# e = 1.602176634e-19 C and hbar = 1.054571817e-34 J s; e*c in C m/s
# turns R*I into amperes.
HBARC_EV_NM = 197.3269804
_E_CHARGE_C = 1.602176634e-19
E_TIMES_C = _E_CHARGE_C * 2.99792458e8
_HBAR_J_S = 1.054571817e-34
E_OVER_2HBAR_PER_NM2_T = _E_CHARGE_C / (2.0 * _HBAR_J_S) * 1e-18


class CheckedRecord:
    """Base of the NamedTuple records that check their fields.

    A record subclasses its NamedTuple of fields after this class (a
    NamedTuple body may not override __new__ or _make) and defines
    _check, which raises on a bad field.  The check runs on every
    construction: _replace builds the new record through _make, which
    here goes through the constructor as well.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _PhysicalFields(NamedTuple):
    mass_eV: float
    radius_nm: float
    fermi_eV: float = 0.0
    length_nm: float | None = None
    b_field_T: float = 0.0


class PhysicalParams(CheckedRecord, _PhysicalFields):
    """Device parameters in laboratory units.

    length_nm is None for the infinite cylinder.
    """

    __slots__ = ()

    def _check(self):
        _check_physical(self._asdict())


def _check_physical(values) -> None:
    """Range rules of the physical keys, shared with resolve_params."""
    for key in ("mass_eV", "radius_nm", "length_nm"):
        if values.get(key) is not None and not values[key] > 0:
            raise ValueError(f"{key} must be positive, got {values[key]}")
    fermi = values.get("fermi_eV", 0.0)
    if not fermi >= 0:
        raise ValueError(f"fermi_eV must be non-negative, got {fermi}")


class _DimensionlessFields(NamedTuple):
    mu: float
    nu: float = 0.0
    beta: float = 0.0
    alpha: float = 0.0


class DimensionlessParams(CheckedRecord, _DimensionlessFields):
    """The parameter bundle every formula consumes.

    All four groups are finite, and alpha and |beta| stay below 2**51:
    the Fermi sea then holds only |lambda| < 2**52, where a step
    lambda + 1 still lands on the next half-odd-integer.
    """

    __slots__ = ()

    def _check(self):
        if not self.mu > 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        if self.nu < 0:
            raise ValueError(f"nu must be non-negative, got {self.nu}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")
        for name, value in zip(self._fields, self):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        for name, value in (("alpha", self.alpha), ("|beta|", abs(self.beta))):
            if value >= 2.0**51:
                raise ValueError(f"{name} must be below 2**51, got {value}")

    @property
    def length(self) -> float:
        """Cylinder length L in units of R (requires nu > 0)."""
        if self.nu == 0.0:
            raise ValueError("infinite cylinder has no length")
        return math.pi / self.nu


def to_dimensionless(p: PhysicalParams) -> DimensionlessParams:
    """Form mu, nu, beta, alpha from lab-unit device parameters."""
    values = {"mass_eV": p.mass_eV, "radius_nm": p.radius_nm,
              "fermi_eV": p.fermi_eV, "b_field_T": p.b_field_T}
    if p.length_nm is not None:
        values["length_nm"] = p.length_nm
    return resolve_params(values)


# The source formulas only say "very short" (1 << nu) and
# "non-relativistic" (alpha << mu); these cut-offs are engineering choices.
_SHORT_NU_MIN = 10.0
_NONREL_ALPHA_OVER_MU = 0.1


def validate_regime(d: DimensionlessParams) -> frozenset[str]:
    """Classify the parameter point; returns the set of regime flags.

    short:      nu >= 10 and nu < alpha < 2 nu (single n column)
    ring-like:  nu > alpha (no longitudinal state fits below the Fermi level)
    non-relativistic: alpha <= mu / 10
    """
    flags = set()
    if d.nu >= _SHORT_NU_MIN and d.nu < d.alpha < 2.0 * d.nu:
        flags.add("short")
    if d.nu > d.alpha:
        flags.add("ring-like")
    if d.alpha <= _NONREL_ALPHA_OVER_MU * d.mu:
        flags.add("non-relativistic")
    return frozenset(flags)


# --- plain-text key=value configuration ---------------------------------

_PHYSICAL_KEYS = ("mass_eV", "radius_nm", "length_nm", "b_field_T", "fermi_eV")
_DIMLESS_KEYS = ("mu", "nu", "beta", "alpha")
PARAM_KEYS = _DIMLESS_KEYS + _PHYSICAL_KEYS

# each dimensionless quantity conflicts with the physical key that drives it
_CONFLICTS = {
    "mu": "mass_eV",
    "nu": "length_nm",
    "beta": "b_field_T",
    "alpha": "fermi_eV",
}


class ConfigError(ValueError):
    """Malformed or contradictory configuration."""


class RegimeError(ValueError):
    """A valid parameter point outside the regime a computation covers."""


class ResolutionError(ValueError):
    """Momentum grid too coarse to resolve a packet's phase at (t, z)."""

    def __init__(self, spacing: float, required: float, min_points: int,
                 max_points: int):
        self.spacing = spacing
        self.required = required
        self.min_points = min_points
        # above the cap no grid is accepted, and the count is the ceiling
        # of a float: %g keeps it exact below 10**6 and short above
        if min_points <= max_points:
            advice = f"use at least {min_points} points"
        else:
            advice = (f"no order up to the cap {max_points} resolves the "
                      f"reach, which needs {min_points:g} points")
        super().__init__(
            f"momentum grid spacing {spacing:.3e} exceeds the resolution "
            f"bound {required:.3e}; {advice}")


def parse_config_text(text: str) -> dict[str, float]:
    """Parse UTF-8 key=value lines; '#' starts a comment."""
    out: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in PARAM_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            out[key] = float(value.strip())
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad number for {key}: {value.strip()!r}") from exc
    return out


def resolve_params(values: dict[str, float]) -> DimensionlessParams:
    """Build DimensionlessParams from a mixed key=value mapping.

    Direct dimensionless keys take precedence; giving both a
    dimensionless key and the physical key that determines it is an
    error.  Physical keys require radius_nm and mass_eV to convert.
    """
    unknown = set(values) - set(PARAM_KEYS)
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")
    for dkey, pkey in _CONFLICTS.items():
        if dkey in values and pkey in values:
            raise ConfigError(f"give either {dkey} or {pkey}, not both")
    _check_physical(values)

    def _radius_nm() -> float:
        if "radius_nm" not in values:
            raise ConfigError("physical keys require radius_nm")
        return values["radius_nm"]

    if "mu" in values:
        mu = values["mu"]
    elif "mass_eV" in values:
        mu = values["mass_eV"] * _radius_nm() / HBARC_EV_NM
    else:
        raise ConfigError("need mu, or mass_eV with radius_nm")

    if "nu" in values:
        nu = values["nu"]
    elif "length_nm" in values:
        nu = math.pi * _radius_nm() / values["length_nm"]
    else:
        nu = 0.0

    if "beta" in values:
        beta = values["beta"]
    elif "b_field_T" in values:
        beta = values["b_field_T"] * _radius_nm() ** 2 * E_OVER_2HBAR_PER_NM2_T
    else:
        beta = 0.0

    if "alpha" in values:
        alpha = values["alpha"]
    elif "fermi_eV" in values:
        ef = values["fermi_eV"]
        if "mass_eV" not in values:
            raise ConfigError("fermi_eV requires mass_eV")
        alpha = _radius_nm() * math.sqrt(ef * (ef + 2.0 * values["mass_eV"])) / HBARC_EV_NM
    else:
        alpha = 0.0

    return DimensionlessParams(mu=mu, nu=nu, beta=beta, alpha=alpha)
