"""Relativistic Dirac fermions on ideal Aharonov-Bohm cylinders.

Exact mode spectra, spinor modes, circular and longitudinal currents,
and T=0 persistent currents for charged fermions confined to a thin
cylindrical surface threaded by a uniform magnetic field, in both the
infinite and finite (hard-wall) geometries.

Every closed-form observable ships with an independent brute-force
oracle (spinor-bilinear quadrature); ``abcyl verify`` runs the invariant
suites from the command line.
"""

from .currents import (GaussianPacket, MixedState, MomentumRule,
                       ResolutionError, TabulatedPacket, chi,
                       circular_current_mode,
                       circular_current_mode_quadrature,
                       circular_current_packet,
                       longitudinal_current_packet_direct,
                       longitudinal_current_packet_formula, packet_energy,
                       packet_norm, packet_polarization, packet_total_flux,
                       packet_velocity_expectation, packet_zprofile)
from .fermi import (PersistentReport, persistent_all, persistent_compact,
                    persistent_exact, persistent_linearized,
                    persistent_nonrel, persistent_short, sum_lambda_n)
from .params import (ConfigError, DimensionlessParams, PhysicalParams,
                     parse_config_text, resolve_params, to_dimensionless,
                     validate_regime)
from .spectrum import (FermiSea, ModeSpec, energy_finite, energy_infinite,
                       enumerate_fermi_sea, mode_energy)
from .spinors import (STANDARD_GAMMAS, GammaSet, QuadratureRule,
                      current_density, dirac_residual, eval_mode,
                      inner_product, k_operator_apply, mode_components)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DimensionlessParams", "PhysicalParams",
    "parse_config_text", "resolve_params", "to_dimensionless",
    "validate_regime",
    "FermiSea", "ModeSpec", "energy_finite", "energy_infinite",
    "enumerate_fermi_sea", "mode_energy",
    "STANDARD_GAMMAS", "GammaSet", "QuadratureRule",
    "current_density", "dirac_residual", "eval_mode", "inner_product",
    "k_operator_apply", "mode_components",
    "GaussianPacket", "MixedState", "MomentumRule", "ResolutionError",
    "TabulatedPacket", "chi", "circular_current_mode",
    "circular_current_mode_quadrature", "circular_current_packet",
    "longitudinal_current_packet_direct",
    "longitudinal_current_packet_formula", "packet_energy", "packet_norm",
    "packet_polarization", "packet_total_flux",
    "packet_velocity_expectation", "packet_zprofile",
    "PersistentReport", "persistent_all", "persistent_compact",
    "persistent_exact", "persistent_linearized", "persistent_nonrel",
    "persistent_short", "sum_lambda_n",
    "__version__",
]
