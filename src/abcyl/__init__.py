"""Relativistic Dirac fermions on ideal Aharonov-Bohm cylinders.

Exact mode spectra, spinor modes, circular and longitudinal currents,
and T=0 persistent currents for charged fermions confined to a thin
cylindrical surface threaded by a uniform magnetic field, in both the
infinite and finite (hard-wall) geometries.

Every closed-form observable ships with an independent brute-force
oracle (spinor-bilinear quadrature); ``abcyl verify`` runs the invariant
suites from the command line.
"""

__version__ = "0.1.0"
