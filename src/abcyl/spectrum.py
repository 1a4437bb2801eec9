"""Single-particle energies on AB cylinders and the T=0 Fermi sea.

All energies are handled as the dimensionless product R*E:

    infinite:  R*E = sqrt(mu^2 + (kR)^2 + (lambda+beta)^2)
    finite:    R*E = sqrt(mu^2 + nu^2 n^2 + (lambda+beta)^2)

Every circular current is set by chi = d(R*E)/d(beta) = (lambda+beta)/(R*E).

Multiply by hbar c / R to recover a physical energy.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .params import (CheckedRecord, DimensionlessParams, RegimeError,
                     _check_half_odd)

__all__ = [
    "MAX_SEA_COLUMNS",
    "ModeSpec",
    "FermiSea",
    "energy_infinite",
    "energy_finite",
    "chi",
    "mode_energy",
    "largest_half_odd",
    "half_odd_count",
    "half_odd_run",
    "check_sea_columns",
    "enumerate_fermi_sea",
]

# Widest Fermi sea, in columns n, that enumerate_fermi_sea builds; the
# persistent sums cost tens of microseconds per column (seconds at the cap).
MAX_SEA_COLUMNS = 30_000

def _check_finite(d: DimensionlessParams) -> None:
    if d.nu <= 0.0:
        raise RegimeError("the finite cylinder needs nu > 0 (or length_nm)")


def _check_mode(n: int, lam: float, d: DimensionlessParams) -> None:
    """Refuse a finite-cylinder mode (n, lambda) that does not exist."""
    _check_finite(d)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_half_odd(lam)


class _ModeFields(NamedTuple):
    geometry: str                 # "infinite" | "finite"
    lam: float                    # half-odd-integer
    sigma: float                  # +1/2 or -1/2
    k: float | None = None        # kR, infinite geometry only
    n: int | None = None          # 1, 2, ..., finite geometry only


class ModeSpec(CheckedRecord, _ModeFields):
    """A single-particle mode: geometry, longitudinal quantum number,
    total angular momentum lambda and polarization sigma."""

    __slots__ = ()

    def _check(self):
        if self.geometry not in ("infinite", "finite"):
            raise ValueError(f"unknown geometry {self.geometry!r}")
        _check_half_odd(self.lam)
        if self.sigma not in (0.5, -0.5):
            raise ValueError(f"sigma must be +/-1/2, got {self.sigma}")
        if self.geometry == "infinite":
            if self.k is None or self.n is not None:
                raise ValueError("infinite mode takes k, not n")
        else:
            if self.n is None or self.k is not None:
                raise ValueError("finite mode takes n, not k")
            if self.n < 1:
                raise ValueError(f"n must be >= 1, got {self.n}")


def energy_infinite(k: float, lam: float, d: DimensionlessParams) -> float:
    """R*E for a plane-wave mode; k is the dimensionless product kR."""
    _check_half_odd(lam)
    return math.sqrt(d.mu**2 + k**2 + (lam + d.beta) ** 2)


def energy_finite(n: int, lam: float, d: DimensionlessParams) -> float:
    """R*E_{n,lambda} for a standing-wave mode, k_n R = nu*n."""
    _check_mode(n, lam, d)
    return math.sqrt(d.mu**2 + (d.nu * n) ** 2 + (lam + d.beta) ** 2)


def chi(n: int, lam: float, d: DimensionlessParams) -> float:
    """Shape function of the circular currents, in (-1, 1)."""
    _check_mode(n, lam, d)
    q = d.beta + lam
    return q / math.sqrt(d.mu**2 + (d.nu * n) ** 2 + q**2)


def mode_energy(mode: ModeSpec, d: DimensionlessParams) -> float:
    if mode.geometry == "infinite":
        return energy_infinite(mode.k, mode.lam, d)
    return energy_finite(mode.n, mode.lam, d)


def largest_half_odd(x: float) -> float | None:
    """Largest half-odd-integer <= x, or None if x < 1/2."""
    if x < 0.5:
        return None
    return math.floor(x - 0.5) + 0.5


class FermiSea(NamedTuple):
    """Occupied states at T=0: columns holds (n, lambda_lo, lambda_hi)
    for every nonempty column in ascending n, and column n occupies each
    half-odd-integer lambda from lambda_lo to lambda_hi."""

    columns: tuple[tuple[int, float, float], ...]

    @property
    def empty(self) -> bool:
        return not self.columns

    @property
    def N_e(self) -> int:
        return sum(int(hi - lo) + 1 for _, lo, hi in self.columns)

    @property
    def n_F(self) -> int:
        """Highest occupied column; 0 for the empty sea."""
        return self.columns[-1][0] if self.columns else 0

    @property
    def lambda_n(self) -> dict[int, float]:
        """Largest occupied |lambda| in each nonempty column."""
        return {n: max(abs(lo), abs(hi)) for n, lo, hi in self.columns}

    @property
    def lambda_F(self) -> float | None:
        """lambda_n of column 1, the first column of any nonempty sea."""
        if not self.columns:
            return None
        _, lo, hi = self.columns[0]
        return max(abs(lo), abs(hi))

    def states(self):
        """Yield every occupied (n, lambda), ascending n then lambda."""
        for n, lo, hi in self.columns:
            for lam in half_odd_run(lo, hi):
                yield n, lam

    def sum_lambda_n(self) -> float:
        return math.fsum(max(abs(lo), abs(hi)) for _, lo, hi in self.columns)


def _half_odd_ends(lo: float, hi: float) -> tuple[float, float]:
    """The first half-odd-integer >= lo and the last one <= hi.

    Bounds of magnitude 2**52 or more are refused: there lam + 1 is no
    longer the next half-odd-integer, and from 2**53 on it is lam itself.
    """
    if abs(lo) >= 2.0**52 or abs(hi) >= 2.0**52:
        raise ValueError(f"half-odd-integer run {lo}..{hi} reaches 2**52")
    first = math.floor(lo - 0.5) + 0.5
    if first < lo:
        first += 1.0
    last = math.ceil(hi + 0.5) - 0.5
    if last > hi:
        last -= 1.0
    return first, last


def half_odd_count(lo: float, hi: float) -> int:
    """How many half-odd-integers lie in [lo, hi]."""
    first, last = _half_odd_ends(lo, hi)
    return max(int(last - first) + 1, 0)


def half_odd_run(lo: float, hi: float):
    """Yield the half-odd-integers from the first one >= lo to hi."""
    lam, last = _half_odd_ends(lo, hi)
    while lam <= last:
        yield lam
        lam += 1.0


def check_sea_columns(d: DimensionlessParams) -> None:
    """RegimeError for nu <= 0 or a sea wider than MAX_SEA_COLUMNS.

    Column n holds a state while nu n <= sqrt(alpha^2 - delta^2), delta
    the least |lambda + beta| over half-odd lambda.
    """
    _check_finite(d)
    delta = abs(d.beta - 0.5 - round(d.beta - 0.5))
    extent = math.sqrt(max(d.alpha**2 - delta**2, 0.0)) / d.nu
    if extent > MAX_SEA_COLUMNS:
        # compared as a float: the extent overflows to inf as nu -> 0
        columns = math.ceil(extent) if math.isfinite(extent) else extent
        raise RegimeError(f"the Fermi sea spans {columns} columns (about "
                          f"alpha/nu); the cap is {MAX_SEA_COLUMNS}")


def enumerate_fermi_sea(d: DimensionlessParams) -> FermiSea:
    """The occupied (n, lambda) states at T=0, as per-column lambda runs.

    The sea holds the states with nu^2 n^2 + (lambda+beta)^2 <= alpha^2
    (equivalent to E <= E_F + M); boundary ties count as occupied.  The
    beta-free sea of the linearized methods is the sea of
    d._replace(beta=0.0).  check_sea_columns runs first.

    Column n occupies one run, |lambda+beta| <= sqrt(alpha^2 - nu^2 n^2);
    its ends are settled by the occupation test itself, so ties and sqrt
    rounding decide as a test of every state would.  alpha^2 - nu^2 n^2
    falls with n, so the first empty column ends the sea.  Cost is O(n_F).
    """
    check_sea_columns(d)

    a2 = d.alpha**2
    beta = d.beta
    columns: list[tuple[int, float, float]] = []

    for n in itertools.count(1):
        rem = a2 - (d.nu * n) ** 2
        if rem < 0.0:
            break
        # one step outside the ends sqrt(rem) gives, then inward to the
        # first lambda the occupation test itself accepts
        r = math.sqrt(rem)
        lo = math.ceil(-r - beta - 0.5) - 0.5
        hi = math.floor(r - beta - 0.5) + 1.5
        while lo <= hi and (lo + beta) ** 2 > rem:
            lo += 1.0
        while lo <= hi and (hi + beta) ** 2 > rem:
            hi -= 1.0
        if lo > hi:
            break
        columns.append((n, lo, hi))

    return FermiSea(columns=tuple(columns))
