"""T=0 persistent currents on finite AB cylinders.

Five method chains, from exact to most approximate:

    exact       sum of chi(n, lambda)/(2 pi) over the full sea (with beta)
    linearized  R*I = beta c / pi, c = sum of j(n, lambda) over lambda > 0
    compact     c ~= (sum of lambda_n) / sqrt(mu^2 + alpha^2)
    short       single-column cylinder, R*I = (beta/pi) sqrt((a^2-n^2)/(a^2+m^2))
    nonrel      R*I ~= (beta/pi) lambda_F/mu ~= (beta/pi) N_e/(2 mu)

The compact sums consume the exact half-odd-integer lambda_n from the
enumeration; the continuous boundary value is reported alongside but
never silently substituted.  Summation is ascending (n, lambda) with
error-free accumulation (math.fsum), so results are bit-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .currents import chi
from .params import DimensionlessParams, validate_regime
from .spectrum import FermiSea, enumerate_fermi_sea, largest_half_odd

__all__ = [
    "PersistentReport",
    "persistent_exact",
    "j_coeff",
    "c_coefficient_exact",
    "persistent_linearized",
    "c_compact",
    "persistent_compact",
    "IntegralSumEstimate",
    "sum_lambda_n",
    "persistent_short",
    "persistent_nonrel",
    "persistent_all",
]


@dataclass(frozen=True)
class PersistentReport:
    """One method's persistent current with its intermediate numbers."""

    method: str
    value: float                      # R*I, dimensionless
    N_e: int
    n_F: int = 0
    lambda_F: float | None = None
    c: float | None = None
    sum_lambda_n: float | None = None
    flags: frozenset[str] = field(default_factory=frozenset)
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"non-finite persistent current in {self.method}")
        if self.N_e < 0:
            raise ValueError("negative electron count")


def _sea_report(method: str, d: DimensionlessParams, sea: FermiSea,
                value: float, **fields) -> PersistentReport:
    """A sea method's report; an empty sea reports 0 and "empty-sea"."""
    flags = validate_regime(d)
    if sea.empty:
        return PersistentReport(method=method, value=0.0, N_e=0,
                                flags=flags | {"empty-sea"})
    return PersistentReport(
        method=method, value=value, N_e=sea.N_e, n_F=sea.n_F,
        lambda_F=sea.lambda_F, sum_lambda_n=sea.sum_lambda_n(), flags=flags,
        **fields)


def persistent_exact(d: DimensionlessParams,
                     sea: FermiSea | None = None) -> PersistentReport:
    """Exact sum of the mode circular currents over the occupied sea.

    No small-beta expansion anywhere: the sea uses the condition with
    the actual beta and chi is summed over both lambda signs.
    """
    sea = sea or enumerate_fermi_sea(d, "exact")
    total = math.fsum(chi(n, lam, d) for n, lam in sea.states())
    return _sea_report("exact", d, sea, total / (2.0 * math.pi))


def j_coeff(n: int, lam: float, d: DimensionlessParams) -> float:
    """Linear-response coefficient (mu^2+nu^2 n^2)/(mu^2+nu^2 n^2+lambda^2)^{3/2}."""
    if d.nu <= 0.0 or n < 1:
        raise ValueError("j_coeff needs nu > 0 and n >= 1")
    s = d.mu**2 + (d.nu * n) ** 2
    return s / (s + lam**2) ** 1.5


def c_coefficient_exact(d: DimensionlessParams,
                        sea: FermiSea | None = None) -> float:
    """c(mu, nu) = sum of j(n, lambda) over the occupied lambda > 0 states
    of the beta-free (quadratic) sea."""
    sea = sea or enumerate_fermi_sea(d, "quadratic")
    return math.fsum(j_coeff(n, lam, d) for n, lam in sea.states() if lam > 0)


def persistent_linearized(d: DimensionlessParams,
                          sea: FermiSea | None = None) -> PersistentReport:
    """First order in beta: R*I = beta c(mu, nu) / pi."""
    sea = sea or enumerate_fermi_sea(d, "quadratic")
    c = c_coefficient_exact(d, sea)
    return _sea_report("linearized", d, sea, d.beta * c / math.pi, c=c)


def c_compact(d: DimensionlessParams, sea: FermiSea | None = None) -> float:
    """Compact estimate c ~= (sum of exact lambda_n) / sqrt(mu^2+alpha^2)."""
    sea = sea or enumerate_fermi_sea(d, "quadratic")
    return sea.sum_lambda_n() / math.sqrt(d.mu**2 + d.alpha**2)


def persistent_compact(d: DimensionlessParams,
                       sea: FermiSea | None = None) -> PersistentReport:
    sea = sea or enumerate_fermi_sea(d, "quadratic")
    c = c_compact(d, sea)
    return _sea_report("compact", d, sea, d.beta * c / math.pi, c=c)


class IntegralSumEstimate(NamedTuple):
    """Sum-to-integral estimate of sum(lambda_n) next to the printed
    closed form, kept separate because the two disagree (only quadrature
    is ever asserted against).

    quadrature is int_0^{n_F} sqrt(nu^2 (n_F^2 - x^2) + 1/4) dx, now in
    closed form: n_F/4 + (c/2 nu) asin(nu n_F/sqrt(c)), c = nu^2 n_F^2 + 1/4.
    closed_form, the printed n_F (1 + pi n_F/nu)/4, tends to 1/nu^2 times
    that integral at large n_F.
    """

    quadrature: float
    closed_form: float
    n_F_continuous: float


def sum_lambda_n(d: DimensionlessParams) -> IntegralSumEstimate:
    """Sum over n of the per-column maximal angular momentum, in the
    continuum: the continuous n_F from the Fermi-surface identities, the
    integral int_0^{n_F} sqrt(nu^2 (n_F^2 - x^2) + 1/4) dx and the printed
    closed form n_F (1 + pi n_F / nu) / 4.  The exact sum is
    FermiSea.sum_lambda_n() of the beta-free (quadratic) sea.
    """
    if d.alpha**2 <= 0.25:
        return IntegralSumEstimate(0.0, 0.0, 0.0)
    n_F = math.sqrt(d.alpha**2 - 0.25) / d.nu
    c = d.nu**2 * n_F**2 + 0.25
    val = 0.25 * n_F + c / (2.0 * d.nu) * math.asin(d.nu * n_F / math.sqrt(c))
    closed = 0.25 * n_F * (1.0 + math.pi * n_F / d.nu)
    return IntegralSumEstimate(val, closed, n_F)


def persistent_short(d: DimensionlessParams) -> PersistentReport:
    """Single-column (very short cylinder) closed form.

    Valid for nu < alpha < 2 nu with nu >> 1, where only n = 1 fits
    under the Fermi level.  For nu > alpha no longitudinal state fits
    at all and the ring limit applies instead: nu -> 0 and alpha ->
    lambda_F, which is what the returned report then carries (with a
    note), rather than an unusable formula.
    """
    flags = validate_regime(d)
    notes: list[str] = []
    if d.nu > d.alpha:
        # ring substitution
        lam_F = largest_half_odd(d.alpha)
        if lam_F is None:
            return PersistentReport(method="short", value=0.0, N_e=0,
                                    flags=flags | {"empty-sea"},
                                    notes=("ring substitution: no state below "
                                           "the Fermi level",))
        value = (d.beta / math.pi) * lam_F / math.sqrt(lam_F**2 + d.mu**2)
        return PersistentReport(
            method="short", value=value, N_e=int(2 * lam_F + 1), n_F=0,
            lambda_F=lam_F, flags=flags,
            notes=("ring substitution applied: nu := 0, alpha := lambda_F",))
    if "short" not in flags:
        notes.append("outside the short-cylinder regime; formula applied anyway")
    lam2 = d.alpha**2 - d.nu**2
    lam_F_cont = math.sqrt(lam2)
    lam_F = largest_half_odd(lam_F_cont)
    value = (d.beta / math.pi) * math.sqrt(lam2 / (d.alpha**2 + d.mu**2))
    n_e = int(2 * lam_F + 1) if lam_F is not None else 0
    return PersistentReport(
        method="short", value=value, N_e=n_e, n_F=1, lambda_F=lam_F,
        sum_lambda_n=lam_F, flags=flags,
        notes=tuple(notes) + (f"continuous lambda_F = {lam_F_cont!r}",))


def persistent_nonrel(d: DimensionlessParams,
                      sea: FermiSea | None = None) -> PersistentReport:
    """Non-relativistic limit, both printed variants.

    value carries (beta/pi) N_e/(2 mu); the lambda_F variant
    (beta/pi) lambda_F/mu is reported in the notes.  lambda_F and N_e
    come from the exact enumeration.
    """
    sea = sea or enumerate_fermi_sea(d, "quadratic")
    if sea.empty:
        return _sea_report("nonrel", d, sea, 0.0)
    v_ne = (d.beta / math.pi) * sea.N_e / (2.0 * d.mu)
    v_lf = (d.beta / math.pi) * sea.lambda_F / d.mu
    return _sea_report("nonrel", d, sea, v_ne,
                       notes=(f"lambda_F variant: {v_lf!r}",))


def persistent_all(d: DimensionlessParams) -> dict[str, PersistentReport]:
    """All applicable methods, keyed by method tag; the three methods on
    the beta-free sea share one enumeration of it."""
    quadratic = enumerate_fermi_sea(d, "quadratic")
    return {
        "exact": persistent_exact(d),
        "linearized": persistent_linearized(d, quadratic),
        "compact": persistent_compact(d, quadratic),
        "short": persistent_short(d),
        "nonrel": persistent_nonrel(d, quadratic),
    }
