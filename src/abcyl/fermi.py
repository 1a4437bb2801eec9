"""T=0 persistent currents on finite AB cylinders.

Five method chains, from exact to most approximate:

    exact       sum of chi(n, lambda)/(2 pi) over the full sea (with beta)
    linearized  R*I = beta c / pi, c = sum of j(n, lambda) over lambda > 0
    compact     c ~= (sum of lambda_n) / sqrt(mu^2 + alpha^2)
    short       single-column cylinder, R*I = (beta/pi) sqrt((a^2-n^2)/(a^2+m^2))
    nonrel      R*I ~= (beta/pi) lambda_F/mu ~= (beta/pi) N_e/(2 mu)

The compact sums consume the exact half-odd-integer lambda_n from the
enumeration, never the continuous boundary value sqrt(alpha^2 - nu^2 n^2).
Only persistent_short reports a continuous value: its notes carry the
continuous lambda_F next to the half-odd lambda_F it uses.

The exact and linearized sums cost O(n_F), not O(N_e).  Column n
(s = mu^2 + nu^2 n^2) holds a unit-step run of q = lambda + beta, and
both summands have elementary antiderivatives: chi = q/sqrt(s+q^2)
integrates to sqrt(s+q^2), and j = s/(s+lambda^2)^(3/2) = chi' to chi.
Terms with |q| below a window Q(s) are summed explicitly; each tail
beyond it is summed by the midpoint Euler-Maclaurin formula

    sum of f(a..b) = F(b+1/2) - F(a-1/2) - [f']/24 + 7[f^(3)]/5760
                     - 31[f^(5)]/967680,

with all three corrections; _em_tail returns every term of a tail: with
G = sqrt(s+x^2) and h = G'' = chi' = j, the bracket of G (chi) or G' (j)
and the end differences of h, h'' and h^(4) (chi) or h', h^(3) and h^(5)
(j), from one Gegenbauer recurrence.  Q comes from a bound on the first
omitted term, |h^(m)(x)| <= s (m+2)!/2 (s+x^2)^(-(m+3)/2), and four such
terms at |x| >= Q - 1/2 are held to eps/16 of the column's sum of |terms|.
A column whose bound already holds at q = 0 has no explicit terms
(Q = 0): its whole run is one such sum.
A chi column with a window is first shifted by m = round(beta), which
leaves every q bitwise as it is and |b| = |beta - m| <= 1/2; its window
is then -w..w, summed in pairs chi(lambda+b) + chi(-lambda+b) =
4 s b lambda/(A C (a C + c A)), a, c = lambda +- b, A, C = sqrt(s+a^2),
sqrt(s+c^2).  These do not cancel, and neither do the tails: each
caller hands _em_tail the exact gap and span of the ends it pairs, and
[G], [G'] and [h] are formed from them, never as a difference of two
rounded ends.  Each column is built symmetrically (the -beta sea gives
exactly the negated terms), and every term is accumulated with math.fsum.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple

from .params import CheckedRecord, DimensionlessParams, validate_regime
from .spectrum import (FermiSea, _check_finite, _check_mode,
                       enumerate_fermi_sea, half_odd_run, largest_half_odd)

__all__ = [
    "METHODS",
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


class _ReportFields(NamedTuple):
    method: str
    value: float                      # R*I, dimensionless
    N_e: int
    n_F: int = 0
    lambda_F: float | None = None
    c: float | None = None
    sum_lambda_n: float | None = None
    flags: frozenset[str] = frozenset()
    notes: tuple[str, ...] = ()


class PersistentReport(CheckedRecord, _ReportFields):
    """One method's persistent current with its intermediate numbers."""

    __slots__ = ()

    def _check(self):
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


# B_2k(1/2)/(2k)!: over x = a, a+1, ..., b the midpoint Euler-Maclaurin
# formula is sum f(x) = F(b+1/2) - F(a-1/2) + sum_k _EM[k-1] [f^(2k-1)],
# the brackets taken from a-1/2 to b+1/2.  The last entry only bounds
# the first omitted term of a third-order sum.
_EM = (-1.0 / 24.0, 7.0 / 5760.0, -31.0 / 967680.0, 127.0 / 154828800.0)

# each column's truncation bound, as a share of its sum of |terms|
_EM_TOL = sys.float_info.epsilon / 16.0


def _em_tail(b: float, a: float, gap: float, span: float, s: float,
             odd: int) -> list[float]:
    """Terms whose sum is the Euler-Maclaurin tail from a to b of G^(odd+1),
    G = sqrt(s+x^2): [G^(odd)] and _EM[k] [h^(odd+2k)], k = 0, 1, 2, where
    h = G'' = chi' = j and [f] = f(b) - f(a); odd is 0 for chi, 1 for j.

    gap and span are b - a and b + a, exact where the rounded ends are
    not; [G], [G'] and [h] = -s [G] (G(a)^2 + G(b)^2 + G(a) G(b))/(G(a)
    G(b))^3 are formed from them and do not cancel.  The Gegenbauer
    recurrence h^(m+1) = -((2m+3) x h^(m) + m(m+2) h^(m-1))/(s+x^2) gives
    the rest.  Swapping the ends (and negating gap) negates every term.
    """
    xb, xa = s + b * b, s + a * a
    gb, ga = math.sqrt(xb), math.sqrt(xa)
    rb, ra = 1.0 / xb, 1.0 / xa
    b0, a0 = s * rb / gb, s * ra / ga
    b1, a1 = -3.0 * b * b0 * rb, -3.0 * a * a0 * ra
    b2, a2 = -(5.0 * b * b1 + 3.0 * b0) * rb, -(5.0 * a * a1 + 3.0 * a0) * ra
    b3, a3 = -(7.0 * b * b2 + 8.0 * b1) * rb, -(7.0 * a * a2 + 8.0 * a1) * ra
    b4, a4 = -(9.0 * b * b3 + 15.0 * b2) * rb, -(9.0 * a * a3 + 15.0 * a2) * ra
    if odd:
        b5, a5 = (-(11.0 * b * b4 + 24.0 * b3) * rb,
                  -(11.0 * a * a4 + 24.0 * a3) * ra)
        return [s * gap * span / (ga * gb * (b * ga + a * gb)),
                _EM[0] * (b1 - a1), _EM[1] * (b3 - a3), _EM[2] * (b5 - a5)]
    g = gap * span / (gb + ga)
    return [g, _EM[0] * (-s * g * ((ga * ga + gb * gb) + ga * gb)
                         / (ga * gb) ** 3),
            _EM[1] * (b2 - a2), _EM[2] * (b4 - a4)]


# 2 |_EM[3]| (m+2)! and 1/(m+3) of _window, for m = 6 and m = 7
_WINDOW = tuple((2.0 * abs(_EM[3]) * math.factorial(m + 2), 1.0 / (m + 3))
                for m in (6, 7))


def _window(s: float, tol: float, odd: int) -> float:
    """Explicit window of a third-order Euler-Maclaurin column sum: 0, or
    some Q >= 1.

    The first omitted term at an end x is _EM[3] f^(7)(x), and
    f^(7) = h^(m) with h = chi' = j and m = 6 + odd (odd as in
    _em_tail).  h^(m)(x) = (-1)^m m! C_m(t) s (s+x^2)^(-(m+3)/2),
    with t = x/sqrt(s+x^2) and C_m the Gegenbauer polynomial of index
    3/2, and |C_m(t)| <= C_m(1) = (m+1)(m+2)/2, so
    |h^(m)(x)| <= s (m+2)!/2 (s+x^2)^(-(m+3)/2).  Q keeps four such
    terms, at ends |x| >= Q - 1/2, within tol; that holds wherever
    s + x^2 >= w^2.  If w^2 <= s it holds at x = 0 already, and the
    window is 0: the column has no explicit terms.
    """
    scale, power = _WINDOW[odd]
    w = (scale * s / tol) ** power
    if w * w <= s:
        return 0.0
    return max(0.5 + math.sqrt(w * w - s), 1.0)


def _chi_column(lo: float, hi: float, beta: float, s: float) -> list[float]:
    """Terms whose sum is chi summed over the column run lo..hi.

    Mirroring the run and beta (lo, hi, beta -> -hi, -lo, -beta) negates
    every term exactly.
    """
    half = 0.5 * (hi - lo + 1.0)
    tol = _EM_TOL * 2.0 * half**2 / (math.sqrt(s + half**2) + math.sqrt(s))
    bound = _window(s, tol, 0)
    terms = []
    if bound > 0.0:
        # lambda + m and beta - m give bitwise the same q; now |beta| <= 1/2
        m = round(beta)
        lo, hi, beta = lo + m, hi + m, beta - m
        if (hi + lo) + 2.0 * beta == 0.0:
            return []  # the run's q pair off as q, -q: it sums to exactly 0
        # the symmetric window -w..w keeps every |q| < bound; its +-lambda
        # pairs chi(a) - chi(c), a, c = lambda +- beta, have no cancellation
        w = min(math.ceil(bound + abs(beta) - 0.5) - 0.5, hi, -lo)
        for lam in half_odd_run(0.5, w):
            a, c = lam + beta, lam - beta
            ra, rc = math.sqrt(s + a * a), math.sqrt(s + c * c)
            terms.append(4.0 * s * beta * lam / (ra * rc * (a * rc + c * ra)))
        if w == hi or w == -lo:
            # a tail is empty; in a sea the other holds at most one state
            for lam in (*half_odd_run(lo, -w - 1.0),
                        *half_odd_run(w + 1.0, hi)):
                q = beta + lam
                terms.append(q / math.sqrt(s + q**2))
            return terms
    # sqrt(s+q^2) over the run's outer ends, less over the window's inner
    # ends; with no window the outer pair spans the whole run
    terms += _em_tail((beta + hi) + 0.5, 0.5 - (beta + lo),
                      (hi + lo) + 2.0 * beta, hi - lo + 1.0, s, 0)
    if bound == 0.0:
        return terms
    return terms + _em_tail(0.5 - (beta - w), (beta + w) + 0.5, -2.0 * beta,
                            2.0 * w + 1.0, s, 0)


def _j_column(hi: float, s: float) -> list[float]:
    """Terms whose sum is j summed over lambda = 1/2..hi."""
    tol = _EM_TOL * hi / math.sqrt(s + hi**2)
    bound = _window(s, tol, 1)
    if bound == 0.0:
        # no explicit terms: one Euler-Maclaurin sum spans the whole run
        terms, a = [], 0.0
    else:
        lam_r = math.ceil(bound - 0.5) + 0.5
        terms = [s / (s + lam**2) ** 1.5
                 for lam in half_odd_run(0.5, min(lam_r - 1.0, hi))]
        if lam_r > hi:
            return terms
        a = lam_r - 0.5
    b = hi + 0.5
    return terms + _em_tail(b, a, b - a, b + a, s, 1)


def persistent_exact(d: DimensionlessParams) -> PersistentReport:
    """Exact sum of the mode circular currents over the occupied sea.

    No small-beta expansion anywhere: the sea uses the condition with
    the actual beta and chi is summed over both lambda signs, column by
    column in closed form (see the module docstring).
    """
    sea = enumerate_fermi_sea(d)
    terms = []
    for n, lo, hi in sea.columns:
        terms += _chi_column(lo, hi, d.beta, d.mu**2 + (d.nu * n) ** 2)
    return _sea_report("exact", d, sea, math.fsum(terms) / (2.0 * math.pi))


def j_coeff(n: int, lam: float, d: DimensionlessParams) -> float:
    """Linear-response coefficient (mu^2+nu^2 n^2)/(mu^2+nu^2 n^2+lambda^2)^{3/2}."""
    _check_mode(n, lam, d)
    s = d.mu**2 + (d.nu * n) ** 2
    return s / (s + lam**2) ** 1.5


@functools.lru_cache(maxsize=1)
def _beta_free_sea(nu: float, alpha: float) -> FermiSea:
    """The beta-free sea that linearized, compact and nonrel expand
    around; the last one built is kept, so the methods of one request,
    and the points of a beta or mu sweep, share it."""
    # nu^2 n^2 + lambda^2 <= alpha^2 never reads mu: any valid mu will do
    return enumerate_fermi_sea(DimensionlessParams(1.0, nu, 0.0, alpha))


def c_coefficient_exact(d: DimensionlessParams) -> float:
    """c(mu, nu) = sum of j(n, lambda) over the occupied lambda > 0 states
    of the beta-free sea."""
    terms = []
    for n, _, hi in _beta_free_sea(d.nu, d.alpha).columns:
        terms += _j_column(hi, d.mu**2 + (d.nu * n) ** 2)
    return math.fsum(terms)


def persistent_linearized(d: DimensionlessParams) -> PersistentReport:
    """First order in beta: R*I = beta c(mu, nu) / pi."""
    c = c_coefficient_exact(d)
    return _sea_report("linearized", d, _beta_free_sea(d.nu, d.alpha),
                       d.beta * c / math.pi, c=c)


def c_compact(d: DimensionlessParams) -> float:
    """Compact estimate c ~= (sum of exact lambda_n) / sqrt(mu^2+alpha^2)
    over the beta-free sea; 0 for an empty one, where the root may vanish."""
    sea = _beta_free_sea(d.nu, d.alpha)
    if sea.empty:
        return 0.0
    return sea.sum_lambda_n() / math.sqrt(d.mu**2 + d.alpha**2)


def persistent_compact(d: DimensionlessParams) -> PersistentReport:
    c = c_compact(d)
    return _sea_report("compact", d, _beta_free_sea(d.nu, d.alpha),
                       d.beta * c / math.pi, c=c)


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
    FermiSea.sum_lambda_n() of the beta-free sea.
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
    note), rather than an unusable formula.  When no half-odd lambda
    fits below lambda_F, either way, it reports 0 and "empty-sea", as
    the sea methods do.  It builds no sea, so it has no column cap, but
    like them it needs nu > 0.
    """
    _check_finite(d)
    flags = validate_regime(d)
    ring = d.nu > d.alpha
    lam2 = d.alpha**2 - d.nu**2
    lam_F_cont = d.alpha if ring else math.sqrt(lam2)
    lam_F = largest_half_odd(lam_F_cont)
    if lam_F is None:
        return PersistentReport(
            method="short", value=0.0, N_e=0, flags=flags | {"empty-sea"},
            notes=(("ring substitution: " if ring else "")
                   + "no state below the Fermi level",))
    if ring:
        value = (d.beta / math.pi) * lam_F / math.sqrt(lam_F**2 + d.mu**2)
        return PersistentReport(
            method="short", value=value, N_e=int(2 * lam_F + 1), n_F=0,
            lambda_F=lam_F, flags=flags,
            notes=("ring substitution applied: nu := 0, alpha := lambda_F",))
    notes: list[str] = []
    if "short" not in flags:
        notes.append("outside the short-cylinder regime; formula applied anyway")
    value = (d.beta / math.pi) * math.sqrt(lam2 / (d.alpha**2 + d.mu**2))
    return PersistentReport(
        method="short", value=value, N_e=int(2 * lam_F + 1), n_F=1,
        lambda_F=lam_F, sum_lambda_n=lam_F, flags=flags,
        notes=tuple(notes) + (f"continuous lambda_F = {lam_F_cont!r}",))


def persistent_nonrel(d: DimensionlessParams) -> PersistentReport:
    """Non-relativistic limit, both printed variants.

    value carries (beta/pi) N_e/(2 mu); the lambda_F variant
    (beta/pi) lambda_F/mu is reported in the notes.  lambda_F and N_e
    come from the exact enumeration.
    """
    sea = _beta_free_sea(d.nu, d.alpha)
    if sea.empty:
        return _sea_report("nonrel", d, sea, 0.0)
    v_ne = (d.beta / math.pi) * sea.N_e / (2.0 * d.mu)
    v_lf = (d.beta / math.pi) * sea.lambda_F / d.mu
    return _sea_report("nonrel", d, sea, v_ne,
                       notes=(f"lambda_F variant: {v_lf!r}",))


# persistent_all's keys; persistent_<tag> computes each one alone
METHODS = ("exact", "linearized", "compact", "short", "nonrel")


def persistent_all(d: DimensionlessParams) -> dict[str, PersistentReport]:
    """All applicable methods, keyed by method tag."""
    return {
        "exact": persistent_exact(d),
        "linearized": persistent_linearized(d),
        "compact": persistent_compact(d),
        "short": persistent_short(d),
        "nonrel": persistent_nonrel(d),
    }
