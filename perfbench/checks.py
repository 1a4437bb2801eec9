"""Output checks for benchmark requests.

Every request is checked by physics that the benchmark recomputes on its
own (a vectorized Fermi-sea sum, the packet norm), independent of the seed.
Byte-level stability is checked separately against reference digests
recorded for the default seed (reference_digests.json).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from workloads import Request

REFERENCE_FILE = Path(__file__).with_name("reference_digests.json")

PERSISTENT_RTOL = 1e-12
# a chi computed by numpy and by math may differ in its last bits; summed
# over the sea that allows TERM_ULPS * eps * sum|chi| / (2 pi) of absolute
# difference, which only matters where the current crosses zero
TERM_ULPS = 4
NORM_TOL = 1e-8


class CheckError(Exception):
    """An output that contradicts the physics the benchmark recomputes."""


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def load_reference() -> dict[str, str]:
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def _opts(argv: tuple[str, ...]) -> dict[str, str]:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)
            if argv[i].startswith("--")}


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))[1:]


def _close(got: float, want: float, rtol: float, what: str,
           atol: float = 0.0) -> None:
    if not abs(got - want) <= rtol * abs(want) + atol:
        raise CheckError(f"{what}: got {got!r}, the benchmark's sum {want!r}")


def persistent_exact_sum(mu: float, nu: float, beta: float, alpha: float):
    """R*I of the exact Fermi sea, its size N_e and the absolute rounding
    allowance of the sum, from one numpy sum of chi(n, lambda)/(2 pi)
    over the occupied (n, lambda) grid."""
    n = np.arange(1, math.floor(alpha / nu) + 2, dtype=float)[:, None]
    half = np.arange(0.5, alpha + abs(beta) + 1.0, 1.0)
    lam = np.concatenate([-half[::-1], half])[None, :]
    q = beta + lam
    kn2 = (nu * n) ** 2
    occupied = q**2 <= alpha**2 - kn2
    chi = q / np.sqrt(mu**2 + kn2 + q**2)
    chi = np.broadcast_to(chi, occupied.shape)[occupied]
    atol = TERM_ULPS * np.finfo(float).eps * float(np.abs(chi).sum()) / (2.0 * math.pi)
    return math.fsum(chi.tolist()) / (2.0 * math.pi), int(occupied.sum()), atol


def _check_persistent(req: Request, text: str) -> None:
    o = _opts(req.argv)
    row = next(r for r in _rows(text) if r[0] == "exact")
    value, n_e = float(row[1]), int(row[2])
    want, want_n, atol = persistent_exact_sum(
        float(o["mu"]), float(o["nu"]), float(o["beta"]), float(o["alpha"]))
    if n_e != want_n:
        raise CheckError(f"N_e = {n_e}, the benchmark's sea has {want_n}")
    _close(value, want, PERSISTENT_RTOL, "persistent exact", atol)


def _check_sweep(req: Request, text: str) -> None:
    """A beta sweep of persistent_exact."""
    o = _opts(req.argv)
    rows = _rows(text)
    if len(rows) != int(o["steps"]):
        raise CheckError(f"{len(rows)} sweep rows")
    for x, y in rows:
        x, y = float(x), float(y)
        want, _, atol = persistent_exact_sum(float(o["mu"]), float(o["nu"]), x,
                                             float(o["alpha"]))
        _close(y, want, PERSISTENT_RTOL, f"persistent exact at beta={x}", atol)


def _check_packet(req: Request, text: str) -> None:
    rows = _rows(text)
    n_i3 = sum(1 for r in rows if r[0] == "I3")
    if n_i3 != int(_opts(req.argv)["zsteps"]):
        raise CheckError(f"{n_i3} I3 rows")
    norm = float(next(r for r in rows if r[0] == "norm")[2])
    if not abs(norm - 1.0) <= NORM_TOL:
        raise CheckError(f"packet norm {norm!r} is not 1 within {NORM_TOL}")


def _check_verify(req: Request, text: str) -> None:
    rows = _rows(text)
    failed = [r[0] for r in rows if r[3] != "True"]
    if len(rows) != 12 or failed:
        raise CheckError(f"{len(rows)} suites, failed: {failed}")


_CHECKS = {
    "persistent": _check_persistent,
    "sweep": _check_sweep,
    "packet": _check_packet,
    "verify": _check_verify,
}


def check(req: Request, code: int, stdout: bytes) -> str | None:
    """None when the request exited 0 with a right output, else why not."""
    if code != 0:
        return f"exit code {code}"
    try:
        _CHECKS[req.command](req, stdout.decode("utf-8"))
    except CheckError as exc:
        return str(exc)
    except (ValueError, IndexError, KeyError, StopIteration) as exc:
        return f"unreadable output: {exc!r}"
    return None
