#!/usr/bin/env python3
"""Saturation of the circular current with angular momentum.

Scans chi(n, lambda) over half-odd lambda and prints the distance to
the asymptotic value +/-1 next to the leading-order bound
(mu^2 + nu^2 n^2)/(2 lambda^2), confirming the approach rate.

Usage: python3 scripts/saturation_scan.py [--mu 1] [--nu 1] [--n 1]
       [--lmax 2000.5]
"""

import argparse
import csv
import sys

from abcyl.params import DimensionlessParams
from abcyl.spectrum import chi


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mu", type=float, default=1.0)
    ap.add_argument("--nu", type=float, default=1.0)
    ap.add_argument("--n", type=int, default=1)
    ap.add_argument("--lmax", type=float, default=2000.5)
    args = ap.parse_args()

    d = DimensionlessParams(mu=args.mu, nu=args.nu)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["lambda", "chi", "one_minus_chi", "bound"])
    lam = 0.5
    while lam <= args.lmax:
        c = chi(args.n, lam, d)
        bound = (d.mu**2 + (d.nu * args.n) ** 2) / (2.0 * lam**2)
        writer.writerow([lam, format(c, ".17g"),
                         format(1.0 - c, ".17g"), format(bound, ".17g")])
        lam = 2.0 * lam + 0.5   # geometric-ish ladder of half-odd values
    return 0


if __name__ == "__main__":
    sys.exit(main())
