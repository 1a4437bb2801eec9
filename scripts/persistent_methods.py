#!/usr/bin/env python3
"""Compare the persistent-current method ladder across cylinder lengths.

Holds (mu, alpha, beta) fixed and scans nu from near the ring limit to
a very short cylinder, printing one CSV row per point with all five
method values so the crossover between regimes is visible.

Usage: python3 scripts/persistent_methods.py [--mu 250] [--alpha 50]
       [--beta 1e-4] [--nu-min 0.05] [--nu-max 60] [--points 40]
"""

import argparse
import csv
import math
import sys

from abcyl.fermi import persistent_all
from abcyl.params import DimensionlessParams


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mu", type=float, default=250.0)
    ap.add_argument("--alpha", type=float, default=50.0)
    ap.add_argument("--beta", type=float, default=1e-4)
    ap.add_argument("--nu-min", type=float, default=0.05)
    ap.add_argument("--nu-max", type=float, default=60.0)
    ap.add_argument("--points", type=int, default=40)
    args = ap.parse_args()

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["nu", "N_e", "exact", "linearized", "compact",
                     "short", "nonrel", "regime"])
    lo, hi = math.log(args.nu_min), math.log(args.nu_max)
    for i in range(args.points):
        nu = math.exp(lo + i * (hi - lo) / (args.points - 1))
        d = DimensionlessParams(mu=args.mu, nu=nu, beta=args.beta,
                                alpha=args.alpha)
        reps = persistent_all(d)
        writer.writerow([
            format(nu, ".6g"), reps["exact"].N_e,
            *(format(reps[m].value, ".17g")
              for m in ("exact", "linearized", "compact", "short", "nonrel")),
            "|".join(sorted(reps["exact"].flags)) or "-",
        ])
    return 0


if __name__ == "__main__":
    sys.exit(main())
