#!/usr/bin/env python3
"""Propagation of a Gaussian packet along the infinite cylinder.

Prints the longitudinal current profile I3(z) at a few times together
with the conserved totals (norm, z-integrated flux, velocity
expectation), which should stay constant as the packet moves.

Usage: python3 scripts/packet_propagation.py [--mu 1] [--k0 1]
       [--width 0.5] [--lambda 0.5] [--times 0 2 5] [--korder 600]
"""

import argparse
import csv
import math
import sys

import numpy as np

from abcyl.cli import run_command
from abcyl.currents import (GaussianPacket, check_resolution,
                            longitudinal_current_packet_direct, packet_norm,
                            packet_total_flux, packet_velocity_expectation)
from abcyl.params import DimensionlessParams


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mu", type=float, default=1.0)
    ap.add_argument("--k0", type=float, default=1.0)
    ap.add_argument("--width", type=float, default=0.5)
    ap.add_argument("--lambda", dest="lam", type=float, default=0.5)
    ap.add_argument("--times", type=float, nargs="+", default=[0.0, 2.0, 5.0])
    ap.add_argument("--korder", type=int, default=600)
    args = ap.parse_args()

    d = DimensionlessParams(mu=args.mu)
    p = GaussianPacket(lam=args.lam, k0=args.k0, width=args.width,
                       order=args.korder)
    windows = [abs(t) + 8.0 / args.width for t in args.times]
    for t, window in zip(args.times, windows):
        # the profile spans 2 window, the norm's z range window + 10
        if not math.isfinite(2.0 * (window + 10.0)):
            raise ValueError(f"--times {t:g}: the z window |t| + 8/width = "
                             f"{window:.3g} is too wide to sample")
    profiles = [np.linspace(-window, window, 41) for window in windows]
    # refuse a grid that cannot resolve the profile or the flux's wider
    # window before any output, as abcyl packet does
    for t, window, zs in zip(args.times, windows, profiles):
        check_resolution(p, d, t, zs)
        check_resolution(p, d, t, [-window - 10.0, window + 10.0])
    v = packet_velocity_expectation(p, d)
    print(f"# velocity expectation = {v:.12g}", file=sys.stderr)

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["t", "z", "I3"])
    for t, window, zs in zip(args.times, windows, profiles):
        i3 = longitudinal_current_packet_direct(p, d, t, zs)
        for z, val in zip(zs, i3):
            writer.writerow([t, format(z, ".6g"), format(val, ".17g")])
        norm = packet_norm(p, d, t, window + 10.0)
        flux = packet_total_flux(p, d, t, window + 10.0)
        print(f"# t={t}: norm={norm:.12g} total_flux={flux:.12g}",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(run_command(main))
