"""Seeded request mixes for the abcyl benchmark.

A workload is a list of cycles; each cycle holds a fixed set of request
classes in a seeded order with seeded parameters.  The benchmark always
runs whole cycles, so the share of each request class is the same for
every seed and run length, and the per-request percentiles do not jump
between classes from one seed to the next.  The seed only shapes the
argv lists; the program sees nothing else.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("persistent-dense", "packet-verify")


@dataclass(frozen=True)
class Request:
    """One CLI invocation: argv after the program name."""

    argv: tuple[str, ...]

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _num(x: float) -> str:
    return repr(round(x, 6))


# 18 steps make the sweep last about as long as the alpha=500 persistent
# request, so per-request times form one cluster and the median does not
# sit in the gap between two
def _persistent_dense_cycle(rng: random.Random) -> list[Request]:
    beta = rng.uniform(0.01, 0.49)
    start, stop = rng.uniform(0.01, 0.24), rng.uniform(0.26, 0.49)
    return [
        Request(("persistent", "--mu", "250", "--nu", "1", "--alpha", "500",
                 "--beta", _num(beta))),
        Request(("sweep", "--mu", "250", "--nu", "1", "--alpha", "200",
                 "--param", "beta", "--start", _num(start), "--stop", _num(stop),
                 "--observable", "persistent_exact", "--steps", "18")),
    ]


def _packet(rng: random.Random, korder: int) -> Request:
    return Request(("packet", "--mu", "1",
                    "--k0", _num(rng.uniform(0.0, 2.0)),
                    "--width", _num(rng.uniform(0.4, 0.7)),
                    "--lambda", repr(rng.choice((-0.5, 0.5, 1.5))),
                    "--t", _num(rng.uniform(0.0, 5.0)),
                    "--zsteps", "21", "--korder", str(korder)))


# four korder-400 requests per korder-800 one and one verify keep the
# median and the tail inside the korder-400 cluster for any run of 12 to
# 30 requests; the korder-800 and verify costs show in requests_per_s and
# cpu_s_per_request.  verify is the workload's spinors and verify layer.
def _packet_verify_cycle(rng: random.Random) -> list[Request]:
    return [*(_packet(rng, 400) for _ in range(4)), _packet(rng, 800),
            Request(("verify", "--seed", str(rng.randint(0, 3))))]


_CYCLES = {
    "persistent-dense": _persistent_dense_cycle,
    "packet-verify": _packet_verify_cycle,
}


def cycles(workload: str, seed: int, count: int) -> list[list[Request]]:
    """The first `count` cycles of `workload` for `seed`, each shuffled."""
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for _ in range(count):
        cycle = _CYCLES[workload](rng)
        rng.shuffle(cycle)
        out.append(cycle)
    return out
