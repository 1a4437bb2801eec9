"""Gauss-Legendre rules: the momentum rule of every packet and the z rule
of every spinor oracle, from numpy alone."""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["leggauss"]


# Newton passes that leggauss allows; every order from 1 to 2000 converges
# in at most 4.
_NEWTON_PASSES = 10


@functools.lru_cache(maxsize=None)
def leggauss(order: int):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton iteration on the three-term recurrence of P_{n-1}, P_n from
    Tricomi's asymptotic nodes (Hale & Townsend, SIAM J. Sci. Comput. 35,
    A652 (2013)) in O(order) memory, where numpy's leggauss solves an
    order x order eigenproblem.  Only the non-negative half is solved;
    the rule is its mirror image, so it is exactly symmetric and an odd
    order has an exact 0 node.  Each order is solved once per process,
    and the cached arrays are read-only.
    """
    if order < 1:
        raise ValueError(f"Gauss-Legendre order must be >= 1, got {order}")
    n = order
    theta = math.pi * (4.0 * np.arange(1, (n + 1) // 2 + 1) - 1.0) / (4 * n + 2)
    x = (1.0 - (n - 1) / (8.0 * n**3)
         - (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n**4)) * np.cos(theta)
    if n % 2:
        x[-1] = 0.0
    scratch = np.empty_like(x)
    for _ in range(_NEWTON_PASSES):
        p0, p1 = np.ones_like(x), x.copy()
        for j in range(1, n):
            # p0 <- P_{j+1} = ((2j+1) x P_j - j P_{j-1}) / (j+1), in place
            np.multiply(x, p1, out=scratch)
            scratch *= (2 * j + 1) / (j + 1)
            p0 *= j / (j + 1)
            np.subtract(scratch, p0, out=p0)
            p0, p1 = p1, p0
        one_minus_x2 = (1.0 - x) * (1.0 + x)
        dp = n * (p0 - x * p1) / one_minus_x2  # P_n'
        dx = p1 / dp
        x -= dx
        if np.max(np.abs(dx)) <= 2.0 * np.finfo(float).eps:
            break
    else:
        raise ArithmeticError(f"Gauss-Legendre order {order}: Newton did "
                              f"not converge in {_NEWTON_PASSES} passes")
    w = 2.0 / (one_minus_x2 * dp**2)
    half = n // 2
    nodes = np.concatenate([-x[:half], x[::-1]])
    weights = np.concatenate([w[:half], w[::-1]])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights
