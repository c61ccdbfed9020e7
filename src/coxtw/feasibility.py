"""Exact cone membership for the 2-closure checks.

solve_nonneg returns one x >= 0 with A x = b, or None, for A of at most two
columns: does b lie in the cone of two roots?  Its one caller is
`biclosed.cone_contains`, which the cone table of the closure checks asks
only of the roots in each pair's plane.  Integers decide, by Cramer's rule
on a nonzero 2×2 minor, else by a ray test on each column alone; a Fraction
is built only for the answer.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from operator import mul

from .errors import DomainError


def _candidates(cols, b):
    """Pairs (x, d) of integers, x >= 0 and d > 0: the only x/d that can solve."""
    if len(cols) == 2:
        g, h = cols
        for p, q in combinations(range(len(b)), 2):
            d = g[p] * h[q] - g[q] * h[p]
            if d:  # independent columns: the one solution, if nonnegative
                x = (b[p] * h[q] - b[q] * h[p], g[p] * b[q] - g[q] * b[p])
                if min(x[0] * d, x[1] * d) >= 0:
                    yield [abs(v) for v in x], abs(d)
                return
    # rank <= 1: b is a nonnegative multiple of one column alone, or zero
    for j, col in enumerate(cols):
        p = next((p for p, c in enumerate(col) if c), None)
        if p is not None and b[p] * col[p] >= 0:
            yield [abs(b[p]) if i == j else 0 for i in range(len(cols))], abs(col[p])
    yield [0] * len(cols), 1


def solve_nonneg(rows, rhs) -> list[Fraction] | None:
    cols = list(zip(*rows))
    if len(cols) > 2 or len(rows) != len(rhs):
        raise DomainError(f"cone membership takes at most two columns and one value per "
                          f"row, not a {len(rows)}×{len(cols)} system with {len(rhs)} values")
    for x, d in _candidates(cols, rhs):
        if all(d * t == sum(map(mul, x, row)) for t, row in zip(rhs, rows)):
            return [Fraction(v, d) for v in x]
    return None
