"""Exact linear algebra on tiny dense matrices (rows of ints or Fractions).

Each row is scaled to integers, and one fraction-free (Bareiss) Gauss-Jordan
elimination runs on them: every entry it writes is a minor of the input, so
each division is exact, and a Fraction is built only for the answer.  With
no row swap its k-th pivot is the k-th leading principal minor.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

Matrix = tuple[tuple[Fraction, ...], ...]


def _eliminate(rows, swap: bool = True):
    """Eliminate the first len(rows) columns of the integer rows in place,
    above and below each pivot.  Returns 1 and then the pivots, up to the
    first zero one, so the last is the determinant up to sign; and the sign
    of the row swaps (made only if swap is true, where a pivot is zero)."""
    n, sign, pivots = len(rows), 1, [1]
    for k in range(n):
        if swap and not rows[k][k]:
            r = next((r for r in range(k + 1, n) if rows[r][k]), k)
            if r != k:
                rows[k], rows[r], sign = rows[r], rows[k], -sign
        p, prev, top = rows[k][k], pivots[-1], rows[k]
        pivots.append(p)
        if not p:
            break
        for i, row in enumerate(rows):
            if i != k:
                f = row[k]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
    return pivots, sign


def _integer_rows(a, b=None):
    """The rows of a, each joined with that of b, scaled to integers by the
    lcm of its denominators; and the list of those scales."""
    rows = [[*row, *b[i]] if b else list(row) for i, row in enumerate(a)]
    scales = [lcm(*(x.denominator for x in row)) for row in rows]
    return [[x.numerator * (m // x.denominator) for x in row]
            for row, m in zip(rows, scales)], scales


def leading_minors(a) -> tuple[Fraction, ...]:
    """The leading principal minors of a, in order, up to the first zero one."""
    rows, scales = _integer_rows(a)
    pivots = _eliminate(rows, swap=False)[0]
    return tuple(Fraction(pivots[t], prod(scales[:t])) for t in range(1, len(pivots)))


def det(a: Matrix) -> Fraction:
    rows, scales = _integer_rows(a)
    pivots, sign = _eliminate(rows)
    return Fraction(sign * pivots[-1], prod(scales))


def solve(a: Matrix, b: Matrix) -> Matrix:
    """Solve a x = b for square invertible a and an n×m right-hand side b,
    all columns in one elimination.  Raises ZeroDivisionError if singular."""
    rows, _ = _integer_rows(a, b)
    n, d = len(rows), _eliminate(rows)[0][-1]
    if not d:
        raise ZeroDivisionError("singular matrix")
    # a is now d·I, so each solution entry is one quotient
    return tuple(tuple(Fraction(x, d) for x in row[n:]) for row in rows)


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    return solve(a, [[1 if i == j else 0 for j in range(n)] for i in range(n)])
