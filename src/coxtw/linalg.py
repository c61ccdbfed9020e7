"""Exact rational linear algebra on tiny dense matrices.

Matrices are tuples of tuples of Fractions (or ints where exactness is
already guaranteed).  Everything here runs on rank <= 9 data, so the cubic
algorithms are fine and keeping the representation immutable lets callers
hash and cache freely.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = tuple[tuple[Fraction, ...], ...]


def det(a: Matrix) -> Fraction:
    n = len(a)
    m = [list(row) for row in a]
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            result = -result
        result *= m[col][col]
        inv = Fraction(1) / Fraction(m[col][col])
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return result


def solve(a: Matrix, b: Matrix) -> Matrix:
    """Solve a x = b for square invertible a and an n×m right-hand side b,
    all columns in one Gauss-Jordan pass.  Raises ZeroDivisionError if singular."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(x) for x in rhs]
         for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    return solve(a, [[1 if i == j else 0 for j in range(n)] for i in range(n)])
