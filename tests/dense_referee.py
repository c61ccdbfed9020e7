"""Referee kernels for the tests: plain Fraction Gaussian elimination.

These are the textbook algorithms `coxtw.linalg` replaced with one
fraction-free elimination, kept here so that the kernel and everything built
on it are checked against code that shares none of it.
"""

from fractions import Fraction


def det(a):
    n = len(a)
    m = [[Fraction(x) for x in row] for row in a]
    result = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            result = -result
        result *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                for c in range(col, n):
                    m[r][c] -= factor * m[col][c]
    return result


def solve(a, b):
    """x with a x = b, by Gauss-Jordan over all columns of b; ZeroDivisionError if a is singular."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(x) for x in rhs]
         for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return tuple(tuple(row[n:]) for row in m)


def inverse(a):
    n = len(a)
    return solve(a, [[int(i == j) for j in range(n)] for i in range(n)])


def leading_minors(a):
    """Every leading principal minor, each a determinant of its own, up to the first zero."""
    out = []
    for t in range(1, len(a) + 1):
        out.append(det([row[:t] for row in a[:t]]))
        if not out[-1]:
            break
    return tuple(out)
