"""Exact linear algebra on tiny dense integer matrices, whose entries are
read through `operator.index` (so a Fraction entry raises TypeError).

One fraction-free (Bareiss) elimination: every entry it writes is a minor of
the input, so each division is exact.  With no row swap its k-th pivot is
the k-th leading principal minor.
"""

from __future__ import annotations

from operator import index


def _eliminate(rows, swap: bool = True):
    """Eliminate the first len(rows) columns of the integer rows in place: as
    Gauss-Jordan, swapping rows where a pivot is zero, if swap is true, else
    below each pivot only.  Returns 1 and then the pivots, up to the first
    zero one, so the last is the determinant up to sign."""
    n, pivots = len(rows), [1]
    for k in range(n):
        if swap and not rows[k][k]:
            r = next((r for r in range(k + 1, n) if rows[r][k]), k)
            rows[k], rows[r] = rows[r], rows[k]
        p, prev, top = rows[k][k], pivots[-1], rows[k]
        pivots.append(p)
        if not p:
            break
        for i in range(0 if swap else k + 1, n):
            if i != k:
                f = rows[i][k]
                rows[i] = [(p * x - f * y) // prev for x, y in zip(rows[i], top)]
    return pivots


def leading_minors(a) -> tuple[int, ...]:
    """The leading principal minors of a, in order, up to the first zero one."""
    return tuple(_eliminate([list(map(index, row)) for row in a], swap=False)[1:])


def solve(a, b) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, X) with a·X = d·b and d = ±det a, for square a and n×m b, all
    columns in one elimination.  Raises ZeroDivisionError if a is singular."""
    rows = [[*map(index, row), *map(index, rhs)] for row, rhs in zip(a, b, strict=True)]
    n, d = len(rows), _eliminate(rows)[-1]
    if not d:
        raise ZeroDivisionError("singular matrix")
    # a is now d·I, so X is what is left of b
    return d, tuple(tuple(row[n:]) for row in rows)


def inverse(a) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, X) with a·X = d·I: d = ±det a and X = ±adj a."""
    n = len(a)
    return solve(a, [[int(i == j) for j in range(n)] for i in range(n)])
