"""Exact rational feasibility for small cone-membership questions.

solve_nonneg decides whether A x = b has a solution with x >= 0, returning
one such x or None.  It is a phase-1 simplex over Fractions with Bland's
rule, which terminates without any degeneracy tricks.  Its only caller is
`biclosed.cone_contains`, which asks whether a root lies in the cone of two
roots, so problems are tiny and no effort is spent on sparsity.
"""

from __future__ import annotations

from fractions import Fraction


def solve_nonneg(
    rows: Sequence[Sequence], rhs: Sequence
) -> Optional[list[Fraction]]:
    m = len(rows)
    if m == 0:
        return []
    n = len(rows[0])
    tab = [[Fraction(x) for x in row] for row in rows]
    b = [Fraction(x) for x in rhs]
    for i in range(m):
        if b[i] < 0:
            tab[i] = [-x for x in tab[i]]
            b[i] = -b[i]

    # Columns 0..n-1 are the original variables, n..n+m-1 the artificials.
    for i in range(m):
        tab[i].extend(Fraction(1) if j == i else Fraction(0) for j in range(m))
    basis = [n + i for i in range(m)]

    # Objective: minimize the sum of artificials.  cost[j] holds the reduced
    # cost, cost_b the current (negated) objective value.
    total = n + m
    cost = [Fraction(0)] * total
    cost_b = Fraction(0)
    for i in range(m):
        for j in range(total):
            cost[j] -= tab[i][j]
        cost_b -= b[i]

    while True:
        enter = next((j for j in range(total) if cost[j] < 0), None)
        if enter is None:
            break
        # Bland: among rows with tab[i][enter] > 0, pick the one whose basic
        # variable has the smallest index, after the min-ratio filter.
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = b[i] / tab[i][enter]
                if best is None or ratio < best[0] or (
                    ratio == best[0] and basis[i] < basis[best[1]]
                ):
                    best = (ratio, i)
        if best is None:
            # Unbounded phase-1 cannot happen (objective is bounded below by
            # zero), but guard anyway.
            return None
        _, row = best
        piv = tab[row][enter]
        tab[row] = [x / piv for x in tab[row]]
        b[row] /= piv
        for i in range(m):
            if i != row and tab[i][enter]:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[row])]
                b[i] -= f * b[row]
        if cost[enter]:
            f = cost[enter]
            cost = [x - f * y for x, y in zip(cost, tab[row])]
            cost_b -= f * b[row]
        basis[row] = enter

    if cost_b != 0:
        return None
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = b[i]
        elif b[i] != 0:
            # Artificial stuck in the basis at a nonzero value despite a zero
            # objective is impossible; keep the honest answer if it happens.
            return None
    return x
