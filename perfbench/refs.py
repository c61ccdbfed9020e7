"""Referee arithmetic that shares no code with coxtw.

Everything here is rebuilt from textbook facts: the degrees of the finite
Weyl groups, the Poincaré series they give (finite and affine, after Bott),
the count of twisted positive systems of a finite root system, and the
classical models of types A and B as (signed) permutations of coordinates.
The benchmark uses these to check answers it timed.
"""

from __future__ import annotations

from itertools import combinations
from math import prod

_EXCEPTIONAL_DEGREES = {
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
    ("F", 4): (2, 6, 8, 12),
    ("G", 2): (2, 6),
}


def split_type(type_string: str) -> tuple[str, int, bool]:
    """"B~3" -> ("B", 3, True)."""
    letter, rest = type_string[0], type_string[1:]
    affine = rest.startswith("~")
    return letter, int(rest.lstrip("~")), affine


def degrees(letter: str, n: int) -> tuple[int, ...]:
    """Degrees of the basic invariants of the finite Weyl group X_n."""
    if letter == "A":
        return tuple(range(2, n + 2))
    if letter in "BC":
        return tuple(range(2, 2 * n + 1, 2))
    if letter == "D":
        return tuple(sorted(tuple(range(2, 2 * n - 1, 2)) + (n,)))
    return _EXCEPTIONAL_DEGREES[(letter, n)]


def group_order(letter: str, n: int) -> int:
    return prod(degrees(letter, n))


def poincare(type_string: str, radius: int) -> list[int]:
    """Number of elements of each length 0..radius (the Poincaré series).

    Finite: prod_i (1 + q + ... + q^(d_i - 1)).  Affine (Bott): the finite
    series times prod_i 1 / (1 - q^(d_i - 1))."""
    letter, n, affine = split_type(type_string)
    series = [1] + [0] * radius
    for d in degrees(letter, n):
        # multiply by 1 + q + ... + q^(d-1), truncated at q^radius
        series = [sum(series[j] for j in range(max(0, i - d + 1), i + 1))
                  for i in range(radius + 1)]
        if affine:
            # multiply by 1 / (1 - q^(d-1)): a running sum with stride d-1
            e = d - 1
            for i in range(e, radius + 1):
                series[i] += series[i - e]
    return series


def ball_size(type_string: str, radius: int) -> int:
    return sum(poincare(type_string, radius))


# -- parabolic subgroups of A_n and B_n ---------------------------------------


def _chain_cartan(letter: str, n: int) -> list[list[int]]:
    """Cartan matrix of A_n or B_n, nodes 0..n-1 in a chain, the short
    root of B_n last (the order coxtw uses)."""
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        a[i][i + 1] = a[i + 1][i] = -1
    if letter == "B":
        a[n - 1][n - 2] = -2
    return a


def _component_order(cartan, nodes) -> int:
    """|W| of a connected piece of an A_n or B_n chain: A_k or B_k."""
    double = any(cartan[i][j] * cartan[j][i] == 2 for i in nodes for j in nodes)
    return group_order("B" if double else "A", len(nodes))


def parabolic_order(cartan, subset) -> int:
    """|W_J| for J a subset of the simple roots."""
    left = set(subset)
    total = 1
    while left:
        comp = {left.pop()}
        grow = True
        while grow:
            grow = False
            for v in list(left):
                if any(cartan[v][u] for u in comp):
                    comp.add(v)
                    left.discard(v)
                    grow = True
        total *= _component_order(cartan, comp)
    return total


def full_phi_biclosed_count(letter: str, n: int) -> int:
    """Biclosed subsets of the whole root system Φ of A_n or B_n.

    They are the twisted positive systems u((Φ⁺ ∖ R≥0Δ1) ∪ RΔ2∩Φ) with Δ1,
    Δ2 disjoint and orthogonal, and u counts modulo W_{Δ1 ∪ Δ2}."""
    cartan = _chain_cartan(letter, n)
    order = group_order(letter, n)
    total = 0
    for size in range(n + 1):
        for J in combinations(range(n), size):
            splits = 0
            for k in range(len(J) + 1):
                for d1 in combinations(J, k):
                    d2 = [j for j in J if j not in d1]
                    if all(cartan[i][j] == 0 for i in d1 for j in d2):
                        splits += 1
            total += splits * order // parabolic_order(cartan, J)
    return total


# -- classical models: A_n on R^(n+1), B_n on R^n ----------------------------


class ClassicalModel:
    """Roots of A_n or B_n as integer vectors in the standard coordinates.

    Simple roots are e_i - e_{i+1}, plus e_n for B_n, which is the node
    order coxtw uses.  Simple-root coordinates of a vector v are its partial
    sums, so a root converts to the literal coxtw prints."""

    def __init__(self, letter: str, n: int):
        if letter not in "AB":
            raise ValueError("only types A and B have a model here")
        self.letter, self.n = letter, n
        self.dim = n + 1 if letter == "A" else n
        pos = []
        for i, j in combinations(range(self.dim), 2):
            pos.append(self._unit(i, 1, j, -1))
            if letter == "B":
                pos.append(self._unit(i, 1, j, 1))
        if letter == "B":
            pos.extend(self._unit(i, 1) for i in range(self.dim))
        self.positive = tuple(pos)
        self.cartan = _chain_cartan(letter, n)

    def _unit(self, i, a, j=None, b=0):
        v = [0] * self.dim
        v[i] = a
        if j is not None:
            v[j] = b
        return tuple(v)

    def reflect(self, s: int, v):
        v = list(v)
        if s < self.dim - 1:
            v[s], v[s + 1] = v[s + 1], v[s]
        else:  # B_n: the short simple root e_n
            v[s] = -v[s]
        return tuple(v)

    def act(self, word, v):
        for s in reversed(word):
            v = self.reflect(s, v)
        return v

    def coords(self, v) -> tuple[int, ...]:
        out, acc = [], 0
        for k in range(self.n):
            acc += v[k]
            out.append(acc)
        return tuple(out)

    def literal(self, v) -> str:
        return ".".join(str(c) for c in self.coords(v))

    def twisted_positive_system(self, u_word, d1, d2) -> frozenset[str]:
        """u((Φ⁺ ∖ R≥0Δ1) ∪ RΔ2∩Φ), as root literals."""
        out = set()
        for beta in self.positive:
            support = {i for i, c in enumerate(self.coords(beta)) if c}
            if not support <= set(d1):
                out.add(self.act(u_word, beta))
            if support <= set(d2):
                image = self.act(u_word, beta)
                out.add(image)
                out.add(tuple(-c for c in image))
        return frozenset(self.literal(v) for v in out)

    def orthogonal(self, d1, d2) -> bool:
        return all(self.cartan[i][j] == 0 for i in d1 for j in d2)

    def shortlex(self) -> list[tuple[int, ...]]:
        """Every group element as its lexicographically least reduced word,
        sorted by (length, word).  Prefixes of such words are such words,
        so each level extends the previous one in order; an element keeps
        the first word that reaches it."""
        simples = [self._unit(s, 1, s + 1, -1) if s < self.dim - 1
                   else self._unit(s, 1) for s in range(self.n)]
        generic = tuple(range(1, self.dim + 1))
        out, level, seen = [()], [()], {generic}
        while level:
            grown = []
            for word in level:
                for s in range(self.n):
                    if min(self.coords(self.act(word, simples[s]))) < 0:
                        continue  # s is a descent: word + s is not reduced
                    key = self.act(word + (s,), generic)
                    if key not in seen:
                        seen.add(key)
                        grown.append(word + (s,))
            out.extend(grown)
            level = grown
        return out
