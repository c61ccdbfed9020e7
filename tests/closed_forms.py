"""Closed-form referees that read none of the library: the degrees of the
finite Weyl groups, the Poincaré series they give, finite and affine (Bott's
formula; Humphreys, Reflection Groups and Coxeter Groups, ch. 3 and 8), and
the connection index det(A) of each Cartan type.
"""

EXCEPTIONAL_DEGREES = {
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
    ("F", 4): (2, 6, 8, 12),
    ("G", 2): (2, 6),
}


def split(spec):
    """"B~3" -> ("B", 3, True)."""
    return spec[0], int(spec[1:].lstrip("~")), "~" in spec


def degrees(letter, n):
    """The degrees d_1 ≤ … ≤ d_n of the basic invariants of the finite W(X_n)."""
    if letter == "A":
        return tuple(range(2, n + 2))
    if letter in "BC":
        return tuple(range(2, 2 * n + 1, 2))
    if letter == "D":
        return tuple(sorted((*range(2, 2 * n - 1, 2), n)))
    return EXCEPTIONAL_DEGREES[letter, n]


def poincare(spec, radius):
    """The number of elements of each length 0..radius: the coefficients of
    Π_i (1 + q + … + q^(d_i − 1)), times Π_i 1/(1 − q^(d_i − 1)) if affine."""
    letter, n, affine = split(spec)
    series = [1] + [0] * radius
    for d in degrees(letter, n):
        series = [sum(series[max(0, i - d + 1):i + 1]) for i in range(radius + 1)]
        if affine:
            for i in range(d - 1, radius + 1):
                series[i] += series[i - d + 1]
    return series


def connection_index(letter, n):
    """det of the Cartan matrix of X_n, the order of the weight lattice over
    the root lattice."""
    if letter == "A":
        return n + 1
    if letter in "BC":
        return 2
    if letter == "D":
        return 4
    return {("E", 6): 3, ("E", 7): 2}.get((letter, n), 1)   # E8, F4 and G2: 1


def positive_root_count(letter, n):
    """|Φ⁺| = Σ_i (d_i − 1), the length of the longest element."""
    return sum(degrees(letter, n)) - n
