"""Coxeter systems: Cartan data, root generation, bilinear form, coweights.

A system is either finite crystallographic or the untwisted affine
extension of one.  Roots are integer coordinate vectors over the finite
simple basis plus an integer δ-level, and Φ⁺ grows from the simple roots by
integer raising.  The symmetrizer is solved, and the form built, in
integers; Sylvester's test reads the leading minors of the Cartan matrix off
one fraction-free elimination in `linalg`, and one more on the integer Gram
matrix gives its determinant and adjugate, the form's inverse in integers,
so all arithmetic is exact and root identities hold on the nose.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul

from . import linalg
from .errors import DomainError, ExprError, ValidationError

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class Root:
    """A real root β + nδ (simple-basis coordinates, δ-level n); an immutable value."""

    __slots__ = ("coeffs", "delta", "_hash")

    def __init__(self, coeffs, delta: int = 0):
        coeffs, delta = tuple(map(int, coeffs)), int(delta)
        _set_coeffs(self, coeffs)
        _set_delta(self, delta)
        _set_hash(self, hash((delta, coeffs)))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"Root is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not Root:
            return NotImplemented
        return self.delta == other.delta and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Root(delta={self.delta!r}, coeffs={self.coeffs!r})"

    def __reduce__(self):
        return Root, (self.coeffs, self.delta)

    @property
    def key(self) -> tuple:
        return (self.delta, self.coeffs)

    @property
    def is_positive(self) -> bool:
        if self.delta != 0:
            return self.delta > 0
        return any(self.coeffs) and all(c >= 0 for c in self.coeffs)

    @property
    def is_negative(self) -> bool:
        if self.delta != 0:
            return self.delta < 0
        return any(self.coeffs) and all(c <= 0 for c in self.coeffs)

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coeffs), -self.delta)

    def fin(self) -> "Root":
        """The level-0 part β of β + nδ."""
        return Root(self.coeffs, 0)

    def literal(self) -> str:
        body = ".".join(str(c) for c in self.coeffs)
        return f"{body}:{self.delta}" if self.delta else body

    def __str__(self) -> str:
        return self.literal()


# __setattr__ refuses every write, so __init__ stores through the slots themselves
_set_coeffs, _set_delta, _set_hash = (Root.__dict__[n].__set__ for n in Root.__slots__)


def parse_root(text: str, rank: int) -> Root:
    """Parse the literal form `c1.c2...ck[:n]`, e.g. `1.0:1` or `-1.1`."""
    text = text.strip()
    delta = 0
    if ":" in text:
        body, _, lev = text.partition(":")
        try:
            delta = int(lev)
        except ValueError:
            raise ExprError(f"bad delta level in root literal {text!r}")
    else:
        body = text
    parts = body.split(".") if body else []
    if len(parts) != rank:
        raise ExprError(f"root literal {text!r} needs {rank} coefficients")
    try:
        coeffs = tuple(int(p) for p in parts)
    except ValueError:
        raise ExprError(f"bad coefficient in root literal {text!r}")
    return Root(coeffs, delta)


def _validate_cartan(cartan) -> tuple[tuple[int, ...], ...]:
    k = len(cartan)
    if k == 0 or any(len(row) != k for row in cartan):
        raise ValidationError("Cartan matrix must be square and nonempty")
    if k > len(_LETTERS):
        raise ValidationError(f"rank {k} exceeds the {len(_LETTERS)} simple-root names")
    a = tuple(tuple(int(x) for x in row) for row in cartan)
    for i in range(k):
        if a[i][i] != 2:
            raise ValidationError(f"Cartan diagonal entry a[{i}][{i}] must be 2")
        for j in range(k):
            if i != j:
                if a[i][j] > 0:
                    raise ValidationError(
                        f"off-diagonal Cartan entry a[{i}][{j}] must be <= 0"
                    )
                if (a[i][j] == 0) != (a[j][i] == 0):
                    raise ValidationError(
                        f"asymmetric zero pattern at Cartan entries ({i},{j})"
                    )
    return a


def _auto_symmetrizer(cartan) -> tuple[int, ...]:
    # d_i a_ij = d_j a_ji forces the ratios along every edge of the Coxeter
    # graph.  Propagate them per component in integers, scaling the component
    # by the least factor that makes a ratio divide, so d stays the least solution.
    k = len(cartan)
    d = [0] * k
    for start in range(k):
        if d[start]:
            continue
        d[start] = 1
        component = [start]
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(k):
                a, b = cartan[i][j], cartan[j][i]
                if not a or i == j:
                    continue
                if not d[j]:
                    scale = -b // gcd(d[i] * a, b)
                    for c in component:
                        d[c] *= scale
                    d[j] = d[i] * a // b
                    component.append(j)
                    stack.append(j)
                elif d[i] * a != d[j] * b:
                    raise ValidationError("Cartan matrix admits no symmetrizer")
    return tuple(d)


def _check_positive_definite(cartan) -> int:
    """Raise unless the form diag(d)·cartan is positive definite, and return
    det(cartan), the connection index.  The form's t-th leading minor is
    d_1⋯d_t > 0 times that of cartan, so Sylvester's test reads the minors of
    cartan off one elimination."""
    minors = linalg.leading_minors(cartan)
    for t, minor in enumerate(minors, 1):
        if minor <= 0:
            raise ValidationError(
                "symmetrized Cartan matrix is not positive definite "
                f"(leading minor {t} is non-positive)"
            )
    if minors[-1].denominator != 1:
        raise DomainError(f"Cartan determinant {minors[-1]} is not an integer")
    return int(minors[-1])


def _generate_positive_roots(cartan) -> tuple[tuple[int, ...], ...]:
    # Φ⁺ by raising: s_i(v) = v − ⟨v, α_i^∨⟩α_i is taken only where the pairing
    # is negative.  A non-simple β ∈ Φ⁺ pairs positively with some α_i, and is
    # the raise of the lower root s_i(β), so every root is reached by height.
    k = len(cartan)
    frontier = [tuple(int(j == i) for j in range(k)) for i in range(k)]
    seen = set(frontier)
    while frontier:
        new = []
        for v in frontier:
            for i, row in enumerate(cartan):
                c = sum(map(mul, row, v))
                if c < 0:
                    w = v[:i] + (v[i] - c,) + v[i + 1:]
                    if w not in seen:
                        seen.add(w)
                        new.append(w)
        frontier = new
    return tuple(sorted(seen))


class CoxeterSystem:
    """Immutable Cartan data plus everything derived from it.

    `cartan` and `symmetrizer` always describe the finite part; affine
    systems carry one extra generator s_{δ-γ} for γ the highest root, so
    their matrices act on the basis (simple roots, δ).
    """

    def __init__(self, cartan, symmetrizer=None, affine: bool = False,
                 type_string: str | None = None):
        self.cartan = _validate_cartan(cartan)
        k = len(self.cartan)
        self.rank_finite = k
        if symmetrizer is None:
            d = _auto_symmetrizer(self.cartan)
        else:
            d = tuple(Fraction(x) for x in symmetrizer)
            if len(d) != k or any(x <= 0 for x in d):
                raise ValidationError("symmetrizer must be a positive vector of length rank")
        self.symmetrizer = tuple(map(Fraction, d))
        # form[i][j] = (α_i, α_j) = d_i a_ij, in integers unless d was given rational
        self.form = tuple(tuple(x * a for a in row) for x, row in zip(d, self.cartan))
        if self.form != tuple(zip(*self.form)):
            raise ValidationError("symmetrizer does not symmetrize the Cartan matrix")
        self.connection_index = _check_positive_definite(self.cartan)
        # the form scaled to integers, for the reflection table and the heights of words
        self.form_scale = lcm(*(x.denominator for row in self.form for x in row))
        self.gram = tuple(tuple(x.numerator * (self.form_scale // x.denominator) for x in row)
                          for row in self.form)

        self.kind = "affine" if affine else "finite"
        self.type_string = type_string
        self._pos_coeffs = _generate_positive_roots(self.cartan)
        # The root index of every inversion mask (Kac, ch. 6): for α the i-th of
        # the N in _pos_coeffs, α+kδ is bit 2Nk+i and −α+kδ bit 2Nk−N+i, so the
        # positive roots up to δ-level L are the bits below 2NL+N.  Keyed by Φ.
        n = len(self._pos_coeffs)
        self._level_bits = 2 * n if affine else 0
        self._offsets = {v: i for i, v in enumerate(self._pos_coeffs)}
        self._offsets.update((tuple(-c for c in v), i - n) for i, v in enumerate(self._pos_coeffs))

        if affine:
            self.highest_root = self._find_highest_root()
            self.ngens = k + 1
            self.dim = k + 1
        else:
            self.highest_root = None
            self.ngens = k
            self.dim = k

        names = list(_LETTERS[:k])
        if affine:
            names.append("d" + "".join(f"-{c if c > 1 else ''}{names[i]}"
                                       for i, c in enumerate(self.highest_root.coeffs) if c))
        self.simple_names = tuple(names)

        self.key = (self.kind, self.cartan, d)
        simples = [Root([int(j == i) for j in range(k)], 0) for i in range(k)]
        if affine:
            simples.append(Root([-c for c in self.highest_root.coeffs], 1))
        self._simple_roots = tuple(simples)
        # the same as integer columns over the basis (simple roots, and δ if affine)
        self.simple_columns = tuple((a.coeffs + (a.delta,))[:self.dim] for a in simples)
        self.identity_matrix = tuple(tuple(int(r == c) for c in range(self.dim))
                                     for r in range(self.dim))
        self._reflections = tuple(self._reflection(s) for s in range(self.ngens))

    def __eq__(self, other):
        return isinstance(other, CoxeterSystem) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        tag = self.type_string or f"rank {self.rank_finite}"
        return f"CoxeterSystem({tag}, {self.kind})"

    def _find_highest_root(self) -> Root:
        # the roots that no α_i raises: one per component of the Coxeter graph
        candidates = [v for v in self._pos_coeffs
                      if not any(v[:i] + (v[i] + 1,) + v[i + 1:] in self._offsets
                                 for i in range(self.rank_finite))]
        if len(candidates) != 1:
            raise ValidationError("affine extension requires an irreducible finite part")
        return Root(candidates[0], 0)

    # -- roots ---------------------------------------------------------

    @cached_property
    def positive_roots(self) -> tuple[Root, ...]:
        """Positive roots of the finite part, sorted."""
        return tuple(Root(v, 0) for v in self._pos_coeffs)

    @cached_property
    def finite_roots(self) -> tuple[Root, ...]:
        return tuple(sorted((Root(v, 0) for v in self._offsets),
                            key=lambda r: r.key))

    def is_root(self, rho: Root) -> bool:
        return (len(rho.coeffs) == self.rank_finite and rho.coeffs in self._offsets
                and not (rho.delta and self.kind == "finite"))

    def simple_root(self, i: int) -> Root:
        if not 0 <= i < self.ngens:
            raise DomainError(f"no simple reflection with index {i}")
        return self._simple_roots[i]

    def roots_up_to(self, level: int) -> tuple[Root, ...]:
        """All roots; affine systems truncate to |δ-level| <= level."""
        if level < 0:
            raise DomainError("root level must be nonnegative")
        if self.kind == "finite":
            return self.finite_roots
        out = [
            Root(v.coeffs, n)
            for n in range(-level, level + 1)
            for v in self.finite_roots
        ]
        return tuple(sorted(out, key=lambda r: r.key))

    def positive_roots_up_to(self, level: int) -> tuple[Root, ...]:
        roots = self.roots_up_to(level)
        if self.kind == "finite":
            return self.positive_roots
        return tuple(r for r in roots if r.is_positive)

    # -- the root index ------------------------------------------------

    def column_bit(self, column) -> int:
        """The bit of the root with an integer column over (simple roots, δ if
        affine), or a negative number if it is no positive root."""
        off = self._offsets.get(tuple(column[:self.rank_finite]))
        return -1 if off is None else off + self._level_bits * column[-1]

    def root_bit(self, rho: Root) -> int:
        """The bit of a positive root; DomainError for any other vector."""
        bit = self.column_bit(rho.coeffs + (rho.delta,)) if self.is_root(rho) else -1
        if bit < 0:
            raise DomainError(f"{rho} is not a positive root of this system")
        return bit

    def bit_root(self, bit: int) -> Root:
        """The positive root of a bit, the inverse of `root_bit`."""
        n = len(self._pos_coeffs)
        level, i = divmod(bit + n, 2 * n)
        if bit < 0 or (level and self.kind == "finite"):
            raise DomainError(f"bit {bit} indexes no positive root of this system")
        return Root(self._pos_coeffs[i - n] if i >= n else [-c for c in self._pos_coeffs[i]], level)

    def level_mask(self, level: int) -> int:
        """The bits of the positive roots up to δ-level `level` (all of Φ⁺ if finite)."""
        n = len(self._pos_coeffs)
        return (1 << (n if self.kind == "finite" else 2 * n * level + n)) - 1

    # A pattern is a set of finite roots as 2N bits, −α_i at bit i and α_i at bit
    # N+i, so the root of index bit b has its finite part at bit (b + N) mod 2N.

    def pattern(self, roots) -> int:
        """The pattern of some finite roots."""
        n = len(self._pos_coeffs)
        return sum(1 << self._offsets[r.coeffs] + n for r in roots)

    def pattern_roots(self, pattern: int) -> frozenset[Root]:
        """The finite roots of a pattern, the inverse of `pattern`."""
        n = len(self._pos_coeffs)
        return frozenset(Root(self._pos_coeffs[b - n]) if b >= n else -Root(self._pos_coeffs[b])
                         for b in range(2 * n) if pattern >> b & 1)

    def moved_pattern(self, matrix, pattern: int) -> int:
        """The pattern of w̄ applied to the roots of a pattern, w̄ the finite
        block of an element's matrix; w̄(−α) = −w̄(α) sits N bits round."""
        n, rows, out = len(self._pos_coeffs), matrix[:self.rank_finite], 0
        for b in (b for b in range(pattern.bit_length()) if pattern >> b & 1):
            off = self._offsets[tuple(sum(map(mul, row, self._pos_coeffs[b % n])) for row in rows)]
            out |= 1 << (off + n if b >= n else off % (2 * n))
        return out

    def periodic(self, pattern: int, mask: int) -> int:
        """The bits of mask whose finite part lies in the pattern: the pattern
        repeated every 2N bits (once on a finite system), shifted down by N."""
        n = len(self._pos_coeffs)
        reps = -(-mask.bit_length() // (2 * n)) + 1 if self.kind == "affine" else 1
        repeated = pattern * ((1 << 2 * n * reps) - 1) // ((1 << 2 * n) - 1)
        return mask & repeated >> n

    # -- coweights -----------------------------------------------------

    @cached_property
    def integer_form(self):
        """(G, H, N): the integer Gram matrix G = `gram`, N = det G and
        H = adj G = N·G⁻¹, from one elimination in integers.  Every Weyl group
        element w̄ preserves the form, so w̄⁻¹ = H·w̄ᵀ·G / N exactly, which is how
        `GroupElement.word` reads the heights of w⁻¹(α_t)."""
        n, h = linalg.inverse(self.gram)
        return self.gram, h, n

    @cached_property
    def fundamental_coweights(self) -> tuple[tuple[Fraction, ...], ...]:
        """ω_i with (ω_i, α_j) = δ_ij, as vectors in simple-root coordinates:
        the rows of form⁻¹ = form_scale·H/N."""
        _, h, n = self.integer_form
        return tuple(tuple(Fraction(self.form_scale * x, n) for x in row) for row in h)

    def dominant_coweight_for(self, avoid: frozenset | set) -> tuple[Fraction, ...]:
        """c·Σ_{i∉L} ω_i, c the connection index: vanishes on the simples in L,
        positive elsewhere, and lies in the coroot lattice thanks to c."""
        _, h, n = self.integer_form
        scale = self.connection_index * self.form_scale
        return tuple(Fraction(scale * sum(x for i, x in enumerate(column) if i not in avoid), n)
                     for column in zip(*h))

    def coroot_coordinates(self, vec) -> tuple[Fraction, ...]:
        """Coordinates of a vector over the simple coroots: c_i = λ_i d_i."""
        return tuple(Fraction(vec[i]) * self.symmetrizer[i] for i in range(self.rank_finite))

    def in_coroot_lattice(self, vec) -> bool:
        return all(c.denominator == 1 for c in self.coroot_coordinates(vec))

    # -- simple reflections --------------------------------------------

    def _reflection(self, s: int):
        """(pairings, simple pairings) with s(α_j) = α_j − ⟨α_j, α_s^∨⟩·α_s: the
        nonzero ⟨α_j, α_s^∨⟩ = 2(α_j, α_s)/(α_s, α_s) as (j, value) pairs, over
        the basis and over the ngens simple roots.  δ is fixed by every
        reflection and pairs to zero, so the affine α_k = δ − θ pairs as −θ."""
        alpha = self._simple_roots[s]
        dots = [sum(map(mul, row, alpha.coeffs)) for row in self.gram]
        norm = sum(map(mul, alpha.coeffs, dots))
        pairs = []
        for t, beta in enumerate(self._simple_roots):
            c, rem = divmod(2 * sum(map(mul, beta.coeffs, dots)), norm)
            if rem:
                raise DomainError(f"coroot pairing of α_{t} with α_{s} is not an integer")
            if c:
                pairs.append((t, c))
        return tuple(p for p in pairs if p[0] < self.rank_finite), tuple(pairs)

    def reflection(self, s: int):
        if not 0 <= s < self.ngens:
            raise DomainError(f"no simple reflection with index {s}")
        return self._reflections[s]


_TYPE_RE = re.compile(r"^([A-G])(~?)([0-9]+)$")

_TYPE_RANKS = {"A": (1, 26), "B": (2, 26), "C": (2, 26), "D": (4, 26),
               "E": (6, 8), "F": (4, 4), "G": (2, 2)}


def _chain(n: int) -> list[list[int]]:
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        a[i][i + 1] = a[i + 1][i] = -1
    return a


def _cartan_for(letter: str, n: int) -> list[list[int]]:
    if letter == "A":
        return _chain(n)
    if letter == "B":
        a = _chain(n)
        a[n - 1][n - 2] = -2
        return a
    if letter == "C":
        a = _chain(n)
        a[n - 2][n - 1] = -2
        return a
    if letter == "D":
        a = _chain(n - 1) if n > 1 else [[2]]
        a = [row + [0] for row in a] + [[0] * n]
        a[n - 1][n - 1] = 2
        a[n - 2][n - 1] = a[n - 1][n - 2] = 0
        a[n - 3][n - 1] = a[n - 1][n - 3] = -1
        return a
    if letter == "E":
        # Bourbaki: chain 1-3-4-5-6(-7)(-8), node 2 attached to node 4.
        a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        for i, j in zip(chain, chain[1:]):
            a[i][j] = a[j][i] = -1
        a[1][3] = a[3][1] = -1
        return a
    if letter == "F":
        a = _chain(4)
        a[2][1] = -2
        return a
    if letter == "G":
        return [[2, -1], [-3, 2]]
    raise ExprError(f"unknown type letter {letter!r}")


def build_system(spec: str | None = None, *, cartan=None, symmetrizer=None,
                 affine: bool = False) -> CoxeterSystem:
    """Build a system from a type string like "B2" / "A~2", or explicit Cartan data."""
    if spec is not None:
        m = _TYPE_RE.match(spec.strip())
        if not m:
            raise ExprError(f"unknown type string {spec!r}")
        letter, tilde, digits = m.groups()
        n = int(digits)
        lo, hi = _TYPE_RANKS[letter]
        if not lo <= n <= hi:
            raise ExprError(f"rank {n} is out of range for type {letter}")
        return CoxeterSystem(_cartan_for(letter, n), affine=bool(tilde),
                             type_string=spec.strip())
    if cartan is None:
        raise ExprError("build_system needs a type string or a Cartan matrix")
    return CoxeterSystem(cartan, symmetrizer=symmetrizer, affine=affine)


def parse_cartan_file(text: str) -> CoxeterSystem:
    """Parse the plain-text matrix format:

        rank k [affine]
        k integer rows
        [symmetrizer d1 ... dk]   (rationals as p/q)
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    if not lines:
        raise ValidationError("empty Cartan file")
    head = lines[0].split()
    if len(head) < 2 or head[0] != "rank":
        raise ValidationError("Cartan file must start with 'rank k [affine]'")
    try:
        k = int(head[1])
    except ValueError:
        raise ValidationError(f"bad rank {head[1]!r} in Cartan file")
    affine = False
    if len(head) > 2:
        if head[2] != "affine" or len(head) > 3:
            raise ValidationError("rank line may only carry the single flag 'affine'")
        affine = True
    if len(lines) < 1 + k:
        raise ValidationError(f"expected {k} matrix rows in Cartan file")
    rows = []
    for ln in lines[1:1 + k]:
        try:
            row = [int(x) for x in ln.split()]
        except ValueError:
            raise ValidationError(f"non-integer Cartan row {ln!r}")
        if len(row) != k:
            raise ValidationError(f"Cartan row {ln!r} does not have {k} entries")
        rows.append(row)
    symmetrizer = None
    rest = lines[1 + k:]
    if rest:
        parts = rest[0].split()
        if parts[0] != "symmetrizer" or len(rest) > 1:
            raise ValidationError("unexpected trailing content in Cartan file")
        try:
            symmetrizer = [Fraction(p) for p in parts[1:]]
        except (ValueError, ZeroDivisionError):
            raise ValidationError("bad symmetrizer entries in Cartan file")
    return CoxeterSystem(rows, symmetrizer=symmetrizer, affine=affine)
