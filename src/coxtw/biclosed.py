"""Membership oracles for biclosed sets of positive roots, and closure checks.

Oracles answer membership for arbitrary positive roots of the system, so a
single object can describe an infinite subset of an affine positive system.
Past some level α + nδ lies in the set iff α is a limit root, so every
oracle is two masks fixed at construction: its limit roots, extended
δ-periodically, and the finitely many roots where the set differs from that
extension.  One past the last of those is its stable level.

The closure checks and the enumeration take roots of the system only, and
read one cone table: for each pair of roots, the roots of the list in the
cone of the pair.  A root lies in that cone only if it lies in the pair's
plane, so the pairs are grouped by plane and `cone_contains` is asked, in
integers, only of the other roots of that plane.  The enumeration reads it as
capture rows and searches half its tree in key order, so it sorts by size only.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from itertools import combinations
from math import gcd
from operator import and_, index

from .errors import ClassificationError, DomainError, ResourceError, ValidationError
from .feasibility import solve_nonneg
from .elements import GroupElement, ascend
from .system import CoxeterSystem, Root


class BiclosedOracle:
    """Base class: B as a pattern of limit roots, extended δ-periodically, and
    the finitely many roots where B differs from that extension, both masks
    over the root index (`CoxeterSystem.pattern` and `root_bit`)."""

    def __init__(self, system: CoxeterSystem, pattern: int, exceptions: int):
        self.system = system
        self.pattern = pattern
        self.exceptions = exceptions
        self._raw_tlen: dict = {}
        self._classification = None
        self._complement_classification = None   # kept for `order.join`

    def member(self, rho: Root) -> bool:
        return bool(self.members(1 << self.system.root_bit(rho)))

    def members(self, mask: int) -> int:
        """The bits of mask whose roots lie in B."""
        return mask & (self.exceptions ^ self.system.periodic(self.pattern, mask))

    def key(self) -> str:
        raise NotImplementedError

    def stable_level(self) -> int:
        """Level L so that for n >= L, α + nδ is in B iff α is in the pattern:
        one past the level of the last exception, as bit b is at level ⌊(b+N)/2N⌋."""
        n = len(self.system.positive_roots)
        return (self.exceptions.bit_length() - 1 + n) // (2 * n) + 1

    def __repr__(self):
        return self.key()


class Explicit(BiclosedOracle):
    """A finite, explicitly listed set of positive roots."""

    def __init__(self, system: CoxeterSystem, roots):
        roots = frozenset(roots)
        for rho in roots:
            if not rho.is_positive or not system.is_root(rho):
                raise ValidationError(f"{rho} is not a positive root of this system")
        super().__init__(system, 0, sum(1 << system.root_bit(rho) for rho in roots))
        self.roots = roots

    def key(self) -> str:
        body = ",".join(r.literal() for r in sorted(self.roots, key=lambda r: r.key))
        return f"explicit[{body}]"


class HatForm(BiclosedOracle):
    """hat(Ψ⁺) for the twisted positive system u((Φ⁺ ∖ R≥0Δ1) ∪ RΔ2∩Φ).

    Δ1 and Δ2 are disjoint index sets of simple roots, orthogonal to each
    other; u is an element of the finite Weyl subgroup.
    """

    def __init__(self, system: CoxeterSystem, u: GroupElement, delta1, delta2):
        if system.kind != "affine":
            raise ValidationError("hat-form oracles require an affine system")
        self.u = u
        self.delta1, self.delta2 = frozenset(delta1), frozenset(delta2)
        super().__init__(system, _psi_pattern(system, u, self.delta1, self.delta2), 0)

    def key(self) -> str:
        word = ",".join(str(s) for s in self.u.word)
        d1 = ",".join(str(i) for i in sorted(self.delta1))
        d2 = ",".join(str(i) for i in sorted(self.delta2))
        return f"hat[{word}|{d1}|{d2}]"


class Twisted(BiclosedOracle):
    """w·B = (Φ_w ∖ w(-B)) ∪ (w(B) ∖ -Φ_w): ρ lies in it iff σ = w⁻¹ρ is in B
    when positive, and −σ is not in B when negative.

    The limits are w̄ times those of B.  Past the level L of B's stable level
    plus the largest |δ-level| of w⁻¹(β) over the finite roots β, every σ is
    positive and itself past B's stable level, so B is asked once for each
    root up to L."""

    def __init__(self, w: GroupElement, inner: BiclosedOracle):
        system = inner.system
        if w.system.key != system.key:
            raise DomainError("element and oracle belong to different systems")
        self.w = w
        self.inner = inner
        w_inv = w.inverse()
        shift = max(abs(w_inv.apply(beta).delta) for beta in system.finite_roots)
        top = system.level_mask(inner.stable_level() + shift)
        held = 0
        for b in range(top.bit_length()):
            sigma = w_inv.apply(system.bit_root(b))
            up = sigma.is_positive
            if up == inner.member(sigma if up else -sigma):
                held |= 1 << b
        pattern = system.moved_pattern(w.columns, inner.pattern)
        super().__init__(system, pattern, held ^ system.periodic(pattern, top))

    def key(self) -> str:
        word = ",".join(str(s) for s in self.w.word)
        return f"twist[{word}]({self.inner.key()})"


class Complement(BiclosedOracle):
    """Φ⁺ ∖ B: the other limit roots, and the same exceptions."""

    def __init__(self, inner: BiclosedOracle):
        full = (1 << 2 * len(inner.system.positive_roots)) - 1
        super().__init__(inner.system, full ^ inner.pattern, inner.exceptions)
        self.inner = inner

    def key(self) -> str:
        return f"complement({self.inner.key()})"


def act_on_biclosed(w: GroupElement, oracle: BiclosedOracle) -> BiclosedOracle:
    """w·B; twisting by a twist collapses to a single twist by the product."""
    if isinstance(oracle, Twisted):
        return act_on_biclosed(w * oracle.w, oracle.inner)
    if w.is_identity:
        return oracle
    return Twisted(w, oracle)


# -- closure -----------------------------------------------------------


class ClosureReport(namedtuple("ClosureReport", "closed witness")):
    __slots__ = ()


class BiclosedReport(namedtuple("BiclosedReport", "ok side witness")):
    __slots__ = ()


def cone_contains(generators, target: Root) -> bool:
    """Is target a nonnegative combination of the generators (at most two)?"""
    rows = list(zip(*((*g.coeffs, g.delta) for g in generators)))
    return solve_nonneg(rows, (*target.coeffs, target.delta)) is not None


def _checked_roots(system: CoxeterSystem, roots) -> list[Root]:
    """The distinct roots in sorted order; DomainError names one that is not a root."""
    roots = sorted(frozenset(roots), key=lambda r: r.key)
    bad = next((r for r in roots if not system.is_root(r)), None)
    if bad is not None:
        raise DomainError(f"{bad} is not a root of this system")
    return roots


def _cone_table(roots: list[Root]) -> list[list[int]]:
    """cones[i][j]: the bits of the roots in the cone of roots i and j, both included.

    The pairs i < j are grouped by oriented plane, keyed by the integer
    Plücker vector α∧β over (*coeffs, delta) divided by its gcd.  A root t
    in the cone is aα + bβ with a, b > 0, so α∧t and t∧β are positive
    multiples of α∧β: t is an end of a pair of the same key, and only those
    ends are asked.  A parallel pair (β = −α) spans a line, whose cone holds
    just the pair, as no other multiple of a root is a root."""
    n = len(roots)
    vecs = [(*r.coeffs, r.delta) for r in roots]
    cones = [[1 << i] * n for i in range(n)]
    planes = {}
    places = list(combinations(range(len(vecs[0])), 2)) if n else []
    for i, j in combinations(range(n), 2):
        cones[i][j] = cones[j][i] = 1 << i | 1 << j
        a, b = vecs[i], vecs[j]
        p = [a[k] * b[m] - a[m] * b[k] for k, m in places]
        if g := gcd(*p):
            planes.setdefault(tuple(x // g for x in p), []).append((i, j))
    for pairs in planes.values():
        plane = {t for pair in pairs for t in pair}
        for i, j in pairs:
            cones[i][j] = cones[j][i] = cones[i][j] | sum(
                1 << t for t in plane - {i, j} if cone_contains((roots[i], roots[j]), roots[t]))
    return cones


def _first_captures(system: CoxeterSystem, gamma, ambient):
    """For Γ and then for its complement inside the ambient set, read off one
    cone table: ((g1, g2), captured) for the side's first pair in sorted order
    whose cone holds a root off the side, or None if the side is 2-closed."""
    members = _checked_roots(system, gamma)
    ambient = _checked_roots(system, ambient)
    index = {r: t for t, r in enumerate(ambient)}
    if any(r not in index for r in members):
        raise DomainError("closure check needs gamma inside the ambient set")
    cones, full = _cone_table(ambient), (1 << len(ambient)) - 1
    inside = sum(1 << index[r] for r in members)
    for side in (inside, full ^ inside):   # ambient is sorted: a lowest bit is a first root
        pairs = combinations([t for t in range(len(ambient)) if side >> t & 1], 2)
        yield next((((ambient[i], ambient[j]), ambient[(hit & -hit).bit_length() - 1])
                    for i, j in pairs if (hit := cones[i][j] & full & ~side)), None)


def closure_check(system: CoxeterSystem, gamma, ambient) -> ClosureReport:
    """Is Γ 2-closed inside the ambient set?

    Γ is 2-closed when the cone of every pair of its roots captures only
    ambient roots that lie in Γ; the cones are read off the table of the
    ambient set, asked per plane.  The witness is ((g1, g2), captured_root)
    for the first failure in sorted order."""
    witness = next(_first_captures(system, gamma, ambient))
    return ClosureReport(witness is None, witness)


def biclosed_check(system: CoxeterSystem, gamma, ambient) -> BiclosedReport:
    """Closedness of Γ and of its complement inside the ambient set, read off one cone table."""
    for side, witness in zip(("set", "complement"), _first_captures(system, gamma, ambient)):
        if witness:
            return BiclosedReport(False, side, witness)
    return BiclosedReport(True, None, None)


_ENUM_LIMIT = 24


def enumerate_biclosed(system: CoxeterSystem, ambient) -> tuple[frozenset[Root], ...]:
    """All biclosed subsets of a finite ambient root collection, by size and
    then root keys: over a finite Φ⁺ the inversion sets, over a finite Φ the
    twisted positive systems (Dyer, "On the weak order of Coxeter groups").

    Backtracks over the sorted roots, putting each in the set or in its
    complement; a root that joins a side brings in what its pair cone with each
    root there captures, read off its capture row, until the side is closed,
    and a branch ends where the sides meet.  So every full assignment is
    biclosed.  A set is biclosed iff its complement is, so only the half with
    root 0 inside is searched; the other half is its complements.  The sets below
    a node agree up to the root it branches on, and its inside branch goes first, so
    the sets, then their complements reversed, come in key order; a stable sort by size ends."""
    roots = _checked_roots(system, ambient)
    n = len(roots)
    if n > _ENUM_LIMIT:
        raise ResourceError(f"ambient set of {n} roots exceeds the enumeration limit {_ENUM_LIMIT}")
    if not n:
        return (frozenset(),)
    rows = [[(u, extra) for u, cone in enumerate(row) if (extra := cone & ~(1 << i | 1 << u))]
            for i, row in enumerate(_cone_table(roots))]   # the pairs that capture a third root

    def close(side: int, new: int) -> int:
        while new:
            low = new & -new
            side |= low
            for u, extra in rows[low.bit_length() - 1]:
                if side >> u & 1:
                    new |= extra
            new &= ~side
        return side

    found, stack = [], [(1, 0)]   # root 0 inside
    while stack:
        inside, outside = stack.pop()
        low = ~(taken := inside | outside) & (taken + 1)   # the first root on neither side
        if low >> n:
            found.append(inside)
            continue
        if not (grown := close(outside, low)) & inside:
            stack.append((inside, grown))
        if not (grown := close(inside, low)) & outside:
            stack.append((grown, outside))   # popped first
    found += [~m & (1 << n) - 1 for m in reversed(found)]
    found.sort(key=int.bit_count)   # stable, so key order holds within each size
    for i, m in enumerate(found):   # each set from its set bits, lowest first
        found[i] = members = []
        while m:
            members.append(roots[(low := m & -m).bit_length() - 1])
            m ^= low
    return tuple(map(frozenset, found))


# -- finite classification ---------------------------------------------


def expand_psi(system: CoxeterSystem, u: GroupElement, delta1, delta2) -> frozenset[Root]:
    """The twisted positive system u((Φ⁺ ∖ R≥0Δ1) ∪ RΔ2∩Φ) of the finite
    roots, decoded from its pattern (`_psi_pattern`, which validates)."""
    return system.pattern_roots(_psi_pattern(system, u, frozenset(delta1), frozenset(delta2)))


def _psi_pattern(system: CoxeterSystem, u: GroupElement, d1: frozenset, d2: frozenset) -> int:
    """The pattern of u((Φ⁺ ∖ R≥0Δ1) ∪ RΔ2∩Φ), −α_i at bit i and α_i at bit N+i.

    u(Φ⁺) is the β > 0 outside Φ_u and the −β for β in Φ_u: two bit operations
    on Φ_u's mask, which for a finite u lies in bits 0..N−1.  Then u(Φ⁺_Δ1)
    leaves and u(−Φ⁺_Δ2) joins (u(Φ⁺_Δ2) is in), each by one xor, so u's columns
    meet those roots only.  This is the one place that validates (u, Δ1, Δ2): u
    must lie in the finite Weyl group of this system, and Δ1, Δ2 hold integers
    in range, disjoint and orthogonal to each other."""
    if u.system is not system and u.system.key != system.key:
        raise DomainError("element belongs to a different system")
    k, n = system.rank_finite, len(system.positive_roots)
    if any(not (hasattr(i, "__index__") and 0 <= i < k) for i in d1 | d2):
        raise ValidationError(f"simple-root indices must be integers in 0..{k - 1}")
    if d1 & d2:
        raise ValidationError("subsets must be disjoint")
    if bad := next(((i, j) for i in d1 for j in d2 if system.form[i][j]), None):
        raise ValidationError(f"subsets must be orthogonal; ({bad[0]},{bad[1]}) pair is not")
    if (mask := u.inversion_mask()) >> n:
        raise ValidationError("element must lie in the finite Weyl subgroup")
    out = ((1 << n) - 1 ^ mask) << n | mask
    for d, shift in ((d1, 0), (d2, n)):   # an empty Δ moves nothing
        if d:   # Φ⁺_Δ at bits N+b: Φ⁺ less the roots whose support holds some α_i off Δ
            held, sub = {*map(index, d)}, (1 << 2 * n) - (1 << n)
            sub = reduce(and_, (~s for i, s in enumerate(system._supports) if i not in held), sub)
            out ^= system.moved_pattern(u.columns, sub >> shift)
    return out


def _decompose_psi(system: CoxeterSystem, gamma: int):
    """The inverse of `_psi_pattern` on a pattern Γ: (u, Δ1, Δ2), u minimal in u·W_{Δ1∪Δ2}.

    Γ∩−Γ is u·Φ_Δ2 and the roots with neither sign in Γ are u·Φ_Δ1.  Their
    positive members together with the rest of Γ form the positive system
    u(Φ⁺), so Φ_u is the positive β with β ∉ Γ and −β ∈ Γ, Γ & ~(Γ >> N) in
    bits 0..N−1, and u the greedy ascent inside it.  Δ1 and Δ2 are read off
    the pattern bits of the columns u(α_i).  Raises ClassificationError unless
    (u, Δ1, Δ2) expands back to Γ.  That also certifies Φ_u: for any expansion,
    Γ & ~(Γ >> N) lies inside Φ_u, and the ascent's Φ_u inside the mask."""
    n = len(system.positive_roots)
    u = ascend(system, gamma & ~(gamma >> n) & (1 << n) - 1)
    bits = [n + b if (b := system.column_bit(column)) >= 0 else ~b   # −β_j at bit j
            for column in u.columns[:system.rank_finite]]
    d1 = frozenset(i for i, b in enumerate(bits) if not gamma >> b & 1)
    d2 = frozenset(i for i, b in enumerate(bits) if gamma >> (b + n) % (2 * n) & 1)
    try:
        if _psi_pattern(system, u, d1, d2) == gamma:
            return u, d1, d2
    except ValidationError:
        pass
    raise ClassificationError("set is not a twisted positive system of this kind")


def classify_finite_biclosed(system: CoxeterSystem, gamma):
    """Find (u, Δ1, Δ2) whose twisted positive system equals Γ ⊆ Φ, Φ finite.

    The witness is constructed directly, not searched: u is read off the
    positive system that Γ determines, and is the minimal representative of
    its coset u·W_{Δ1∪Δ2}, so the answer is unique.  There is no rank limit.
    Raises ClassificationError when Γ is not a twisted positive system.
    """
    if system.kind != "finite":
        raise DomainError("finite classification requires a finite system")
    pattern, n = 0, len(system.positive_roots)
    for rho in gamma:   # one pass: each vector's check and its pattern bit
        if rho.delta or (off := system._offsets.get(rho.coeffs)) is None:
            raise ClassificationError("set holds a vector that is no root of this system")
        pattern |= 1 << off + n
    return _decompose_psi(system, pattern)
