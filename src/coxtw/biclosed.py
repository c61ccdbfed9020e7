"""Membership oracles for biclosed sets of positive roots, and closure checks.

Oracles answer membership for arbitrary positive roots of the system, so a
single object can describe an infinite subset of an affine positive system.
Past some level α + nδ lies in the set iff α is a limit root, so every
oracle is two masks fixed at construction: its limit roots, extended
δ-periodically, and the finitely many roots where the set differs from that
extension.  One past the last of those is its stable level.

The closure checks take roots of the system only, and ask of each pair of
roots and each third root one question, whether the third lies in the cone
of the pair, which `cone_contains` answers in integers.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .errors import ClassificationError, DomainError, ResourceError, ValidationError
from .feasibility import solve_nonneg
from .elements import GroupElement, ascend, weyl_part
from .system import CoxeterSystem, Root


def _support(rho: Root) -> frozenset[int]:
    return frozenset(i for i, c in enumerate(rho.coeffs) if c)


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

    def limit_roots(self) -> frozenset[Root]:
        """Finite roots whose δ-string is eventually inside the set."""
        return self.system.pattern_roots(self.pattern)

    def stable_level(self) -> int:
        """Level L so that for n >= L, membership of α + nδ matches limit_roots:
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
        if u.system.key != system.key:
            raise DomainError("element belongs to a different system")
        if weyl_part(u) != u:
            raise ValidationError("hat-form element must lie in the finite Weyl subgroup")
        self.u = u
        self.delta1 = frozenset(int(i) for i in delta1)
        self.delta2 = frozenset(int(i) for i in delta2)
        self.positive_system = expand_psi(system, u, self.delta1, self.delta2)
        super().__init__(system, system.pattern(self.positive_system), 0)

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
        wbar = weyl_part(w)
        pattern = system.pattern(wbar.apply(alpha) for alpha in inner.limit_roots())
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


def closure_check(system: CoxeterSystem, gamma, ambient) -> ClosureReport:
    """Is Γ 2-closed inside the ambient set?

    Γ is 2-closed when the cone of every pair of its roots captures only
    ambient roots that lie in Γ.  The witness is ((g1, g2), captured_root)
    for the first failure in sorted order."""
    members = _checked_roots(system, gamma)
    ambient = _checked_roots(system, ambient)
    gamma = frozenset(members)
    if not gamma <= set(ambient):
        raise DomainError("closure check needs gamma inside the ambient set")
    outside = [r for r in ambient if r not in gamma]
    for g1, g2 in combinations(members, 2):
        for t in outside:
            if cone_contains((g1, g2), t):
                return ClosureReport(False, ((g1, g2), t))
    return ClosureReport(True, None)


def biclosed_check(system: CoxeterSystem, gamma, ambient) -> BiclosedReport:
    """Closedness of Γ and of its complement inside the ambient set."""
    gamma = frozenset(gamma)
    ambient = frozenset(ambient)
    first = closure_check(system, gamma, ambient)
    if not first.closed:
        return BiclosedReport(False, "set", first.witness)
    second = closure_check(system, ambient - gamma, ambient)
    if not second.closed:
        return BiclosedReport(False, "complement", second.witness)
    return BiclosedReport(True, None, None)


_ENUM_LIMIT = 24


def enumerate_biclosed(system: CoxeterSystem, ambient) -> tuple[frozenset[Root], ...]:
    """All biclosed subsets of a finite ambient root collection, by size and
    then root keys: over a finite Φ⁺ the inversion sets, over a finite Φ the
    twisted positive systems (Dyer, "On the weak order of Coxeter groups").

    Backtracks over the sorted roots, putting each in the set or in its
    complement; a root that joins a side brings its pair cone with each root
    there until the side is closed, and a branch ends where the sides meet.
    So every full assignment is biclosed, and the cost follows the output."""
    roots = _checked_roots(system, ambient)
    n = len(roots)
    if n > _ENUM_LIMIT:
        raise ResourceError(f"ambient set of {n} roots exceeds the enumeration limit {_ENUM_LIMIT}")
    cones = [[1 << i] * n for i in range(n)]
    for i, j in combinations(range(n), 2):
        cones[i][j] = cones[j][i] = sum(1 << t for t in range(n) if t in (i, j)
                                        or cone_contains((roots[i], roots[j]), roots[t]))

    def close(side: int, new: int) -> int:
        while new:
            low = new & -new
            side |= low
            for u, cone in enumerate(cones[low.bit_length() - 1]):
                if side >> u & 1:
                    new |= cone
            new &= ~side
        return side

    found, stack = [], [(0, 0)]
    while stack:
        inside, outside = stack.pop()
        low = ~(taken := inside | outside) & (taken + 1)   # the first root on neither side
        if low >> n:
            found.append(frozenset(roots[t] for t in range(n) if inside >> t & 1))
            continue
        if not (grown := close(inside, low)) & outside:
            stack.append((grown, outside))
        if not (grown := close(outside, low)) & inside:
            stack.append((inside, grown))
    return tuple(sorted(found, key=lambda f: (len(f), sorted(r.key for r in f))))


# -- finite classification ---------------------------------------------


def expand_psi(system: CoxeterSystem, u: GroupElement, delta1, delta2) -> frozenset[Root]:
    """The twisted positive system u((Φ⁺ ∖ R≥0Δ1) ∪ RΔ2∩Φ) of the finite roots.

    This is the one place that validates (u, Δ1, Δ2): the index sets must be
    in range, disjoint and orthogonal to each other."""
    d1 = frozenset(int(i) for i in delta1)
    d2 = frozenset(int(i) for i in delta2)
    k = system.rank_finite
    if any(not 0 <= i < k for i in d1 | d2):
        raise ValidationError("simple-root index out of range")
    if d1 & d2:
        raise ValidationError("subsets must be disjoint")
    for i in d1:
        for j in d2:
            if system.form[i][j] != 0:
                raise ValidationError(
                    f"subsets must be orthogonal; ({i},{j}) pair is not"
                )
    out = set()
    for beta in system.positive_roots:
        image = u.apply(beta)
        if not _support(beta) <= d1:
            out.add(image)
        if _support(beta) <= d2:
            out.add(image)
            out.add(-image)
    return frozenset(out)


def _peel_inversion_set(system: CoxeterSystem, mask: int) -> GroupElement:
    """The element x with Φ_x equal to the given mask of finitely many positive roots.

    The greedy ascent inside the set ends at x when the set is Φ_x, and at
    some element with a smaller inversion set otherwise, so one comparison
    decides.  Raises ClassificationError when the set is no inversion set."""
    x = ascend(system, mask)
    if x.inversion_mask() != mask:
        raise ClassificationError("set is not the inversion set of an element")
    return x


def _decompose_psi(system: CoxeterSystem, gamma):
    """The inverse of expand_psi: (u, Δ1, Δ2) with u minimal in u·W_{Δ1∪Δ2}.

    Γ∩−Γ is u·Φ_Δ2 and the roots with neither sign in Γ are u·Φ_Δ1.  Their
    positive members together with the rest of Γ form the positive system
    u(Φ⁺), so Φ_u is the set of positive roots β with β ∉ Γ and −β ∈ Γ.
    Raises ClassificationError unless (u, Δ1, Δ2) expands back to Γ."""
    gamma = frozenset(gamma)
    u = _peel_inversion_set(system, sum(1 << system.root_bit(beta) for beta in system.positive_roots
                                        if beta not in gamma and -beta in gamma))
    images = [u.apply(system.simple_root(i)) for i in range(system.rank_finite)]
    d1 = frozenset(i for i, image in enumerate(images) if image not in gamma)
    d2 = frozenset(i for i, image in enumerate(images) if -image in gamma)
    try:
        ok = expand_psi(system, u, d1, d2) == gamma
    except ValidationError:
        ok = False
    if not ok:
        raise ClassificationError("set is not a twisted positive system of this kind")
    return u, d1, d2


def classify_finite_biclosed(system: CoxeterSystem, gamma):
    """Find (u, Δ1, Δ2) whose twisted positive system equals Γ ⊆ Φ, Φ finite.

    The witness is constructed directly, not searched: u is read off the
    positive system that Γ determines, and is the minimal representative of
    its coset u·W_{Δ1∪Δ2}, so the answer is unique.  There is no rank limit.
    Raises ClassificationError when Γ is not a twisted positive system.
    """
    if system.kind != "finite":
        raise DomainError("finite classification requires a finite system")
    return _decompose_psi(system, gamma)
