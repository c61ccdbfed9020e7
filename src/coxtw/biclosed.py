"""Membership oracles for biclosed sets of positive roots, and closure checks.

Oracles answer membership for arbitrary positive roots of the system, so a
single object can describe an infinite subset of an affine positive system.
Every oracle also reports its limit roots (the finite roots α whose string
α + nδ eventually stays inside or outside the set) and a stable level from
which that eventual behaviour has set in.

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


def level_displacement(w: GroupElement) -> int:
    """max |δ-level of w(β)| over the finite roots β."""
    if w.system.kind != "affine":
        return 0
    return max(abs(w.apply(beta).delta) for beta in w.system.finite_roots)


class BiclosedOracle:
    """Base class: validates roots, and memoizes membership in two root masks."""

    def __init__(self, system: CoxeterSystem):
        self.system = system
        self._known = self._inside = 0   # the bits decided, and those in B
        self._raw_tlen: dict = {}
        self._classification = None
        self._complement_classification = None   # kept for `order.join`

    def member(self, rho: Root) -> bool:
        return bool(self.members(1 << self.system.root_bit(rho)))

    def members(self, mask: int) -> int:
        """The bits of mask whose roots lie in B, deciding the new ones one by one."""
        todo = mask & ~self._known
        while todo:
            low = todo & -todo
            if self._member(self.system.bit_root(low.bit_length() - 1)):
                self._inside |= low
            todo ^= low
        self._known |= mask
        return mask & self._inside

    def _member(self, rho: Root) -> bool:
        raise NotImplementedError

    def key(self) -> str:
        raise NotImplementedError

    def limit_roots(self) -> frozenset[Root]:
        """Finite roots whose δ-string is eventually inside the set."""
        raise NotImplementedError

    def stable_level(self) -> int:
        """Level L so that for n >= L, membership of α + nδ matches limit_roots."""
        raise NotImplementedError

    def __repr__(self):
        return self.key()


class Explicit(BiclosedOracle):
    """A finite, explicitly listed set of positive roots."""

    def __init__(self, system: CoxeterSystem, roots):
        super().__init__(system)
        roots = frozenset(roots)
        for rho in roots:
            if not rho.is_positive or not system.is_root(rho):
                raise ValidationError(f"{rho} is not a positive root of this system")
        self.roots = roots

    def _member(self, rho: Root) -> bool:
        return rho in self.roots

    def key(self) -> str:
        body = ",".join(r.literal() for r in sorted(self.roots, key=lambda r: r.key))
        return f"explicit[{body}]"

    def limit_roots(self) -> frozenset[Root]:
        return frozenset()

    def stable_level(self) -> int:
        return max((r.delta for r in self.roots), default=0) + 1


class HatForm(BiclosedOracle):
    """hat(Ψ⁺) for the twisted positive system u((Φ⁺ ∖ R≥0Δ1) ∪ RΔ2∩Φ).

    Δ1 and Δ2 are disjoint index sets of simple roots, orthogonal to each
    other; u is an element of the finite Weyl subgroup.
    """

    def __init__(self, system: CoxeterSystem, u: GroupElement, delta1, delta2):
        super().__init__(system)
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

    def _member(self, rho: Root) -> bool:
        return rho.fin() in self.positive_system

    def key(self) -> str:
        word = ",".join(str(s) for s in self.u.word)
        d1 = ",".join(str(i) for i in sorted(self.delta1))
        d2 = ",".join(str(i) for i in sorted(self.delta2))
        return f"hat[{word}|{d1}|{d2}]"

    def limit_roots(self) -> frozenset[Root]:
        return self.positive_system

    def stable_level(self) -> int:
        return 1


class Twisted(BiclosedOracle):
    """w·B = (Φ_w ∖ w(-B)) ∪ (w(B) ∖ -Φ_w), answered through w⁻¹."""

    def __init__(self, w: GroupElement, inner: BiclosedOracle):
        super().__init__(inner.system)
        if w.system.key != inner.system.key:
            raise DomainError("element and oracle belong to different systems")
        self.w = w
        self.inner = inner
        self._w_inv = w.inverse()

    def _member(self, rho: Root) -> bool:
        sigma = self._w_inv.apply(rho)
        if sigma.is_positive:
            return self.inner.member(sigma)
        return not self.inner.member(-sigma)

    def key(self) -> str:
        word = ",".join(str(s) for s in self.w.word)
        return f"twist[{word}]({self.inner.key()})"

    def limit_roots(self) -> frozenset[Root]:
        wbar = weyl_part(self.w)
        return frozenset(wbar.apply(alpha) for alpha in self.inner.limit_roots())

    def stable_level(self) -> int:
        return self.inner.stable_level() + level_displacement(self._w_inv)


class Complement(BiclosedOracle):
    """Φ⁺ ∖ B."""

    def __init__(self, inner: BiclosedOracle):
        super().__init__(inner.system)
        self.inner = inner

    def _member(self, rho: Root) -> bool:
        return not self.inner.member(rho)

    def key(self) -> str:
        return f"complement({self.inner.key()})"

    def limit_roots(self) -> frozenset[Root]:
        return frozenset(self.system.finite_roots) - self.inner.limit_roots()

    def stable_level(self) -> int:
        return self.inner.stable_level()


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
