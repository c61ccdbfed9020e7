"""Eventually periodic reduced words and their (possibly infinite) inversion sets.

A word prefix·period^∞ is accepted only with a certificate: both parts
reduced and l(prefix·period^k) = l(prefix) + k·l(period) for k up to twice
the order m of the period's Weyl part.  Past that point the period powers are
pure translations, whose lengths grow linearly, so a defect would already
have shown up.  The word keeps period^m = t_μ only as its integer δ-row
((α_j, μ))_j, for the drift μ: membership needs nothing else.

The classifier inverts this: given a biclosed oracle it decides whether the
set is the inversion set of an element, of a validated infinite word, or of
nothing at all (witnessed by two roots whose finite parts are opposite).
"""

from __future__ import annotations

from collections import namedtuple

from .biclosed import (BiclosedOracle, HatForm, _decompose_psi,
                       _peel_inversion_set, level_displacement)
from .elements import (GroupElement, from_word, grow, identity, translation,
                       walk, weyl_part)
from .errors import ClassificationError, DomainError, NotReducedError
from .system import CoxeterSystem, Root

_ORDER_GUARD = 10000


def _pairing(drift, coeffs) -> int:
    """(β, μ) for β with the given simple-root coordinates: Σ_j β_j·(α_j, μ)."""
    return sum(c * d for c, d in zip(coeffs, drift))


class PeriodicWord:
    """A validated reduced word prefix·period^∞ (period may be empty)."""

    __slots__ = ("system", "prefix", "period", "prefix_el", "period_el",
                 "weyl_order", "drift", "_neg_powers")

    def __init__(self, system, prefix, period, prefix_el, period_el,
                 weyl_order, drift, neg_powers):
        self.system = system
        self.prefix = prefix
        self.period = period
        self.prefix_el = prefix_el
        self.period_el = period_el
        self.weyl_order = weyl_order
        self.drift = drift
        self._neg_powers = neg_powers

    def __repr__(self):
        return f"PeriodicWord({list(self.prefix)}; {list(self.period)})"

    def tail_member(self, sigma: Root) -> bool:
        """Is the positive root σ in Φ_{period^∞}?

        σ lies there iff some period^{-k} sends it negative.  Writing
        k = i·m + j with m the Weyl order, period^{-k}(σ) is
        period^{-j}(σ) − i·(σ, μ)·δ, so only the j < m and the sign of
        (fin σ, μ), a dot product with the drift row, matter."""
        if not self.period:
            return False
        if _pairing(self.drift, sigma.coeffs) > 0:
            return True
        return any(p.apply(sigma).is_negative for p in self._neg_powers[1:])

    def member(self, rho: Root) -> bool:
        """Is the positive root ρ an inversion of this infinite word?"""
        sigma = self.prefix_el.inverse().apply(rho)
        if sigma.is_negative:
            return True
        return self.tail_member(sigma)

    def tail_limit_roots(self) -> frozenset[Root]:
        """Finite roots β with (β, μ) > 0: their δ-strings end in Φ_{period^∞}."""
        if not self.period:
            return frozenset()
        return frozenset(
            beta for beta in self.system.finite_roots
            if _pairing(self.drift, beta.coeffs) > 0
        )


def validate_periodic(system: CoxeterSystem, prefix, period) -> PeriodicWord:
    """Check the reducedness certificate and package the word.

    Raises NotReducedError carrying the first failing power (0 when one of
    the two finite words is itself not reduced)."""
    prefix = tuple(int(s) for s in prefix)
    period = tuple(int(s) for s in period)
    prefix_el = from_word(system, prefix)
    if prefix_el.length != len(prefix):
        raise NotReducedError("prefix word is not reduced", failing_power=0)
    if not period:
        return PeriodicWord(system, prefix, period, prefix_el, None, 0,
                            None, ())
    period_el = from_word(system, period)
    if period_el.length != len(period):
        raise NotReducedError("period word is not reduced", failing_power=0)

    # one power loop: the order m of the period's Weyl part, and period^m = t_μ
    power, order = period_el, 1
    while not weyl_part(power).is_identity:
        if order >= _ORDER_GUARD:
            raise DomainError("element order exceeded the search guard")
        power, order = power * period_el, order + 1

    # Each walk records Φ, so no peel reads the length.  Every prefix of a
    # reduced word is reduced, so the first short walk names the failing
    # power; in a finite system one fails by k = m, as period^m is the identity.
    el = prefix_el
    for k in range(1, 2 * order + 1):
        el = walk(el, period)
        if el.length != len(prefix) + k * len(period):
            raise NotReducedError(f"word stops being reduced at period power {k}",
                                  failing_power=k)
    drift = power.matrix[system.rank_finite][:system.rank_finite]

    inv = period_el.inverse()
    neg_powers = [identity(system)]
    for _ in range(1, order):
        neg_powers.append(neg_powers[-1] * inv)
    return PeriodicWord(system, prefix, period, prefix_el, period_el,
                        order, drift, tuple(neg_powers))


class WordInvSet(BiclosedOracle):
    """The inversion set Φ_x of a validated eventually periodic word x."""

    def __init__(self, word: PeriodicWord):
        super().__init__(word.system)
        self.word = word

    def _member(self, rho: Root) -> bool:
        return self.word.member(rho)

    def key(self) -> str:
        pre = ",".join(str(s) for s in self.word.prefix)
        per = ",".join(str(s) for s in self.word.period)
        return f"word-inf[{pre};{per}]"

    def limit_roots(self) -> frozenset[Root]:
        pbar = weyl_part(self.word.prefix_el)
        return frozenset(pbar.apply(beta) for beta in self.word.tail_limit_roots())

    def stable_level(self) -> int:
        word = self.word
        disp = level_displacement(word.prefix_el.inverse())
        tail_disp = 0
        for p in word._neg_powers[1:]:
            tail_disp = max(tail_disp, level_displacement(p))
        return disp + tail_disp + 1


def limit_set(oracle: BiclosedOracle) -> frozenset[Root]:
    """I_B: finite roots whose δ-string is eventually in B.

    I_B is biclosed in the finite root system Φ, and the biclosed subsets of
    a finite Φ are exactly its twisted positive systems, so the limit set is
    certified by decomposing it as one."""
    raw = oracle.limit_roots()
    try:
        _decompose_psi(oracle.system, raw)
    except ClassificationError:
        raise DomainError(f"limit set of {oracle.key()} is not biclosed")
    return raw


class Classification(namedtuple("Classification", "kind element word bad_pair",
                                 defaults=(None, None, None))):
    """kind "finite" has an element, "infinite" a word, "neither" a bad_pair."""
    __slots__ = ()

    def witness_json(self):
        if self.kind == "finite":
            return list(self.element.word)
        if self.kind == "infinite":
            return {"prefix": list(self.word.prefix),
                    "period": list(self.word.period)}
        return [list(r.coeffs) + [r.delta] for r in self.bad_pair]


def _find_bad_pair(oracle: BiclosedOracle, overlap) -> tuple[Root, Root]:
    bound = max(oracle.stable_level(), 1) + 1
    alphas = sorted((a for a in overlap if a.is_positive), key=lambda r: r.key)
    for total in range(2, 2 * bound + 1):
        for k in range(max(1, total - bound), min(bound, total - 1) + 1):
            t = total - k
            for alpha in alphas:
                rho1 = Root(alpha.coeffs, k)
                rho2 = Root(tuple(-c for c in alpha.coeffs), t)
                if oracle.member(rho1) and oracle.member(rho2):
                    return rho1, rho2
    raise ClassificationError("limit overlap without a witnessing pair")


def _try_prefix(oracle: BiclosedOracle, limits, prefix: GroupElement,
                stable: int):
    system = oracle.system
    pbar_inv = weyl_part(prefix).inverse()
    j_set = frozenset(pbar_inv.apply(beta) for beta in limits)
    try:
        u, d1, _ = _decompose_psi(system, j_set)
    except ClassificationError:
        return None
    # t_{ū·λ} = u·t_λ·u⁻¹, for λ the dominant coweight vanishing on Δ1
    t_gamma = (u * translation(system, system.dominant_coweight_for(d1))
               * u.inverse())
    if t_gamma.is_identity:
        return None
    period = t_gamma.word
    try:
        pword = validate_periodic(system, prefix.word, period)
    except NotReducedError:
        return None
    cand = WordInvSet(pword)
    if cand.limit_roots() != limits:
        return None
    full = system.level_mask(max(stable, cand.stable_level()))
    return pword if oracle.members(full) == cand.members(full) else None


_PREFIX_SEARCH_LIMIT = 16


def classify(oracle: BiclosedOracle) -> Classification:
    """Decide whether B is Φ_x (finite x), Φ of an infinite word, or neither.

    Finite systems and empty limits are settled by reading the set's mask up
    to its stable level and peeling.  Otherwise prefixes p with Φ_p ⊆ B are
    searched in ShortLex order; each one proposes a translation period read
    off the limit set, and the first proposal whose inversion set matches B
    exactly (equal limits, equal membership up to both stable levels) wins.
    """
    if oracle._classification is not None:
        return oracle._classification
    system = oracle.system
    result = None
    limits = limit_set(oracle) if system.kind == "affine" else frozenset()
    overlap = limits & {-r for r in limits}
    if overlap:
        result = Classification("neither", bad_pair=_find_bad_pair(oracle, overlap))
    elif not limits:   # the level is moot on a finite system
        mask = oracle.members(system.level_mask(max(oracle.stable_level(), 1)))
        result = Classification("finite", element=_peel_inversion_set(system, mask))
    else:
        stable = max(oracle.stable_level(), 1)
        frontier = [identity(system)]
        depth = 0
        while frontier and result is None:
            for p in frontier:
                word = _try_prefix(oracle, limits, p, stable)
                if word is not None:
                    result = Classification("infinite", word=word)
                    break
            else:
                if depth >= _PREFIX_SEARCH_LIMIT:
                    break
                frontier = grow(system, frontier, oracle.member)
                depth += 1
        if result is None:
            raise ClassificationError(
                "no eventually periodic witness found within the prefix bound"
            )
    oracle._classification = result
    return result


def t_gamma_infinity(system: CoxeterSystem, gamma) -> tuple:
    """The inversion set of t_γ^∞ as a hat-form oracle, with its word.

    γ must be a nonzero coroot-lattice vector (simple-root coordinates)."""
    if system.kind != "affine":
        raise DomainError("infinite translation powers need an affine system")
    t_el = translation(system, gamma)
    if t_el.is_identity:
        raise DomainError("translation direction must be nonzero")
    word = validate_periodic(system, (), t_el.word)
    oracle = HatForm(system, *_decompose_psi(system, word.tail_limit_roots()))
    return oracle, word
