"""Eventually periodic reduced words and their (possibly infinite) inversion sets.

A word prefix·period^∞ is accepted only with a certificate: both parts
reduced and l(prefix·period^k) = l(prefix) + k·l(period) for k up to twice
the order m of the period's Weyl part, read off the same walk.  Past that
point the period powers are pure translations, whose lengths grow linearly,
so a defect would already have shown up.  Of period^m = t_μ the word keeps
only the finite roots pairing positively with prefix·μ, as a pattern: with
Φ_prefix, they are its whole inversion set.

The classifier inverts this: given a biclosed oracle it decides whether the
set is the inversion set of an element, of a validated infinite word, or of
nothing at all (witnessed by two roots whose finite parts are opposite).
"""

from __future__ import annotations

from collections import namedtuple

from .biclosed import BiclosedOracle, HatForm, _decompose_psi
from .elements import GroupElement, ascend, from_word, grow, identity, translation, walk
from .errors import ClassificationError, DomainError, NotReducedError
from .system import CoxeterSystem, Root

_ORDER_GUARD = 10000


class PeriodicWord(namedtuple("PeriodicWord", "system prefix period prefix_el pattern")):
    """A validated reduced word x = prefix·period^∞ (period may be empty).

    Φ_x is Φ_prefix with the positive roots whose finite part is in `pattern`,
    those pairing positively with prefix·μ, for period^m = t_μ and m the order
    of the period's Weyl part.  For σ > 0 and k = i·m + j, period^{-k}(σ) is
    period^{-j}(σ) − i·(σ, μ)·δ; and Φ of period^j lies in Φ_{t_μ} for j ≤ m,
    whose roots all pair positively with μ.  So σ is in Φ_{period^∞} iff
    (σ, μ) > 0."""
    __slots__ = ()

    def __repr__(self):
        return f"PeriodicWord({list(self.prefix)}; {list(self.period)})"


def validate_periodic(system: CoxeterSystem, prefix, period) -> PeriodicWord:
    """Check the reducedness certificate and package the word.

    Raises NotReducedError carrying the first failing power (0 when the
    prefix is not reduced)."""
    prefix = tuple(int(s) for s in prefix)
    period = tuple(int(s) for s in period)
    prefix_el = from_word(system, prefix)
    if prefix_el.length != len(prefix):
        raise NotReducedError("prefix word is not reduced", failing_power=0)
    if not period:
        return PeriodicWord(system, prefix, period, prefix_el, 0)

    # One walk of prefix·period^k for k ≤ 2m.  Each step records Φ, so no word
    # is read for the length, and every prefix of a reduced word is reduced, so
    # the first short step names the failing power; in a finite system one fails
    # by k = m, as period^m is the identity.  The Weyl part is a homomorphism,
    # so m is the first k at which the finite block is the prefix's again.
    rank = system.rank_finite
    el, order, k = prefix_el, 0, 0
    while not order or k < 2 * order:
        k += 1
        el = walk(el, period)
        if el.length != len(prefix) + k * len(period):
            raise NotReducedError(f"word stops being reduced at period power {k}",
                                  failing_power=k)
        if order:
            continue
        if el.matrix[:rank] == prefix_el.matrix[:rank]:
            order, shifted = k, el   # prefix·t_μ
        elif k >= _ORDER_GUARD:
            raise DomainError("element order exceeded the search guard")
    row = (shifted * prefix_el.inverse()).matrix[rank][:rank]   # t_{prefix·μ}
    pattern = system.pattern(beta for beta in system.finite_roots
                             if sum(c * d for c, d in zip(beta.coeffs, row)) > 0)
    return PeriodicWord(system, prefix, period, prefix_el, pattern)


class WordInvSet(BiclosedOracle):
    """The inversion set Φ_x of a validated eventually periodic word x."""

    def __init__(self, word: PeriodicWord):
        mask = word.prefix_el.inversion_mask()
        super().__init__(word.system, word.pattern,
                         mask & ~word.system.periodic(word.pattern, mask))
        self.word = word

    def key(self) -> str:
        pre = ",".join(str(s) for s in self.word.prefix)
        per = ",".join(str(s) for s in self.word.period)
        return f"word-inf[{pre};{per}]"


def _limit_pattern(oracle: BiclosedOracle) -> int:
    """The pattern of I_B, certified: I_B is biclosed in the finite root
    system Φ, and the biclosed subsets of a finite Φ are exactly its twisted
    positive systems, so the pattern must decompose as one."""
    try:
        _decompose_psi(oracle.system, oracle.pattern)
    except ClassificationError:
        raise DomainError(f"limit set of {oracle.key()} is not biclosed")
    return oracle.pattern


def limit_set(oracle: BiclosedOracle) -> frozenset[Root]:
    """I_B, the finite roots whose δ-string is eventually in B, certified (`_limit_pattern`)."""
    return oracle.system.pattern_roots(_limit_pattern(oracle))


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


def _find_bad_pair(oracle: BiclosedOracle, overlap: int) -> tuple[Root, Root]:
    """The first α+kδ, −α+tδ in B by k+t, then k, then α, for α the i-th positive
    root, i a bit of overlap: bits 2Nk+i and 2Nt−N+i of one `members` mask."""
    system, bound = oracle.system, oracle.stable_level() + 1
    n = len(system.positive_roots)
    inside = oracle.members(system.level_mask(bound))
    for total in range(2, 2 * bound + 1):
        for k in range(max(1, total - bound), min(bound, total - 1) + 1):
            t = total - k
            if hits := overlap & inside >> 2 * n * k & inside >> 2 * n * t - n:
                i = (hits & -hits).bit_length() - 1
                return system.bit_root(2 * n * k + i), system.bit_root(2 * n * t - n + i)
    raise ClassificationError("limit overlap without a witnessing pair")


def _try_prefix(oracle: BiclosedOracle, prefix: GroupElement):
    system = oracle.system
    j_set = system.moved_pattern(prefix.inverse().matrix, oracle.pattern)   # p̄⁻¹·I_B
    try:
        u, d1, _ = _decompose_psi(system, j_set)
    except ClassificationError:
        return None
    # t_{ū·λ} = u·t_λ·u⁻¹, for λ the dominant coweight vanishing on Δ1
    t_gamma = (u * translation(system, system.dominant_coweight_for(d1))
               * u.inverse())
    period = t_gamma.word
    try:
        pword = validate_periodic(system, prefix.word, period)
    except NotReducedError:
        return None
    cand = WordInvSet(pword)   # both pairs are canonical, so this is B = Φ_x
    same = (cand.pattern, cand.exceptions) == (oracle.pattern, oracle.exceptions)
    return pword if same else None


_PREFIX_SEARCH_LIMIT = 16


def classify(oracle: BiclosedOracle) -> Classification:
    """Decide whether B is Φ_x (finite x), Φ of an infinite word, or neither.

    The limit pattern is certified first; one holding some ±α is settled by
    a bad pair read off one mask, and finite systems and empty limits by
    ascending inside the set's mask up to its stable level.  Otherwise
    prefixes p with Φ_p ⊆ B are searched in ShortLex order, bit by bit; each
    one proposes a translation period read off the limit set, and the first
    proposal whose inversion set is B (the same pattern and exceptions) wins.
    """
    if oracle._classification is not None:
        return oracle._classification
    system = oracle.system
    result = None
    limits = _limit_pattern(oracle) if system.kind == "affine" else 0
    if overlap := limits & limits >> len(system.positive_roots):   # ±α_i: bits i, N+i
        result = Classification("neither", bad_pair=_find_bad_pair(oracle, overlap))
    elif not limits:   # the level is moot on a finite system
        mask = oracle.members(system.level_mask(oracle.stable_level()))
        if (x := ascend(system, mask)).inversion_mask() != mask:   # ends at x iff mask is Φ_x
            raise ClassificationError("set is not the inversion set of an element")
        result = Classification("finite", element=x)
    else:
        frontier, depth = [identity(system)], 0
        while frontier and result is None:
            for p in frontier:
                word = _try_prefix(oracle, p)
                if word is not None:
                    result = Classification("infinite", word=word)
                    break
            else:
                if depth >= _PREFIX_SEARCH_LIMIT:
                    break
                frontier = grow(system, frontier, lambda b: oracle.members(1 << b))
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
    oracle = HatForm(system, *_decompose_psi(system, word.pattern))
    return oracle, word
