"""Eventually periodic reduced words and their (possibly infinite) inversion sets.

A word prefix·period^∞ is accepted only with a certificate: both parts reduced and
l(prefix·period^k) = l(prefix) + k·l(period) for k up to 2m − 1, m the order of the
period's Weyl part, read off the same walk; `_certify` proves that every later power
follows.  Of period^m = t_μ the word keeps only the finite roots pairing positively
with prefix·μ, as a pattern: with Φ_prefix, they are its whole inversion set.

The classifier inverts this, in integers: given a biclosed oracle it decides
whether the set is the inversion set of an element, of a validated infinite
word, or of nothing at all (witnessed by two roots with opposite finite parts).
"""

from __future__ import annotations

from collections import namedtuple
from operator import index, mul

from .biclosed import BiclosedOracle, HatForm, _decompose_psi
from .elements import (GroupElement, _translation, ascend, from_word, grow, identity,
                       translation, walk)
from .errors import ClassificationError, DomainError, NotReducedError
from .system import CoxeterSystem, Root


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
    # each letter is checked as a walk checks it, and kept as an int
    prefix, period = (tuple(system.reflection(s) and index(s) for s in word)
                      for word in (prefix, period))
    prefix_el = from_word(system, prefix)
    if prefix_el.length != len(prefix):
        raise NotReducedError("prefix word is not reduced", failing_power=0)
    if not period:
        return PeriodicWord(system, prefix, period, prefix_el, 0)
    return _certify(prefix, period, prefix_el, walk(prefix_el, period))


def _certify(prefix: tuple, period: tuple, prefix_el: GroupElement, el: GroupElement):
    """The rest of `validate_periodic` from el = prefix·period, already walked: one walk
    of prefix·period^k for k ≤ 2m − 1.  Each step records Φ, so no word is read for the
    length, and every prefix of a reduced word is reduced, so the first short step names
    the failing power.  The Weyl part is a homomorphism, so m is the first k at which
    each column of prefix·period^k less the prefix's is 0 off its top entry, which is
    (α_j, μ) for period^m = t_μ.  m ≤ 2,520 on every system that can be built (the
    largest element order, of W(B26); S27 reaches only 1,540), and on a finite system,
    where period^m = e, the length check fails first, once k·|period| exceeds N.

    Later powers follow: for q = prefix·period^j, j < m, and q̄ its Weyl part, Iwahori–
    Matsumoto (Publ. Math. IHÉS 25, 1965) give l(q·t_μ^i) = Σ_{α>0} |a_α + i·b_α|, with
    b_α = (q̄(μ), α) and a_α free of i, against l(q) + i·l(t_μ) = Σ|a_α| + i·Σ|b_α|: equal
    for all i ≥ 1 iff a_α·b_α ≥ 0 for each α, iff equal at i = 1, at power j + m ≤ 2m − 1."""
    system, rank, k, last = prefix_el.system, prefix_el.system.rank_finite, 1, None
    while True:
        if el.inversion_mask().bit_count() != len(prefix) + k * len(period):
            raise NotReducedError(f"word stops being reduced at period power {k}", failing_power=k)
        if last is None:
            diffs = [system.unpack(a - b) for a, b in zip(el.columns[:rank], prefix_el.columns)]
            if not any(x for d in diffs for x in d[:rank]):
                last, mu = 2 * k - 1, [d[rank] for d in diffs]
        if k == last:
            break
        el, k = walk(el, period), k + 1
    # prefix moves {β : (β, μ) > 0} onto {β : (β, prefix·μ) > 0}
    pattern = system.moved_pattern(prefix_el.columns, system.pattern(
        beta for beta in system.finite_roots if sum(map(mul, beta.coeffs, mu)) > 0))
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


def _certified_limit(oracle: BiclosedOracle):
    """The pattern of I_B and its (u, Δ1, Δ2), which certify it: I_B is biclosed in
    the finite root system Φ, and the biclosed subsets of a finite Φ are exactly
    its twisted positive systems, so the pattern must decompose as one."""
    try:
        return oracle.pattern, _decompose_psi(oracle.system, oracle.pattern)
    except ClassificationError:
        raise DomainError(f"limit set of {oracle.key()} is not biclosed")


def limit_set(oracle: BiclosedOracle) -> frozenset[Root]:
    """I_B, the finite roots whose δ-string is eventually in B, certified (`_certified_limit`)."""
    return oracle.system.pattern_roots(_certified_limit(oracle)[0])


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


def _try_prefix(oracle: BiclosedOracle, prefix: GroupElement, limit):
    """p·t^∞ if its Φ is B, else None, for t = `_proposed_period` of the (u, Δ1, Δ2) of
    p̄⁻¹·I_B (`limit` at p = e); reading t's word walks it, so at p = e it is power 1."""
    system = oracle.system
    try:
        u, d1, _ = limit if prefix.is_identity else _decompose_psi(
            system, system.moved_pattern(prefix.inverse().columns, oracle.pattern))
        period = (t := _proposed_period(system, u, d1)).word
        pword = _certify(prefix.word, period, prefix,
                         t if prefix.is_identity else walk(prefix, period))
    except (ClassificationError, NotReducedError):   # no decomposition, or not reduced
        return None
    cand = WordInvSet(pword)   # both pairs are canonical, so this is B = Φ_x
    same = (cand.pattern, cand.exceptions) == (oracle.pattern, oracle.exceptions)
    return pword if same else None


def _proposed_period(system: CoxeterSystem, u: GroupElement, d1) -> GroupElement:
    """t_(ū·λ) = u·t_λ·u⁻¹ for λ = `dominant_coweight_for`(Δ1), in integers.  For
    G = `gram` = s·(form), N = det G and c the connection index, λ = (s/N)·Σ_i σ_i·α_i
    with σ_i = c·Σ_(m∉Δ1) (adj G)[m][i], so p_j = (α_j, ū·λ) = (Σ_i σ_i·ū(α_i), α_j)_G / N,
    off u's packed columns.  ū·λ = s·adj G·p / N and α_i = (G_ii / 2s)·α_i^∨, so its
    coroot coordinates are (adj G·p)_i·G_ii / 2N; an inexact division is a DomainError."""
    (gram, adj, n), k, c = system.integer_form, system.rank_finite, system.connection_index
    sigma = [c * sum(x for m, x in enumerate(row) if m not in d1) for row in adj]   # adj G = adj Gᵀ
    images = zip(*(system.unpack(col)[:k] for col in u.columns[:k]))   # the rows of ū
    moved = [sum(map(mul, sigma, row)) for row in images]   # Σ_i σ_i·ū(α_i)
    pairs, rems = zip(*(divmod(sum(map(mul, moved, row)), n) for row in gram))
    if any(rems) or any(sum(map(mul, row, pairs)) * gram[i][i] % (2 * n)
                        for i, row in enumerate(adj)):
        raise DomainError("translation vector is not in the coroot lattice")
    return _translation(system, pairs)


_PREFIX_SEARCH_LIMIT = 16


def classify(oracle: BiclosedOracle) -> Classification:
    """Decide whether B is Φ_x (finite x), Φ of an infinite word, or neither.

    The limit pattern is certified first; one holding some ±α is settled by
    a bad pair read off one mask, and finite systems and empty limits by
    ascending inside the set's mask up to its stable level.  Otherwise
    prefixes p with Φ_p ⊆ B are searched in ShortLex order, bit by bit; each
    one proposes a translation period built in integers off the limit set, and the
    first proposal whose inversion set is B (the same pattern and exceptions) wins.
    """
    if oracle._classification is not None:
        return oracle._classification
    system = oracle.system
    limits, limit = _certified_limit(oracle) if system.kind == "affine" else (0, None)
    if overlap := limits & limits >> len(system.positive_roots):   # ±α_i: bits i, N+i
        result = Classification("neither", bad_pair=_find_bad_pair(oracle, overlap))
    elif not limits:   # the level is moot on a finite system
        mask = oracle.members(system.level_mask(oracle.stable_level()))
        if (x := ascend(system, mask)).inversion_mask() != mask:   # ends at x iff mask is Φ_x
            raise ClassificationError("set is not the inversion set of an element")
        result = Classification("finite", element=x)
    else:
        frontier = [identity(system)]
        for depth in range(_PREFIX_SEARCH_LIMIT + 1):
            if depth:
                frontier = grow(system, frontier, lambda b: oracle.members(1 << b))
            if word := next(filter(None, (_try_prefix(oracle, p, limit) for p in frontier)), None):
                break
        else:
            raise ClassificationError("no eventually periodic witness found within the prefix bound")
        result = Classification("infinite", word=word)
    oracle._classification = result
    return result


def t_gamma_infinity(system: CoxeterSystem, gamma) -> tuple:
    """The inversion set of t_γ^∞ as a hat-form oracle, with its word.

    γ must be a nonzero coroot-lattice vector (simple-root coordinates)."""
    if system.kind != "affine":
        raise DomainError("infinite translation powers need an affine system")
    if (t_el := translation(system, gamma)).is_identity:
        raise DomainError("translation direction must be nonzero")
    word = _certify((), t_el.word, identity(system), t_el)   # reading the word walks power 1
    return HatForm(system, *_decompose_psi(system, word.pattern)), word
