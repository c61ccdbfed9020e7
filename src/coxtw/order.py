"""The twisted weak order attached to a biclosed set B.

All comparisons reduce to finite symmetric-difference conditions on
inversion sets: x ≤_B y iff Φ_x ∖ Φ_y ⊆ B and (Φ_y ∖ Φ_x) ∩ B = ∅.
Chains, intervals and meets walk the up-covers w·s that `le` keeps below a
top.  For z ≤_B x, [z, x]_B = z·[e, z⁻¹x] is an ordinary weak-order
interval, so inside it every element but the top has an up-cover.
"""

from __future__ import annotations

import functools
import itertools
import operator
from bisect import bisect_left, bisect_right
from collections import namedtuple

from .biclosed import BiclosedOracle, Complement
from .elements import GroupElement, ball, identity, walk
from .errors import (ClassificationError, DomainError, JoinSearchError,
                     OrderError, UnsupportedOracleError)
from .infwords import classify

_WITNESS_GUARD = 100000


def twisted_length(w: GroupElement, oracle: BiclosedOracle) -> int:
    """l_B(w) = l(w) - 2|Φ_w ∩ B|."""
    if w.system.key != oracle.system.key:
        raise OrderError("twisted length needs a single common system")
    return w.length - 2 * oracle.members(w.inversion_mask()).bit_count()


def is_up_cover(w: GroupElement, s: int, oracle: BiclosedOracle) -> bool:
    """Does w·s cover w (twisted length goes up by one)?"""
    if w.system is not oracle.system and w.system.key != oracle.system.key:
        raise OrderError("cover test needs a single common system")
    rho = w.apply(w.system.simple_root(s))
    up = rho.is_positive
    return up != oracle.member(rho if up else -rho)


def cover_neighbors(w: GroupElement, oracle: BiclosedOracle):
    """(covers above w, covers below w), each sorted by generator index."""
    ups, downs = [], []
    for s in range(w.system.ngens):
        (ups if is_up_cover(w, s, oracle) else downs).append(walk(w, (s,)))
    return tuple(ups), tuple(downs)


def _below(a: int, b: int, inside: int) -> bool:
    """x ≤_B y, that is Φ_x ∖ Φ_y ⊆ B and (Φ_y ∖ Φ_x) ∩ B = ∅, for a = Φ_x, b = Φ_y
    and inside the B-bits of (at least) Φ_x △ Φ_y."""
    return not (a & ~b & ~inside or b & ~a & inside)


def le(x: GroupElement, y: GroupElement, oracle: BiclosedOracle) -> bool:
    """x ≤_B y."""
    if x.system.key != y.system.key or x.system.key != oracle.system.key:
        raise OrderError("order comparison needs a single common system")
    a, b = x.inversion_mask(), y.inversion_mask()
    return _below(a, b, oracle.members(a ^ b))


def _ups_below(w: GroupElement, oracle: BiclosedOracle, tops):
    """The up-covers w·s that lie ≤_B every element of tops, by generator index."""
    for s in range(w.system.ngens):
        if is_up_cover(w, s, oracle):
            u = walk(w, (s,))
            if all(le(u, t, oracle) for t in tops):
                yield u


def chain(x: GroupElement, y: GroupElement,
          oracle: BiclosedOracle) -> tuple[GroupElement, ...]:
    """A saturated cover chain from x up to y; fails unless x ≤_B y.

    Each step takes the first up-cover of z lying ≤_B y: the smallest s with
    z·s in [z, y]_B = z·[e, z⁻¹y] is the smallest left descent of z⁻¹y, so
    the chain spells the ShortLex word of x⁻¹y."""
    if not le(x, y, oracle):
        raise OrderError("chain endpoints are not comparable in this order")
    out = [x]
    while out[-1] != y:
        if (z := next(_ups_below(out[-1], oracle, (y,)), None)) is None:
            raise DomainError("no up-cover of the chain lies below its top")
        out.append(z)
    return tuple(out)


def interval(x: GroupElement, y: GroupElement,
             oracle: BiclosedOracle) -> tuple[GroupElement, ...]:
    """All z with x ≤_B z ≤_B y, sorted by (twisted length, length, word).

    [x, y]_B = x·[e, x⁻¹y] is graded by l_B, so its level k + 1 is the set of
    up-covers of level k that lie ≤_B y: the levels grow from x."""
    if not le(x, y, oracle):
        raise OrderError("interval endpoints are not comparable in this order")
    out, level = [x], [x]
    while level:
        level = list({u.matrix: u for w in level for u in _ups_below(w, oracle, (y,))}.values())
        out += level
    out.sort(key=lambda w: (twisted_length(w, oracle), w.length, w.word))
    return tuple(out)


def _witness_letters(oracle: BiclosedOracle):
    """The letters of a reduced witness word for B: finite, or prefix·period^∞."""
    cls = classify(oracle)
    if cls.kind == "finite":
        return cls.element.word
    if cls.kind == "infinite":
        return itertools.chain(cls.word.prefix, itertools.cycle(cls.word.period))
    raise UnsupportedOracleError(
        "B is not an inversion set, so no witness word exists"
    )


def _lower_bounds(oracle: BiclosedOracle, masks, pairs) -> list[GroupElement]:
    """For each pair (i, j) of indices into masks, the shortest prefix z of
    B's witness word with Φ_z ⊇ (Φ_i ∪ Φ_j) ∩ B, checked to lie ≤_B both,
    all off one walk.  Every letter must be an ascent, adding the inversion
    z(α_s), so the prefixes' Φ are nested: bisect."""
    union = functools.reduce(operator.or_, masks, 0)
    need = oracle.members(union)
    prefixes = [identity(oracle.system)]
    letters = itertools.islice(_witness_letters(oracle), _WITNESS_GUARD)
    while need & ~prefixes[-1].inversion_mask():
        if (s := next(letters, None)) is None:
            raise OrderError("witness word never covered the required inversions")
        z = walk(prefixes[-1], (s,))
        if prefixes[-1].inversion_mask() & ~z.inversion_mask():
            raise DomainError(f"witness letter {s} is not an ascent")
        prefixes.append(z)
    covers = [z.inversion_mask() for z in prefixes]
    inside = oracle.members(union | covers[-1])
    out = []
    for i, j in pairs:
        miss = (masks[i] | masks[j]) & inside
        n = bisect_left(covers, True, key=lambda c: not miss & ~c)
        if not (_below(covers[n], masks[i], inside) and _below(covers[n], masks[j], inside)):
            raise DomainError("witness prefix is not a common lower bound")
        out.append(prefixes[n])
    return out


def lower_bound(x: GroupElement, y: GroupElement,
                oracle: BiclosedOracle) -> GroupElement:
    """The shortest witness-word prefix z with Φ_z ⊇ (Φ_x ∪ Φ_y) ∩ B.

    Such a z satisfies z ≤_B x and z ≤_B y, and taking the shortest prefix
    makes it deterministic."""
    if x.system.key != y.system.key or x.system.key != oracle.system.key:
        raise OrderError("order comparison needs a single common system")
    return _lower_bounds(oracle, (x.inversion_mask(), y.inversion_mask()), ((0, 1),))[0]


def meet(x: GroupElement, y: GroupElement,
         oracle: BiclosedOracle) -> GroupElement:
    """Greatest lower bound of {x, y} in ≤_B, for B an inversion set.

    From z = `lower_bound(x, y)`, climb by up-covers lying ≤_B x and y.  They
    stay in [z, x]_B ∩ [z, y]_B = z·[e, z⁻¹x ∧ z⁻¹y], where only the top has
    no up-cover inside, so the climb ends at z·(z⁻¹x ∧ z⁻¹y)."""
    m = lower_bound(x, y, oracle)
    while (u := next(_ups_below(m, oracle, (x, y)), None)) is not None:
        m = u
    return m


_JOIN_SLACK = 4


def join(x: GroupElement, y: GroupElement,
         oracle: BiclosedOracle) -> GroupElement:
    """Least upper bound of {x, y} in ≤_B.

    ≤_{Φ⁺∖B} is the reverse order, so when the complement is an inversion
    set this is a meet there.  Otherwise upper bounds are searched in a
    ball of radius l(x)+l(y)+4; a unique minimal one below all others is
    returned, anything else raises JoinSearchError."""
    comp = Complement(oracle)   # fresh, so nothing of the oracle points back at it
    comp._classification = oracle._complement_classification
    try:
        cls = oracle._complement_classification = classify(comp)
    except ClassificationError:
        cls = None
    if cls is not None and cls.kind != "neither":
        return meet(x, y, comp)
    radius = x.length + y.length + _JOIN_SLACK
    bounds = [u for u in ball(x.system, radius)
              if le(x, u, oracle) and le(y, u, oracle)]
    if not bounds:
        raise JoinSearchError("no common upper bound within the search ball")
    bounds.sort(key=lambda u: twisted_length(u, oracle))
    m = bounds[0]
    for u in bounds[1:]:
        if not le(m, u, oracle):
            raise JoinSearchError("no least upper bound within the search ball")
    return m


# -- Hasse diagrams ----------------------------------------------------


class HasseGraph(namedtuple("HasseGraph", "nodes edges")):
    """Sorted (element, twisted length) nodes; (i, j) edges, lower first."""
    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "nodes": [{"word": list(w.word), "tlen": t} for w, t in self.nodes],
            "edges": [list(e) for e in self.edges],
        }

    def to_dot(self, labels: dict | None = None) -> str:
        lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=plaintext];"]
        for i, (w, _) in enumerate(self.nodes):
            text = labels[w] if labels is not None else w.label()
            lines.append(f'  n{i} [label="{text}"];')
        by_tlen: dict[int, list[int]] = {}
        for i, (_, t) in enumerate(self.nodes):
            by_tlen.setdefault(t, []).append(i)
        for t in sorted(by_tlen):
            row = "; ".join(f"n{i}" for i in by_tlen[t])
            lines.append(f"  {{ rank=same; {row}; }}")
        for i, j in self.edges:
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def hasse(oracle: BiclosedOracle, elements) -> HasseGraph:
    """Cover graph of ≤_B restricted to the given elements."""
    nodes = sorted(
        ((w, twisted_length(w, oracle)) for w in elements),
        key=lambda pair: (pair[1], pair[0].length, pair[0].word),
    )
    index = {w.matrix: i for i, (w, _) in enumerate(nodes)}
    edges = []
    for i, (w, _) in enumerate(nodes):
        for s in range(oracle.system.ngens):
            if is_up_cover(w, s, oracle):
                j = index.get(w.mul_simple(s).matrix)
                if j is not None:
                    edges.append((i, j))
    edges.sort()
    return HasseGraph(tuple(nodes), tuple(edges))


# -- semilattice checking ----------------------------------------------


class CheckResult(namedtuple("CheckResult", "status pair checked")):
    """status is "ok", "counterexample" or "inconclusive"."""
    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "pair": None if self.pair is None else
                    [list(self.pair[0].word), list(self.pair[1].word)],
            "checked": self.checked,
        }


def check_meet_semilattice(system, oracle: BiclosedOracle,
                           radius: int) -> CheckResult:
    """Search ball(radius) pairs for a meet failure.

    When B is an inversion set the theory bounds where a meet must live:
    z ≤_B m ≤_B x forces l(m) ≤ l(z) + l(z⁻¹x), and l(z⁻¹x) = |Φ_z △ Φ_x|,
    so searching up to that length catches it.  A pair whose bounded common
    lower bounds then have two maximal elements is a genuine counterexample,
    and a clean sweep is a proof over the ball ("ok").
    Otherwise lower bounds are only searched within ball(3·radius), and a
    clean sweep is merely "inconclusive"."""
    if system.key != oracle.system.key:
        raise OrderError("semilattice check needs a single common system")
    elems = ball(system, radius)
    try:
        sound = classify(oracle).kind != "neither"
    except ClassificationError:
        sound = False

    pairs = list(itertools.combinations(range(len(elems)), 2))
    cut = dict.fromkeys(pairs, 3 * radius)
    if sound:
        masks = [u.inversion_mask() for u in elems]
        for (i, j), z in zip(pairs, _lower_bounds(oracle, masks, pairs)):
            z = z.inversion_mask()
            cut[i, j] = z.bit_count() + min((z ^ masks[i]).bit_count(), (z ^ masks[j]).bit_count())
    # ball(radius) starts every larger ball, so the pair indices carry over,
    # and the ball is in length order, so each pair's candidates are a prefix
    big = ball(system, max([radius, *cut.values()]))
    masks = [u.inversion_mask() for u in big]
    inside = oracle.members(functools.reduce(operator.or_, masks))
    lengths = [u.length for u in big]
    tlen = [n - 2 * (m & inside).bit_count() for n, m in zip(lengths, masks)]
    for checked, (i, j) in enumerate(pairs, 1):
        lower = [t for t in range(bisect_right(lengths, cut[i, j]))
                 if _below(masks[t], masks[i], inside) and _below(masks[t], masks[j], inside)]
        # distinct comparable elements differ in l_B, so only one of largest
        # l_B can be the greatest lower bound
        top = max(lower, key=tlen.__getitem__, default=None)
        if top is None or not all(_below(masks[t], masks[top], inside) for t in lower):
            return CheckResult("counterexample", (elems[i], elems[j]), checked)
    return CheckResult("ok" if sound else "inconclusive", None, len(pairs))
