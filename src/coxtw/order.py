"""The twisted weak order attached to a biclosed set B.

All comparisons reduce to finite symmetric-difference conditions on
inversion sets: x ≤_B y iff Φ_x ∖ Φ_y ⊆ B and (Φ_y ∖ Φ_x) ∩ B = ∅.
Chains, intervals, meets and the semilattice check walk the up-covers w·s
that lie ≤_B a top, on masks: for z ≤_B x, [z, x]_B = z·[e, z⁻¹x] is an
ordinary weak-order interval, where every element but the top has one.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import namedtuple

from .biclosed import BiclosedOracle, Complement
from .elements import GroupElement, ball, identity, walk
from .errors import (ClassificationError, DomainError, JoinSearchError,
                     OrderError, ResourceError, UnsupportedOracleError)
from .infwords import classify

_WITNESS_GUARD = 100000


def _same_system(oracle: BiclosedOracle, *systems) -> None:
    """OrderError unless each system is B's: the same object, or else the same key."""
    for system in systems:
        if system is not oracle.system and system.key != oracle.system.key:
            raise OrderError("elements and biclosed set need a single common system")


def _has_witness(oracle: BiclosedOracle) -> bool:
    """Is B Φ of a finite or infinite reduced word?  False where `classify` finds none."""
    try:
        return classify(oracle).kind != "neither"
    except ClassificationError:
        return False


def twisted_length(w: GroupElement, oracle: BiclosedOracle) -> int:
    """l_B(w) = l(w) - 2|Φ_w ∩ B|."""
    _same_system(oracle, w.system)
    return w.length - 2 * oracle.members(w.inversion_mask()).bit_count()


def _cover(w: GroupElement, s: int, oracle: BiclosedOracle):
    """(w(α_s), Φ_ws, whether w·s covers w), off the signed bit b of w(α_s): w·s
    covers w iff the flipped root left Φ_w while in B (b < 0), or entered it while not."""
    image = w.columns[s]
    flip = 1 << (~b if (b := w.system.column_bit(image)) < 0 else b)
    return image, w.inversion_mask() ^ flip, (b < 0) == bool(oracle.members(flip))


def is_up_cover(w: GroupElement, s: int, oracle: BiclosedOracle) -> bool:
    """Does w·s cover w (twisted length goes up by one)?"""
    _same_system(oracle, w.system)
    return w.system.reflection(s) and _cover(w, s, oracle)[2]   # s validated first


def cover_neighbors(w: GroupElement, oracle: BiclosedOracle):
    """(covers above w, covers below w), each sorted by generator index."""
    _same_system(oracle, w.system)
    ups, downs = [], []
    for s in range(w.system.ngens):
        image, a, up = _cover(w, s, oracle)
        (ups if up else downs).append(w.mul_simple(s, image, a))
    return tuple(ups), tuple(downs)


def _below(a: int, b: int, inside: int) -> bool:
    """x ≤_B y, that is Φ_x ∖ Φ_y ⊆ B and (Φ_y ∖ Φ_x) ∩ B = ∅, for a = Φ_x, b = Φ_y
    and inside the B-bits of (at least) Φ_x △ Φ_y."""
    return not (a & ~b & ~inside or b & ~a & inside)


def le(x: GroupElement, y: GroupElement, oracle: BiclosedOracle) -> bool:
    """x ≤_B y."""
    _same_system(oracle, x.system, y.system)
    a, b = x.inversion_mask(), y.inversion_mask()
    return _below(a, b, oracle.members(a ^ b))


def _ups(level, oracle: BiclosedOracle, tops, test=all):
    """The up-covers w·s of the elements of level, each once, that lie ≤_B all (or,
    with test=any, some) elements of tops, decided on Φ_ws before w·s is built."""
    masks = [t.inversion_mask() for t in tops]
    union, seen = functools.reduce(operator.or_, masks, 0), set()
    for w in level:
        for s in range(w.system.ngens):
            image, a, up = _cover(w, s, oracle)
            if up and a not in seen:
                seen.add(a)
                inside = oracle.members(a | union)
                if test(_below(a, b, inside) for b in masks):
                    yield w.mul_simple(s, image, a)


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
        if (z := next(_ups([out[-1]], oracle, (y,)), None)) is None:
            raise DomainError("no up-cover of the chain lies below its top")
        out.append(z)
    return tuple(out)


def _up_set(x: GroupElement, oracle: BiclosedOracle, tops) -> list[GroupElement]:
    """x and every w with x ≤_B w ≤_B some element of tops, level by level: each
    [x, t]_B = x·[e, x⁻¹t] is graded by l_B, so level k + 1 of their union is the
    set of up-covers of level k that lie ≤_B some top."""
    out, level = [x], [x]
    while level:
        out += (level := list(_ups(level, oracle, tops, any)))
    return out


def interval(x: GroupElement, y: GroupElement,
             oracle: BiclosedOracle) -> tuple[GroupElement, ...]:
    """All z with x ≤_B z ≤_B y, sorted by (twisted length, length, word)."""
    if not le(x, y, oracle):
        raise OrderError("interval endpoints are not comparable in this order")
    return tuple(sorted(_up_set(x, oracle, (y,)),
                        key=lambda w: (twisted_length(w, oracle), w.length, w.word)))


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


def _lower_bound(oracle: BiclosedOracle, masks) -> GroupElement:
    """The shortest prefix z of B's witness word with Φ_z ⊇ (∪ masks) ∩ B,
    checked to lie ≤_B each mask's element.  Every letter must be an ascent,
    adding the inversion z(α_s) ∈ B, so each prefix lies ≤_B the last, and the
    word is walked in chunks as long as the number of inversions still missing, up
    to a cap of _WITNESS_GUARD letters (it covers any finite set in the end)."""
    union = functools.reduce(operator.or_, masks, 0)
    need = oracle.members(union)
    z = identity(oracle.system)
    letters = itertools.islice(_witness_letters(oracle), _WITNESS_GUARD)
    while missing := (need & ~z.inversion_mask()).bit_count():
        if not (chunk := list(itertools.islice(letters, missing))):
            raise ResourceError(f"witness word passed the cap of {_WITNESS_GUARD} letters")
        length, z = z.length, walk(z, chunk)
        if z.inversion_mask().bit_count() != length + len(chunk):
            raise DomainError(f"a witness letter of {chunk} is not an ascent")
    inside = oracle.members(union | z.inversion_mask())
    if not all(_below(z.inversion_mask(), m, inside) for m in masks):
        raise DomainError("witness prefix is not a common lower bound")
    return z


def lower_bound(x: GroupElement, y: GroupElement,
                oracle: BiclosedOracle) -> GroupElement:
    """The shortest witness-word prefix z with Φ_z ⊇ (Φ_x ∪ Φ_y) ∩ B.

    Such a z satisfies z ≤_B x and z ≤_B y, and taking the shortest prefix
    makes it deterministic."""
    _same_system(oracle, x.system, y.system)
    return _lower_bound(oracle, (x.inversion_mask(), y.inversion_mask()))


def meet(x: GroupElement, y: GroupElement,
         oracle: BiclosedOracle) -> GroupElement:
    """Greatest lower bound of {x, y} in ≤_B, for B an inversion set.

    From z = `lower_bound(x, y)`, climb by up-covers lying ≤_B x and y.  They
    stay in [z, x]_B ∩ [z, y]_B = z·[e, z⁻¹x ∧ z⁻¹y], where only the top has
    no up-cover inside, so the climb ends at z·(z⁻¹x ∧ z⁻¹y)."""
    m = lower_bound(x, y, oracle)
    while (u := next(_ups([m], oracle, (x, y)), None)) is not None:
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
    witnessed = _has_witness(comp)
    oracle._complement_classification = comp._classification
    if witnessed:
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
    index = {w.inversion_mask(): i for i, (w, _) in enumerate(nodes)}
    edges = sorted((i, index[a]) for i, (w, _) in enumerate(nodes) for s in range(w.system.ngens)
                   for _, a, up in [_cover(w, s, oracle)] if up and a in index)
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

    When B is an inversion set the theory says where a meet must live.  Let z
    be a witness prefix ≤_B every element of the ball, x and y two of them,
    and t a common lower bound.  A longer prefix z′ is ≤_B t, z, x and y, so
    [z′, x]_B ∩ [z′, y]_B = z′·([e, z′⁻¹x] ∩ [e, z′⁻¹y]) has a top m, the
    ordinary weak order being a meet semilattice.  That m is ≥_B t and ≥_B z,
    so it is also the top of the common lower bounds above z.  So the universe
    is the up-set of z below the ball; a pair whose lower bounds there have
    two maximal elements is a genuine counterexample, and a clean sweep is a
    proof over the ball ("ok").
    Otherwise lower bounds are only searched within ball(3·radius), and a
    clean sweep is merely "inconclusive"."""
    _same_system(oracle, system)
    elems = ball(system, radius)
    sound = _has_witness(oracle)

    pairs = list(itertools.combinations(range(len(elems)), 2))
    masks = [u.inversion_mask() for u in elems]
    # either universe holds the ball, so `inside` covers the ball's masks too
    universe = [u.inversion_mask() for u in (_up_set(_lower_bound(oracle, masks), oracle, elems)
                                             if sound else ball(system, 3 * radius))]
    inside = oracle.members(functools.reduce(operator.or_, universe))
    universe.sort(key=lambda m: m.bit_count() - 2 * (m & inside).bit_count())

    @functools.cache
    def under(b: int) -> int:
        """The indices t with universe[t] ≤_B b, as one bitmask."""
        return sum(1 << t for t, a in enumerate(universe) if _below(a, b, inside))

    for checked, (i, j) in enumerate(pairs, 1):
        lower = under(masks[i]) & under(masks[j])
        # distinct comparable elements differ in l_B, so only one of largest
        # l_B, such as the last in l_B order, can be the greatest lower bound
        if not lower or lower & ~under(universe[lower.bit_length() - 1]):
            return CheckResult("counterexample", (elems[i], elems[j]), checked)
    return CheckResult("ok" if sound else "inconclusive", None, len(pairs))
