"""The twisted weak order attached to a biclosed set B.

All comparisons reduce to finite symmetric-difference conditions on
inversion sets: x ≤_B y iff Φ_x ∖ Φ_y ⊆ B and (Φ_y ∖ Φ_x) ∩ B = ∅.
Chains, intervals, meets and the semilattice check read the weak order seen
from an anchor z ≤_B x: [z, x]_B = z·[e, z⁻¹x] is {u : Φ_z △ Φ_u ⊆ Φ_z △ Φ_x},
so w·s is in [w, x]_B iff the root it flips lies in Φ_w △ Φ_x, with no B in it.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import namedtuple

from .biclosed import BiclosedOracle, Complement
from .elements import GroupElement, ascend, ball, identity, walk
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


def _toward(w: GroupElement, tops):
    """The w·s, s ascending, that lie ≤_B every top, for w ≤_B each: those whose
    flipped root lies in ∩ₜ(Φ_w △ Φ_t), with no oracle query."""
    a = w.inversion_mask()
    room = functools.reduce(operator.and_, (a ^ t.inversion_mask() for t in tops))
    for s, (image, b) in enumerate(zip(w.columns, w.system.column_bits(w.columns))):
        if room & (flip := 1 << (~b if b < 0 else b)):
            yield w.mul_simple(s, image, a ^ flip)


def _frame(z: GroupElement, tops):
    """Yield (u, the masks of u's down-covers) once for each u in ∪ₜ [z, t]_B, for z ≤_B each
    top: the tops closed under the u·s whose flipped root lies in Φ_z △ Φ_u, the u·s in [z, u]_B.
    It holds the elements not yet expanded and one int per mask seen, which every list shares."""
    zm, column_bits = z.inversion_mask(), z.system.column_bits
    todo = list({t.inversion_mask(): t for t in tops}.values())
    seen = {a: a for a in map(GroupElement.inversion_mask, todo)}
    while todo:
        u, downs = todo.pop(), []
        room = zm ^ (a := u.inversion_mask())
        for s, (image, b) in enumerate(zip(u.columns, column_bits(u.columns))):
            if room & (flip := 1 << (~b if b < 0 else b)):
                if (d := a ^ flip) not in seen:
                    seen[d] = d
                    todo.append(u.mul_simple(s, image, d))
                downs.append(seen[d])
        yield u, downs


def chain(x: GroupElement, y: GroupElement,
          oracle: BiclosedOracle) -> tuple[GroupElement, ...]:
    """A saturated cover chain from x up to y; fails unless x ≤_B y.

    Each step takes the first w·s toward y: the smallest s with w·s in
    [w, y]_B = w·[e, w⁻¹y] is the smallest left descent of w⁻¹y, so the chain
    spells the ShortLex word of x⁻¹y."""
    if not le(x, y, oracle):
        raise OrderError("chain endpoints are not comparable in this order")
    out = [x]
    while out[-1] != y:
        if (z := next(_toward(out[-1], (y,)), None)) is None:
            raise DomainError("no up-cover of the chain lies below its top")
        out.append(z)
    return tuple(out)


def interval(x: GroupElement, y: GroupElement,
             oracle: BiclosedOracle) -> tuple[GroupElement, ...]:
    """All z with x ≤_B z ≤_B y, sorted by (twisted length, length, word): the
    frame of x below y, where l_B(z) − l_B(x) = |Φ_x △ Φ_z|."""
    if not le(x, y, oracle):
        raise OrderError("interval endpoints are not comparable in this order")
    xm = x.inversion_mask()
    return tuple(sorted((u for u, _ in _frame(x, (y,))),
                        key=lambda u: ((xm ^ u.inversion_mask()).bit_count(), u.length, u.word)))


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

    From z = `lower_bound(x, y)`, climb by the m·s toward x and y, whose
    flipped root lies in (Φ_m △ Φ_x) ∩ (Φ_m △ Φ_y).  They stay in
    [z, x]_B ∩ [z, y]_B = z·[e, z⁻¹x ∧ z⁻¹y], where only the top has no up-cover
    inside, so the climb ends at z·(z⁻¹x ∧ z⁻¹y), with no oracle query past z."""
    m = lower_bound(x, y, oracle)
    while (u := next(_toward(m, (x, y)), None)) is not None:
        m = u
    return m


_JOIN_SLACK = 4


def join(x: GroupElement, y: GroupElement,
         oracle: BiclosedOracle) -> GroupElement:
    """Least upper bound of {x, y} in ≤_B.

    ≤_{Φ⁺∖B} is the reverse order, so this is a meet there: `meet` when the
    complement is an inversion set, else the check's bounded search of
    ball(l(x)+l(y)+4) in that order (`_ball_order`), which raises
    JoinSearchError unless one common upper bound lies below all the others."""
    _same_system(oracle, x.system, y.system)
    comp = Complement(oracle)   # fresh, so nothing of the oracle points back at it
    comp._classification = oracle._complement_classification
    witnessed = _has_witness(comp)
    oracle._complement_classification = comp._classification
    if witnessed:
        return meet(x, y, comp)
    universe, under, size = _ball_order(comp, x.length + y.length + _JOIN_SLACK)
    if not (upper := under(x.inversion_mask()) & under(y.inversion_mask())):
        raise JoinSearchError("no common upper bound within the search ball")
    if upper.bit_count() != size(top := upper.bit_length() - 1):
        raise JoinSearchError("no least upper bound within the search ball")
    return ascend(x.system, universe[top])


# -- Hasse diagrams ----------------------------------------------------


class HasseGraph(namedtuple("HasseGraph", "nodes edges")):
    """(element, twisted length) nodes, sorted by twisted length first; (i, j) edges, lower first."""
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
        for _, rank in itertools.groupby(enumerate(self.nodes), key=lambda node: node[1][1]):
            row = "; ".join(f"n{i}" for i, _ in rank)
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


def _lower_sets(z: GroupElement, tops):
    """The frame of z below tops in l_B order, by |Φ_z △ Φ_u|, the v ≤_B u there as one bitmask
    of indices for each top u, and their number for each u by index: [z, u]_B is graded and
    connected by covers, so that is u's own bit or-ed with its down-covers', level by level."""
    zm, frame = z.inversion_mask(), {u.inversion_mask(): downs for u, downs in _frame(z, tops)}
    universe = sorted(frame, key=lambda a: (zm ^ a).bit_count())
    kept, sizes, level, below, here = dict.fromkeys(t.inversion_mask() for t in tops), [], 0, {}, {}
    for i, a in enumerate(universe):
        if (k := (zm ^ a).bit_count()) != level:
            level, below, here = k, here, {}
        here[a] = m = functools.reduce(operator.or_, (below[d] for d in frame[a]), 1 << i)
        sizes.append(m.bit_count())
        if a in kept:
            kept[a] = m
    return universe, kept.__getitem__, sizes.__getitem__


def _ball_order(oracle: BiclosedOracle, radius: int):
    """The masks of ball(radius) sorted by l_B, off one `members` call over their
    union, a cached lookup: for b the mask of a ball element, the indices t with
    universe[t] ≤_B b, as one bitmask, and the number of those by b's index."""
    universe = [u.inversion_mask() for u in ball(oracle.system, radius)]
    inside = oracle.members(functools.reduce(operator.or_, universe))
    universe.sort(key=lambda m: m.bit_count() - 2 * (m & inside).bit_count())
    under = functools.cache(
        lambda b: sum(1 << t for t, a in enumerate(universe) if _below(a, b, inside)))
    return universe, under, lambda i: under(universe[i]).bit_count()


def check_meet_semilattice(system, oracle: BiclosedOracle,
                           radius: int) -> CheckResult:
    """Search ball(radius) pairs for a meet failure.

    When B is an inversion set the theory says where a meet must live.  Let z
    be a witness prefix ≤_B every element of the ball, x and y two of them,
    and t a common lower bound.  A longer prefix z′ is ≤_B t, z, x and y, so
    [z′, x]_B ∩ [z′, y]_B = z′·([e, z′⁻¹x] ∩ [e, z′⁻¹y]) has a top m, the
    ordinary weak order being a meet semilattice.  That m is ≥_B t and ≥_B z,
    so it is also the top of the common lower bounds above z.  So the universe
    is the frame of z below the ball, where v ≤_B u iff v lies in [z, u]_B,
    read off the down-covers (`_lower_sets`); a pair whose lower bounds there
    have two maximal elements is a genuine counterexample, and a clean sweep is
    a proof over the ball ("ok").
    Otherwise lower bounds are only searched within ball(3·radius)
    (`_ball_order`), and a clean sweep is merely "inconclusive"."""
    _same_system(oracle, system)
    elems = ball(system, radius)
    sound = _has_witness(oracle)

    n, masks = len(elems), [u.inversion_mask() for u in elems]
    if sound:
        _, under, size = _lower_sets(_lower_bound(oracle, masks), elems)
    else:
        _, under, size = _ball_order(oracle, 3 * radius)

    for checked, (i, j) in enumerate(itertools.combinations(range(n), 2), 1):
        lower = under(masks[i]) & under(masks[j])
        # distinct comparable elements differ in l_B, so only one of largest
        # l_B, such as the last in l_B order, can be the greatest lower bound;
        # its own lower set lies inside lower, so it is iff the two have one size
        if not lower or lower.bit_count() != size(lower.bit_length() - 1):
            return CheckResult("counterexample", (elems[i], elems[j]), checked)
    return CheckResult("ok" if sound else "inconclusive", None, n * (n - 1) // 2)
