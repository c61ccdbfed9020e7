"""Independent cross-checks for the order primitives.

Everything here recomputes from scratch: twisted length by a raw scan over
positive roots, comparability by breadth-first search along unit
twisted-length steps, meets by exhaustive bounded search.  None of it uses
the inversion-set subset tests in `order`, which is the point: agreement
over a battery of oracles is evidence that both sides are right.
"""

from __future__ import annotations

from . import elements
from .biclosed import BiclosedOracle, Complement, Explicit, HatForm, Twisted
from .elements import (GroupElement, ascend, ball, identity, simple,
                       translation)
from .errors import ClassificationError, DomainError
from .infwords import WordInvSet, classify, validate_periodic
from .order import le, meet, twisted_length
from .system import CoxeterSystem


def oracle_tlen(w: GroupElement, oracle: BiclosedOracle) -> int:
    """Twisted length recomputed by scanning positive roots directly.

    An inversion of w has δ-level below 2·l(w), since each letter of a
    reduced word moves levels by at most two; the scan checks that it saw
    exactly l(w) of them."""
    memo = oracle._raw_tlen
    hit = memo.get(w.matrix)
    if hit is not None:
        return hit
    system = w.system
    winv = w.inverse()
    if system.kind == "finite":
        roots = system.positive_roots
    else:
        roots = system.positive_roots_up_to(2 * w.length + 1)
    total = inside = 0
    for rho in roots:
        if winv.apply(rho).is_negative:
            total += 1
            if oracle.member(rho):
                inside += 1
    if total != w.length:
        raise DomainError("root scan level bound is wrong")
    val = w.length - 2 * inside
    if len(memo) >= elements._TABLE_BOUND:
        memo.clear()
    memo[w.matrix] = val
    return val


# Right neighbours by (system key, matrix), bounded as the tables of `elements`:
# held here, not on the system, so that no system points at its own elements.
_NEIGHBORS: dict = {}


def _neighbors(w: GroupElement):
    key = (w.system.key, w.matrix)
    hit = _NEIGHBORS.get(key)
    if hit is None:
        if len(_NEIGHBORS) >= elements._TABLE_BOUND:
            _NEIGHBORS.clear()
        hit = _NEIGHBORS[key] = tuple(w.mul_simple(s) for s in range(w.system.ngens))
    return hit


def oracle_le(x: GroupElement, y: GroupElement, oracle: BiclosedOracle) -> bool:
    """x ≤_B y decided by searching for a chain of unit up-steps.

    Any element on a saturated chain from x to y has its inversion set
    inside Φ_x ∪ Φ_y, hence length at most l(x)+l(y); a search out to that
    radius is therefore complete."""
    if x.system.key != y.system.key or x.system.key != oracle.system.key:
        raise DomainError("comparability check needs a single common system")
    radius = x.length + y.length
    if x == y:
        return True
    target = y.matrix
    seen = {x.matrix}
    frontier = [x]
    while frontier:
        grown = []
        for w in frontier:
            t = oracle_tlen(w, oracle)
            for nxt in _neighbors(w):
                if nxt.matrix in seen or nxt.length > radius:
                    continue
                if oracle_tlen(nxt, oracle) != t + 1:
                    continue
                if nxt.matrix == target:
                    return True
                seen.add(nxt.matrix)
                grown.append(nxt)
        frontier = grown
    return False


def oracle_meet(x: GroupElement, y: GroupElement, oracle: BiclosedOracle,
                radius: int) -> tuple[GroupElement, ...]:
    """All maximal common lower bounds of {x, y} found within ball(radius).

    Returned sorted by (length, word); a meet inside the ball shows up as a
    one-element tuple."""
    cands = [u for u in ball(x.system, radius)
             if oracle_le(u, x, oracle) and oracle_le(u, y, oracle)]
    cands.sort(key=lambda u: (-oracle_tlen(u, oracle), u.length, u.word))
    kept: list[GroupElement] = []
    for u in cands:
        if not any(oracle_le(u, k, oracle) for k in kept):
            kept.append(u)
    return tuple(sorted(kept, key=lambda u: (u.length, u.word)))


def longest_finite(system: CoxeterSystem) -> GroupElement:
    """Longest element w0 of the finite Weyl group, whose inversion set is
    all of the finite Φ⁺.  The affine generator never enters: w(α_0) has
    δ-level 1 for w in the finite Weyl group."""
    return ascend(system, system.level_mask(0))


def standard_battery(system: CoxeterSystem):
    """A fixed diverse list of (name, oracle) pairs used by the self-test.

    Finite systems get the empty and full sets, a few inversion sets, a
    twist, and a prefix-only word.  Affine systems add the two hat forms,
    a twist of one, a straight translation word, and a hat form with a
    reflection subgroup part, whose membership set is not an inversion set
    of anything."""
    out = []
    empty = Explicit(system, ())
    out.append(("empty", empty))
    out.append(("full", Complement(empty)))
    for i, w in enumerate(ball(system, 3)[1:6], start=1):
        out.append((f"invset-{i}", Explicit(system, tuple(w.inversion_set()))))
    last = Explicit(system, (system.simple_root(system.ngens - 1),))
    out.append(("twist-simple", Twisted(simple(system, 0), last)))
    out.append(("word-prefix",
                WordInvSet(validate_periodic(system, (0,), ()))))
    if system.kind == "affine":
        hat_neg = HatForm(system, longest_finite(system), (), ())
        hat_pos = HatForm(system, identity(system), (), ())
        gamma = system.dominant_coweight_for(())
        out.append(("hat-negative", hat_neg))
        out.append(("hat-positive", hat_pos))
        out.append(("twist-hat", Twisted(simple(system, 0), hat_neg)))
        out.append(("word-translation",
                    WordInvSet(validate_periodic(
                        system, (), translation(system, gamma).word))))
        out.append(("hat-mixed",
                    HatForm(system, identity(system), (), (0,))))
    return tuple(out)


def run_selftest(system: CoxeterSystem, radius: int = 2) -> dict:
    """Compare the order primitives against their oracles over a small ball.

    Twisted length and ≤_B are checked for every battery member; meets only
    where B is an inversion set, since elsewhere they need not exist."""
    battery = standard_battery(system)
    elems = ball(system, radius)
    small = ball(system, 1)
    checked = 0
    mismatches = []
    for name, oracle in battery:
        for w in elems:
            checked += 1
            got = twisted_length(w, oracle)
            raw = oracle_tlen(w, oracle)
            if got != raw:
                mismatches.append({"oracle": name, "op": "tlen",
                                   "args": [list(w.word)],
                                   "got": got, "oracle_value": raw})
        for x in elems:
            for y in elems:
                checked += 1
                got = le(x, y, oracle)
                raw = oracle_le(x, y, oracle)
                if got != raw:
                    mismatches.append({"oracle": name, "op": "le",
                                       "args": [list(x.word), list(y.word)],
                                       "got": got, "oracle_value": raw})
        try:
            cls = classify(oracle)
        except ClassificationError:
            cls = None
        if cls is None or cls.kind == "neither":
            continue
        for i, x in enumerate(small):
            for y in small[i:]:
                checked += 1
                m = meet(x, y, oracle)
                r = max(m.length, x.length + y.length) + 1
                raw_meet = oracle_meet(x, y, oracle, r)
                if raw_meet != (m,):
                    mismatches.append({
                        "oracle": name, "op": "meet",
                        "args": [list(x.word), list(y.word)],
                        "got": list(m.word),
                        "oracle_value": [list(u.word) for u in raw_meet],
                    })
    return {"checked": checked, "mismatches": mismatches}
