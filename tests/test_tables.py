"""The per-system tables of peels and inverses, and what they may not do:
grow past their bound, store a failed computation, change an answer, or tie
elements, oracles and systems into reference cycles."""

import gc
import random

import pytest

from coxtw import elements
from coxtw import oracle as referee
from coxtw.biclosed import BiclosedOracle
from coxtw.elements import GroupElement, ball, from_word
from coxtw.errors import DomainError
from coxtw.exprs import parse_biclosed
from coxtw.infwords import classify
from coxtw.oracle import oracle_le, oracle_tlen
from coxtw.order import (chain, check_meet_semilattice, interval, is_up_cover,
                         join, le, meet, twisted_length)
from coxtw.system import CoxeterSystem, Root, build_system

# a reduced word of the longest element of the finite part
LONGEST = {"A~2": "0,1,0", "B~3": "0,1,2,0,1,2,0,1,2"}


def _session():
    """One library session on A~2 and B~3, dropped on return."""
    for spec, w0 in LONGEST.items():
        system = build_system(spec)
        negative = parse_biclosed(system, f"hat {w0}::")   # meets exist
        positive = parse_biclosed(system, "hat e::")       # joins exist
        x, y = from_word(system, (0, 1, 2)), from_word(system, (2, 1))
        assert GroupElement(system, x.matrix).word == x.word
        assert (x * x.inverse()).is_identity and x.inverse().word
        for oracle in (negative, positive):
            twisted_length(x, oracle)
            le(x, y, oracle)
            oracle_le(x, y, oracle)
        z = x
        for _ in range(2):   # two up-covers in ≤_B
            z = z.mul_simple(next(s for s in range(system.ngens)
                                  if is_up_cover(z, s, positive)))
        chain(x, z, positive)
        interval(x, z, positive)
        meet(x, y, negative)
        join(x, y, positive)
        join(x, y, positive)   # again, from the kept classification
        classify(negative)
        ball(system, 3)
        check_meet_semilattice(system, negative, 1)


def test_a_session_leaves_no_reference_cycles():
    # every object the session made must be freed by reference counting
    # alone: with the collector off, nothing it finds afterwards may be ours
    kinds = (GroupElement, Root, CoxeterSystem, BiclosedOracle)
    enabled, flags = gc.isenabled(), gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        _session()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        cyclic = [type(o).__name__ for o in gc.garbage if isinstance(o, kinds)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert not cyclic


def _random_words(system, seed, count=40, longest=14):
    rng = random.Random(seed)
    return [tuple(rng.randrange(system.ngens) for _ in range(rng.randint(0, longest)))
            for _ in range(count)]


@pytest.mark.parametrize("spec", ["B3", "G2", "A~2", "C~2", "B~3"])
def test_warm_and_cold_tables_agree(spec):
    warm = build_system(spec)
    words = _random_words(warm, spec)
    for word in words:     # fill the tables
        w = from_word(warm, word)
        GroupElement(warm, w.matrix).inversion_set()
        w.inverse().word
    assert warm.peels and warm.inverses
    for word in words:
        cold = build_system(spec)
        a, b = from_word(warm, word), from_word(cold, word)
        bare_a, bare_b = GroupElement(warm, a.matrix), GroupElement(cold, b.matrix)
        assert bare_a.word == bare_b.word == a.word
        assert bare_a.inversion_set() == bare_b.inversion_set() == a.inversion_set()
        assert a.inverse().matrix == b.inverse().matrix
        assert a.inverse().word == b.inverse().word


def test_tables_stay_within_their_bound(monkeypatch):
    monkeypatch.setattr(elements, "_TABLE_BOUND", 5)
    system = build_system("C~2")
    for word in _random_words(system, 7, count=60):
        w = GroupElement(system, from_word(system, word).matrix)
        w.inversion_set()
        v = w.inverse()
        assert len(v.word) == w.length
        assert len(system.peels) <= 5 and len(system.inverses) <= 5
        assert (w * v).is_identity
    ball(system, 6)
    assert len(system.peels) <= 5 and len(system.inverses) <= 5


def test_referee_tables_stay_within_the_bound(monkeypatch):
    # the brute-force referee's neighbour table and twisted-length memo
    monkeypatch.setattr(elements, "_TABLE_BOUND", 5)
    monkeypatch.setattr(referee, "_NEIGHBORS", {})
    system = build_system("C~2")
    oracle = parse_biclosed(system, "hat e::")
    elems = ball(system, 2)
    for x in elems:
        oracle_tlen(x, oracle)
        oracle_le(elems[0], x, oracle)
        assert len(referee._NEIGHBORS) <= 5 and len(oracle._raw_tlen) <= 5
    assert referee._NEIGHBORS
    assert all(oracle_le(elems[0], x, oracle) == le(elems[0], x, oracle) for x in elems)


@pytest.mark.parametrize("spec, matrix, message", [
    ("A2", ((1, 0), (-1, 1)), "not positive"),
    ("A2", ((-1, 0), (0, -1)), "identity"),
    ("A~1", ((1, 0), (0, -1)), "terminate"),
    ("A2", None, "not distinct"),
])
def test_a_failed_peel_stores_nothing(monkeypatch, spec, matrix, message):
    # the four guards of the peel, on matrices that are no group elements,
    # and on a real one whose inversions are corrupted to one repeated bit
    system = build_system(spec)
    monkeypatch.setattr(elements, "_WORD_GUARD", 1000)
    if matrix is None:
        matrix = from_word(system, (0, 1)).matrix
        monkeypatch.setattr(system, "column_bit", lambda column: 0)
    for _ in range(2):
        with pytest.raises(DomainError, match=message):
            GroupElement(system, matrix).inversion_set()
    assert not system.peels


def test_a_failed_inverse_stores_nothing():
    a2 = build_system("A2")
    for _ in range(2):
        with pytest.raises(DomainError, match="invariant form"):
            GroupElement(a2, ((1, 1), (0, 1))).inverse()
    assert not a2.inverses
