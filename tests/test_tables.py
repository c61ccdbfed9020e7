"""The tables that systems and the brute-force referee keep, and what they
may not do: grow with use or past their bound, store a failed computation,
change an answer, or tie elements, oracles and systems into reference cycles."""

import gc
import random
import weakref

import dense_referee as dense
import pytest

from coxtw import oracle as referee
from coxtw.biclosed import (BiclosedOracle, classify_finite_biclosed, enumerate_biclosed,
                            expand_psi)
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
    """One library session on A~2 and B~3, dropped on return; weak references
    to its systems."""
    systems = []
    for spec, w0 in LONGEST.items():
        system = build_system(spec)
        systems.append(weakref.ref(system))
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
    return systems


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


def test_a_dropped_session_frees_its_systems(monkeypatch):
    # no module-level table, the referee's neighbours included, may keep a
    # system alive; the neighbour table starts empty, so that this session's
    # systems fill it
    monkeypatch.setattr(referee, "_NEIGHBORS", {})
    systems = _session()
    gc.collect()
    assert [ref() for ref in systems] == [None] * len(LONGEST)


def _random_words(system, seed, count=40, longest=14):
    rng = random.Random(seed)
    return [tuple(rng.randrange(system.ngens) for _ in range(rng.randint(0, longest)))
            for _ in range(count)]


@pytest.mark.parametrize("spec", ["B3", "G2", "A~2", "C~2", "B~3"])
def test_warm_and_cold_tables_agree(spec):
    # a system that has answered every word before, its cached tables filled,
    # answers as a fresh one does, and as the referee's full-column peel
    warm = build_system(spec)
    words = _random_words(warm, spec)
    for word in words:
        w = from_word(warm, word)
        GroupElement(warm, w.matrix).inversion_set()
        w.inverse().word
    for word in words:
        cold = build_system(spec)
        a, b = from_word(warm, word), from_word(cold, word)
        bare_a, bare_b = GroupElement(warm, a.matrix), GroupElement(cold, b.matrix)
        ainv, binv = a.inverse(), b.inverse()
        assert bare_a.word == bare_b.word == a.word == dense.peel(warm, ainv.matrix)[0]
        assert bare_a.inversion_set() == bare_b.inversion_set() == a.inversion_set()
        assert bare_a.inversion_mask() == dense.peel(cold, b.matrix)[1]
        assert ainv.matrix == binv.matrix
        assert ainv.word == binv.word == dense.peel(cold, b.matrix)[0]


def _tables(system):
    """The system's attributes, and the size of each that could grow."""
    return {name: len(value) if isinstance(value, (dict, list, set)) else None
            for name, value in vars(system).items()}


def test_tables_stay_within_their_bound():
    # a system keeps no table of elements: once the form's inverse and the
    # fixed-size `positive_roots`, `_signed` and `_offsets` are cached, words,
    # inverses, bare matrices and a ball add no attribute and grow none
    system = build_system("C~2")
    from_word(system, (0, 1)).word
    system.positive_roots, system._signed, system._offsets
    before = _tables(system)
    for word in _random_words(system, 7, count=60):
        w = GroupElement(system, from_word(system, word).matrix)
        w.inversion_set()
        v = w.inverse()
        assert len(v.word) == w.length
        assert (w * v).is_identity
    ball(system, 6)
    assert _tables(system) == before
    # finite classification: after the first one (which builds the support
    # masks), further classifications and expansions add no attribute
    finite = build_system("D4")
    sets = enumerate_biclosed(finite, finite.finite_roots)[::37]
    classify_finite_biclosed(finite, sets[0])
    before = _tables(finite)
    for gamma in sets:
        u, d1, d2 = classify_finite_biclosed(finite, gamma)
        assert expand_psi(finite, u, d1, d2) == gamma
    assert _tables(finite) == before


def test_referee_tables_stay_within_the_bound(monkeypatch):
    # the brute-force referee's neighbour table and twisted-length memo
    monkeypatch.setattr(referee, "_TABLE_BOUND", 5)
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
    # the four guards of the referee's full-column peel, on matrices that are
    # no group elements and on a real one whose inversions are corrupted to
    # one repeated bit, in both reads of it (the peel's `column_bit` and the
    # walk's `_keys`); the constructor certifies the same matrix by walking
    # its word from e, which fails each time it is asked and leaves the
    # system's tables as they were
    system = build_system(spec)
    if matrix is None:
        matrix = from_word(system, (0, 1)).matrix
        monkeypatch.setattr(system, "column_bit", lambda column: 0)
        monkeypatch.setattr(system, "_keys", dict.fromkeys(system._keys, 0))
    with pytest.raises(DomainError, match=message):
        dense.peel(system, matrix, guard=1000)
    with pytest.raises(DomainError, match="no group element|lost track"):
        GroupElement(system, matrix)
    before = _tables(system)
    with pytest.raises(DomainError, match="no group element|lost track"):
        GroupElement(system, matrix)
    assert _tables(system) == before


def test_a_failed_inverse_stores_nothing():
    # no inverse is ever asked of a non-element: the constructor refuses it,
    # each time alike
    a2 = build_system("A2")
    for _ in range(2):
        with pytest.raises(DomainError, match="no group element"):
            GroupElement(a2, ((1, 1), (0, 1))).inverse()
