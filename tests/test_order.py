import itertools
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from coxtw.biclosed import (BiclosedOracle, Complement, Explicit, HatForm,
                            act_on_biclosed, biclosed_check, closure_check)
from coxtw.elements import (GroupElement, ascend, ball, from_word, grow, identity, simple,
                            walk)
from coxtw import order
from coxtw.errors import (ClassificationError, DomainError, JoinSearchError,
                          OrderError, ResourceError, UnsupportedOracleError)
from coxtw.exprs import parse_biclosed
from coxtw.figures import FIGURES
from coxtw.infwords import Classification, WordInvSet, classify, validate_periodic
from coxtw.oracle import (longest_finite, oracle_le, oracle_meet, oracle_tlen,
                          standard_battery)
from coxtw.order import (chain, check_meet_semilattice, cover_neighbors,
                         hasse, interval, is_up_cover, join, le, lower_bound,
                         meet, twisted_length)
from coxtw.system import CoxeterSystem, Root, build_system

A1T = build_system("A~1")
A2T = build_system("A~2")
A2 = build_system("A2")
B2 = build_system("B2")

HAT_NEG = HatForm(A1T, simple(A1T, 0), (), ())
HAT_POS = HatForm(A1T, identity(A1T), (), ())


def el(system, *word):
    return from_word(system, word)


def test_twisted_length_hat_negative():
    cases = {(): 0, (1,): -1, (1, 0): -2, (1, 0, 1): -3,
             (0,): 1, (0, 1): 2, (0, 1, 0): 3}
    for word, expect in cases.items():
        assert twisted_length(el(A1T, *word), HAT_NEG) == expect, word


def test_twisted_length_explicit_a2():
    orc = Explicit(A2, {Root((1, 0))})
    assert twisted_length(simple(A2, 0), orc) == -1
    assert twisted_length(el(A2, 0, 1), orc) == 0
    assert twisted_length(el(A2, 1, 0), orc) == 2


def test_cover_neighbors():
    ups, downs = cover_neighbors(identity(A1T), HAT_NEG)
    assert ups == (simple(A1T, 0),)
    assert downs == (simple(A1T, 1),)
    assert is_up_cover(identity(A1T), 0, HAT_NEG)
    assert not is_up_cover(simple(A1T, 0), 0, HAT_NEG)

    orc = Explicit(A2, {Root((1, 0))})
    ups, _ = cover_neighbors(simple(A2, 0), orc)
    assert set(ups) == {identity(A2), el(A2, 0, 1)}


@pytest.mark.parametrize("spec", ["A2", "B3", "A~2", "C~2", "G~2", "B~3"])
def test_covers_decided_on_masks_match_the_brute_force_twisted_length(spec):
    # x·s is an up-cover iff the referee's scan of the positive roots gives it
    # twisted length one more than x's; the cover search decides it on masks,
    # and the products it builds carry the Φ a bare matrix is certified to
    system = build_system(spec)
    for _, oracle in standard_battery(system):
        for x in ball(system, 2):
            tlen = oracle_tlen(x, oracle)
            products = [x * simple(system, s) for s in range(system.ngens)]
            up = [oracle_tlen(u, oracle) == tlen + 1 for u in products]
            ups, downs = cover_neighbors(x, oracle)
            assert ups == tuple(u for u, k in zip(products, up) if k)
            assert downs == tuple(u for u, k in zip(products, up) if not k)
            assert [is_up_cover(x, s, oracle) for s in range(system.ngens)] == up
            for u in ups + downs:
                assert u.inversion_mask() == GroupElement(system, u.matrix).inversion_mask()


def test_le_and_chain():
    assert le(simple(A1T, 1), simple(A1T, 0), HAT_NEG)
    assert not le(simple(A1T, 0), simple(A1T, 1), HAT_NEG)
    got = chain(simple(A1T, 1), simple(A1T, 0), HAT_NEG)
    assert [w.word for w in got] == [(1,), (), (0,)]
    with pytest.raises(OrderError):
        chain(simple(A1T, 0), simple(A1T, 1), HAT_NEG)

    orc = Explicit(A2, {Root((1, 0))})
    assert not le(identity(A2), el(A2, 0, 1), orc)


def test_le_rejects_mixed_systems():
    with pytest.raises(OrderError):
        le(identity(A2), identity(B2), Explicit(A2, set()))


@pytest.mark.parametrize("query", [
    lambda b: twisted_length(from_word(A2, (0, 1)), b),
    lambda b: is_up_cover(from_word(A2, (0,)), 1, b),
    lambda b: hasse(b, ball(A2, 2)),
    lambda b: cover_neighbors(from_word(A2, (0,)), b),
    lambda b: oracle_tlen(from_word(A2, (0, 1)), b),
    lambda b: oracle_le(identity(A2), from_word(A2, (0,)), b),
], ids=["twisted_length", "is_up_cover", "hasse", "cover_neighbors", "oracle_tlen",
        "oracle_le"])
def test_order_queries_reject_mixed_systems(query):
    with pytest.raises(OrderError):
        query(parse_biclosed(B2, "full"))


def test_interval():
    box = interval(el(A1T, 1, 0), simple(A1T, 0), HAT_NEG)
    assert [w.word for w in box] == [(1, 0), (1,), (), (0,)]
    assert [twisted_length(w, HAT_NEG) for w in box] == [-2, -1, 0, 1]

    orc = Explicit(A2, {Root((1, 0))})
    box = interval(simple(A2, 0), simple(A2, 1), orc)
    assert [w.word for w in box] == [(0,), (), (1,)]


def test_lower_bound():
    z = lower_bound(el(A1T, 1, 0), simple(A1T, 1), HAT_NEG)
    assert z == el(A1T, 1, 0)
    z = lower_bound(simple(A1T, 0), simple(A1T, 1), HAT_NEG)
    assert le(z, simple(A1T, 0), HAT_NEG) and le(z, simple(A1T, 1), HAT_NEG)

    # z is the shortest prefix of the witness word that covers the target,
    # and may end inside the word's prefix
    for oracle in (HatForm(A1T, longest_finite(A1T), (), ()),
                   HatForm(A2T, longest_finite(A2T), (), ()),
                   WordInvSet(validate_periodic(A2T, (0,), (1, 0, 2, 1, 0, 2)))):
        system = oracle.system
        word = classify(oracle).word
        letters = itertools.chain(word.prefix, itertools.cycle(word.period))
        letters = list(itertools.islice(letters, 40))
        for x, y in itertools.combinations_with_replacement(ball(system, 3), 2):
            target = {r for r in x.inversion_set() | y.inversion_set()
                      if oracle.member(r)}
            z = lower_bound(x, y, oracle)
            assert from_word(system, letters[:z.length]) == z
            assert target <= z.inversion_set()
            if z.length:
                shorter = from_word(system, letters[:z.length - 1])
                assert not target <= shorter.inversion_set()


def test_a_witness_past_the_cap_is_a_budget_not_a_defect():
    # Φ_x for x = (s0 s1)^51000 lies in B = hat e::, whose witness word needs
    # 102,000 letters to cover it, past the 100,000-letter cap
    x = from_word(A1T, (0, 1) * 51000)
    oracle = parse_biclosed(A1T, "hat e::")
    assert oracle.members(x.inversion_mask()) == x.inversion_mask()
    with pytest.raises(ResourceError, match="cap of 100000 letters"):
        lower_bound(x, x, oracle)


def test_meet_needs_an_inversion_set():
    full = Complement(Explicit(A1T, set()))
    with pytest.raises(UnsupportedOracleError):
        meet(identity(A1T), identity(A1T), full)


# Referees: chain, interval and meet built from products, each rebuilding a
# translate z·[e, z⁻¹x] of an ordinary weak-order interval by hand, so that
# they share no cover walk with `order`.


def ordinary_meet(a, b):
    """Meet in the ordinary right weak order: the common lower bounds of a and
    b are the elements whose inversion sets lie inside Φ_a ∩ Φ_b, so the
    greedy ascent inside that intersection ends at the meet."""
    return ascend(a.system, a.inversion_mask() & b.inversion_mask())


def _product_chain(x, y, oracle):
    """x, then x·s_1⋯s_i along the ShortLex word of x⁻¹y, each step an up-cover."""
    out = [x]
    for s in (x.inverse() * y).word:
        assert is_up_cover(out[-1], s, oracle)
        out.append(out[-1].mul_simple(s))
    return out


def _product_interval(x, y, oracle):
    """x·[e, x⁻¹y], grown from e inside Φ_{x⁻¹y}, sorted as `interval` sorts."""
    target = (x.inverse() * y).inversion_mask()
    out, level = [], [identity(x.system)]
    while level:
        out.extend(x * z for z in level)
        level = grow(x.system, level, lambda b: target >> b & 1)
    return sorted(out, key=lambda w: (twisted_length(w, oracle), w.length, w.word))


def _product_meet(x, y, oracle):
    """z·(z⁻¹x ∧ z⁻¹y) for the witness prefix z = lower_bound(x, y)."""
    z = lower_bound(x, y, oracle)
    zinv = z.inverse()
    return z * ordinary_meet(zinv * x, zinv * y)


@pytest.mark.parametrize("spec", ["A~2", "C~2", "G~2", "B3"])
def test_cover_walks_match_the_product_referees(spec):
    system = build_system(spec)
    elems = ball(system, 3)
    for name, orc in standard_battery(system):
        sound = _kind(orc) in ("finite", "infinite")
        for x, y in itertools.product(elems, repeat=2):
            if sound:
                assert meet(x, y, orc) == _product_meet(x, y, orc), (spec, name, x, y)
            if le(x, y, orc):
                assert list(chain(x, y, orc)) == _product_chain(x, y, orc), (spec, name, x, y)
                assert list(interval(x, y, orc)) == _product_interval(x, y, orc), (spec, name, x, y)


def test_ordinary_meet():
    assert ordinary_meet(el(B2, 0, 1), el(B2, 1, 0)).is_identity
    assert ordinary_meet(el(B2, 0, 1, 0, 1), el(B2, 0, 1, 0)).word == (0, 1, 0)
    assert ordinary_meet(el(A2, 0, 1), el(A2, 0)).word == (0,)
    b3 = ball(build_system("B3"), 9)
    for a, b in itertools.combinations_with_replacement(b3, 2):
        shared = a.inversion_set() & b.inversion_set()
        lower = [z for z in b3 if z.inversion_set() <= shared]
        top = max(lower, key=lambda z: z.length)
        assert all(z.inversion_set() <= top.inversion_set() for z in lower)
        assert ordinary_meet(a, b) == top


@pytest.mark.parametrize("spec, bottom", [("E8", (0, 2, 3, 1, 4, 3)), ("B~3", (3, 1, 2, 0))])
def test_walks_make_no_column_bit_call(monkeypatch, spec, bottom):
    # walks read each letter's signed bit inline, and the order scans read all
    # of an element's bits in one `column_bits` call: no `column_bit` call is made
    system = build_system(spec)
    oracle = Explicit(system, from_word(system, bottom).inversion_set())
    classify(oracle)   # the witness, found once and kept
    calls, column_bit = [], CoxeterSystem.column_bit

    def counting(self, column):
        calls.append(column)
        return column_bit(self, column)

    monkeypatch.setattr(CoxeterSystem, "column_bit", counting)
    x, y = from_word(system, (1, 0, 2, 1)), walk(from_word(system, bottom), (1, 2, 3))
    assert x.inverse().inverse() == x
    m = meet(x, y, oracle)
    assert len(chain(m, x, oracle)) == (m.inversion_mask() ^ x.inversion_mask()).bit_count() + 1
    assert len(interval(m, y, oracle)) > 2
    assert calls == []


def test_chain_guard_is_not_an_assert(monkeypatch):
    # no w·s found toward the top, as if no flipped root lay in Φ_w △ Φ_y
    monkeypatch.setattr(order, "_toward", lambda w, tops: iter(()))
    with pytest.raises(DomainError, match="up-cover"):
        chain(simple(A1T, 1), simple(A1T, 0), HAT_NEG)


def test_lower_bound_guard_is_not_an_assert(monkeypatch):
    # the guard compares masks, and the semilattice check shares it
    monkeypatch.setattr(order, "_below", lambda a, b, inside: False)
    with pytest.raises(DomainError, match="common lower bound"):
        lower_bound(simple(A1T, 0), simple(A1T, 1), HAT_NEG)
    with pytest.raises(DomainError, match="common lower bound"):
        check_meet_semilattice(A1T, HAT_NEG, 2)


def test_lower_bounds_rejects_a_descent_letter(monkeypatch):
    # a witness word whose letter undoes an earlier one is not reduced, and its
    # prefixes would no longer lie ≤_B one another.  The word is walked in
    # chunks as long as the inversions still missing, and the guard reads the
    # descent off the popcount: inside the first chunk, in a chunk after one of
    # ascents, and in a chunk of one letter
    chunks = []
    monkeypatch.setattr(order, "walk", lambda z, chunk: chunks.append(chunk) or walk(z, chunk))
    for period, x, walked in (((1,), el(A1T, 1, 0), [[1, 1]]),
                              ((0, 1, 0), el(A1T, 1, 0), [[0, 1], [0, 0]]),
                              ((0,), el(A1T, 0, 1), [[0], [0]])):
        monkeypatch.setattr(order, "_witness_letters", lambda oracle: itertools.cycle(period))
        chunks.clear()
        with pytest.raises(DomainError, match="not an ascent"):
            lower_bound(x, simple(A1T, 1), HAT_NEG)
        assert chunks == walked


def test_meet_and_join():
    m = meet(simple(A1T, 0), simple(A1T, 1), HAT_NEG)
    assert m == simple(A1T, 1)
    j = join(simple(A1T, 0), simple(A1T, 1), HAT_NEG)
    assert j == simple(A1T, 0)

    orc = Explicit(A2, {Root((1, 0))})
    assert meet(simple(A2, 1), el(A2, 0, 1), orc) == simple(A2, 0)

    with pytest.raises(JoinSearchError):
        join(simple(A1T, 0), simple(A1T, 1), Explicit(A1T, set()))


# spec: (form, joins found, JoinSearchErrors) over ball(2) pairs
_JOIN_SEARCHES = {"A~1": ("hat e:0:", 11, 4), "A~2": ("hat e:0:", 49, 6),
                  "C~2": ("hat 0:1:", 42, 3), "G~2": ("hat 0:1:", 44, 1)}


@pytest.mark.parametrize("spec", list(_JOIN_SEARCHES))
def test_join_search_matches_the_brute_force_meet(spec):
    # the complement classifies as neither, so join searches its bounded
    # ball; a join in ≤_B is a meet in the reverse order ≤_{Φ⁺∖B}
    form, *counts = _JOIN_SEARCHES[spec]
    system = build_system(spec)
    oracle = parse_biclosed(system, form)
    comp = Complement(oracle)
    assert classify(comp).kind == "neither"
    elems = ball(system, 2)
    found = errors = 0
    for i, x in enumerate(elems):
        for y in elems[i:]:
            want = oracle_meet(x, y, comp, x.length + y.length + 4)
            try:
                got = join(x, y, oracle)
            except JoinSearchError:
                assert want == (), (x, y)
                errors += 1
            else:
                assert want == (got,) and got.word == want[0].word, (x, y)
                found += 1
    assert [found, errors] == counts


def test_join_search_asks_the_oracle_once(monkeypatch):
    # past the complement's classification, a fallback join reads B once, over
    # the union of its search ball, as the check's bounded branch does
    oracle = parse_biclosed(A2T, "hat e:0:")
    elems = ball(A2T, 2)
    join(elems[0], elems[0], oracle)   # classifies the complement
    calls, members = [], BiclosedOracle.members
    monkeypatch.setattr(BiclosedOracle, "members",
                        lambda self, mask: calls.append(mask) or members(self, mask))
    for i, x in enumerate(elems):
        for y in elems[i:]:
            calls.clear()
            try:
                join(x, y, oracle)
            except JoinSearchError:
                pass
            assert len(calls) == 1, (x, y)


def test_join_rejects_mixed_systems_before_classifying():
    oracle = parse_biclosed(A2T, "hat e:0:")
    with pytest.raises(OrderError):
        join(simple(A1T, 0), simple(A2T, 1), oracle)
    assert oracle._complement_classification is None


def test_meet_is_ordinary_under_empty_set():
    empty = Explicit(B2, set())
    for u in ball(B2, 4):
        for v in ball(B2, 4):
            assert meet(u, v, empty) == ordinary_meet(u, v)


def test_hasse_chain_shape():
    g = hasse(HAT_NEG, ball(A1T, 3))
    data = g.to_json()
    assert [n["tlen"] for n in data["nodes"]] == list(range(-3, 4))
    assert data["nodes"][0] == {"word": [1, 0, 1], "tlen": -3}
    assert data["edges"] == [[i, i + 1] for i in range(6)]
    dot = g.to_dot()
    assert dot.startswith("digraph hasse {\n  rankdir=BT;\n")
    assert dot.count(" -> ") == 6
    assert dot.endswith("}\n")


def test_hasse_respects_element_filter():
    keep = [w for w in ball(A1T, 3) if w.length <= 1]
    g = hasse(HAT_NEG, keep)
    assert len(g.nodes) == 3
    assert len(g.edges) == 2


def test_check_meet_semilattice_verdicts():
    full = Complement(Explicit(A1T, set()))
    res = check_meet_semilattice(A1T, full, 3)
    assert res.status == "counterexample"
    assert tuple(w.word for w in res.pair) == ((0,), (1,))

    ok = check_meet_semilattice(A1T, HAT_POS, 3)
    assert ok.status == "ok"
    assert ok.checked == 21

    nothing = check_meet_semilattice(A1T, HAT_POS, 0)
    assert nothing.status in ("ok", "inconclusive")


def test_inversion_set_symmetric_difference_is_length():
    # l(u⁻¹v) = |Φ_u △ Φ_v|: no check cuts a ball any more, but the referee
    # `_per_pair_check` cuts at l(z) + l(z⁻¹x), a length read off masks
    for system, radius in ((A2T, 3), (build_system("G~2"), 3), (build_system("B3"), 9)):
        elems = ball(system, radius)
        for u, v in itertools.product(elems, repeat=2):
            assert (len(u.inversion_set() ^ v.inversion_set())
                    == (u.inverse() * v).length), (system.type_string, u, v)


# Per system: the `checked` count of an "ok" sweep, and every other verdict.
_BATTERY_VERDICTS = {
    ("A~1", 3): (21, {"full": ("counterexample", ((0,), (1,)), 7),
                      "hat-mixed": ("counterexample", ((0,), (1,)), 7)}),
    ("A~2", 3): (171, {"full": ("counterexample", ((0,), (1, 2)), 24),
                       "hat-mixed": ("counterexample", ((0,), (1, 2)), 24)}),
    ("C~2", 3): (136, {"full": ("counterexample", ((0,), (1, 2)), 22),
                       "hat-mixed": ("counterexample", ((0,), (1, 2, 0)), 29)}),
    ("G~2", 2): (36, {"full": ("counterexample", ((0,), (1, 2)), 14),
                      "hat-mixed": ("inconclusive", None, 36)}),
}


def test_check_meet_semilattice_battery_verdicts():
    for (spec, radius), (checked, others) in _BATTERY_VERDICTS.items():
        system = build_system(spec)
        for name, orc in standard_battery(system):
            res = check_meet_semilattice(system, orc, radius)
            pair = None if res.pair is None else tuple(w.word for w in res.pair)
            assert (res.status, pair, res.checked) == others.get(
                name, ("ok", None, checked)), (spec, name)


def test_check_meet_semilattice_benchmark_checks():
    # the checks the benchmark's searches workload runs, plus a radius past them
    for spec, expr, radius, checked in (("A~2", "hat 0,1,0::", 3, 171),
                                        ("G~2", "hat 0,1,0,1,0,1::", 3, 120),
                                        ("A~2", "hat 0,1,0::", 4, 465)):
        system = build_system(spec)
        res = check_meet_semilattice(system, parse_biclosed(system, expr), radius)
        assert (res.status, res.pair, res.checked) == ("ok", None, checked), (spec, radius)


def test_check_meet_semilattice_past_rank_3():
    # verdicts pinned from the earlier up-set walk, which asked the oracle for
    # each candidate cover, on frames of 5,106 (A~4) and 53,352 (E~6) elements
    for spec, expr, radius, checked in (("A~4", "hat 0,1::", 3, 1540),
                                        ("E~6", "hat e::", 2, 595)):
        system = build_system(spec)
        res = check_meet_semilattice(system, parse_biclosed(system, expr), radius)
        assert (res.status, res.pair, res.checked) == ("ok", None, checked), (spec, radius)


def _kind(oracle):
    try:
        return classify(oracle).kind
    except ClassificationError as exc:
        return f"ClassificationError: {exc}"


def test_twisting_is_an_order_isomorphism():
    # x ↦ wx carries ≤_B onto ≤_{w·B}, and w·B is an inversion set (of a
    # finite or an infinite word) exactly when B is
    compared = 0
    for spec in ("A2", "B2", "A~2", "C~2", "G~2"):
        system = build_system(spec)
        elems = ball(system, 2)
        for name, orc in standard_battery(system):
            for w in elems[1:6]:
                moved = act_on_biclosed(w, orc)
                assert _kind(moved) == _kind(orc), (spec, name, w.word)
                images = [w * x for x in elems]
                for x, wx in zip(elems, images):
                    for y, wy in zip(elems, images):
                        assert le(wx, wy, moved) == le(x, y, orc), (spec, name, w.word, x.word, y.word)
                        compared += 1
    assert compared == 20140


def test_records_are_immutable_values():
    full = Complement(Explicit(A1T, set()))
    res = check_meet_semilattice(A1T, full, 3)
    assert res == check_meet_semilattice(A1T, full, 3)
    assert res.to_json() == {"status": "counterexample", "pair": [[0], [1]],
                             "checked": 7}
    assert repr(res) == ("CheckResult(status='counterexample', pair=("
                         "GroupElement([0]), GroupElement([1])), checked=7)")
    graph = hasse(HAT_NEG, ball(A1T, 1))
    assert graph == hasse(HAT_NEG, ball(A1T, 1))
    assert graph.to_json() == {
        "nodes": [{"word": [1], "tlen": -1}, {"word": [], "tlen": 0},
                  {"word": [0], "tlen": 1}],
        "edges": [[0, 1], [1, 2]]}
    assert graph.to_dot() == (
        'digraph hasse {\n  rankdir=BT;\n  node [shape=plaintext];\n'
        '  n0 [label="s_{d-a}"];\n  n1 [label="e"];\n  n2 [label="s_a"];\n'
        '  { rank=same; n0; }\n  { rank=same; n1; }\n  { rank=same; n2; }\n'
        '  n0 -> n1;\n  n1 -> n2;\n}\n')
    cls = classify(parse_biclosed(A2T, "full"))
    assert cls == classify(parse_biclosed(A2T, "full"))
    assert cls.witness_json() == [[0, 1, 1], [0, -1, 1]]
    assert (classify(parse_biclosed(A2T, "explicit [1.0]"))
            == Classification("finite", el(A2T, 0)))
    closure = closure_check(A2, {Root((1, 0)), Root((0, 1))}, A2.positive_roots)
    assert closure == closure_check(A2, [Root((0, 1)), Root((1, 0))],
                                    A2.positive_roots)
    report = biclosed_check(A2, {Root((1, 0))}, A2.positive_roots)
    fig = FIGURES["a1-twist"]
    for record, field in ((res, "status"), (graph, "edges"), (cls, "kind"),
                          (closure, "closed"), (report, "ok"), (fig, "edges")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None


def test_check_meet_semilattice_finite_past_longest_element():
    # Some per-pair cuts fall below the radius; the swept ball must still
    # hold every element of the pairs.
    for system in (A2, B2):
        res = check_meet_semilattice(system, Explicit(system, set()), 4)
        n = len(ball(system, 4))
        assert (res.status, res.checked) == ("ok", n * (n - 1) // 2)


def _walked_lower_bound(x, y, oracle):
    """lower_bound with a walk of its own: the witness word from e, letter by
    letter, until Φ_z covers (Φ_x ∪ Φ_y) ∩ B."""
    cls = classify(oracle)
    letters = (cls.element.word if cls.kind == "finite" else
               itertools.chain(cls.word.prefix, itertools.cycle(cls.word.period)))
    missing = oracle.members(x.inversion_mask() | y.inversion_mask())
    z = identity(x.system)
    for s in letters:
        if not missing & ~z.inversion_mask():
            break
        u = walk(z, (s,))
        assert not z.inversion_mask() & ~u.inversion_mask()   # an ascent
        z = u
    assert not missing & ~z.inversion_mask()
    assert le(z, x, oracle) and le(z, y, oracle)
    return z


def _per_pair_check(system, oracle, radius):
    """The semilattice check for an inversion set B, one walk per pair, each
    pair's lower bounds swept with le in a ball cut at l(z) + l(z⁻¹x)."""
    elems = ball(system, radius)
    pairs = list(itertools.combinations(elems, 2))
    cuts = []
    for x, y in pairs:
        z = _walked_lower_bound(x, y, oracle)
        cuts.append(z.length + min(len((z.inverse() * x).word), len((z.inverse() * y).word)))
    big = ball(system, max([radius, *cuts]))
    for checked, ((x, y), cut) in enumerate(zip(pairs, cuts), 1):
        lower = [t for t in big if t.length <= cut and le(t, x, oracle) and le(t, y, oracle)]
        top = max(lower, key=lambda t: twisted_length(t, oracle))
        if not all(le(t, top, oracle) for t in lower):
            return "counterexample", (x.word, y.word), checked
    return "ok", None, len(pairs)


def test_check_meet_semilattice_matches_a_walk_per_pair():
    # a finite witness word and an infinite one, at radius 3
    for spec, expr in (("A~2", "invset 0,1,2,0,1"), ("B2", "invset 0,1,0"),
                       ("A~2", "hat 0,1,0::"), ("C~2", "hat 1,0::")):
        system = build_system(spec)
        res = check_meet_semilattice(system, parse_biclosed(system, expr), 3)
        pair = None if res.pair is None else tuple(w.word for w in res.pair)
        assert (res.status, pair, res.checked) == _per_pair_check(
            system, parse_biclosed(system, expr), 3), (spec, expr)
        # and the one prefix below the whole ball is the longest of the pairs' own
        oracle = parse_biclosed(system, expr)
        elems = ball(system, 3)
        z = order._lower_bound(oracle, [u.inversion_mask() for u in elems])
        assert z == max(
            (_walked_lower_bound(x, y, oracle) for x, y in itertools.combinations(elems, 2)),
            key=lambda z: z.length), (spec, expr)
        # and the frame above it is the union of the intervals [z, x]_B
        assert {u.inversion_mask() for u, _ in order._frame(z, elems)} == {
            w.inversion_mask() for x in elems for w in _product_interval(z, x, oracle)}, (spec, expr)


def test_check_meet_semilattice_rejects_mixed_systems():
    with pytest.raises(OrderError):
        check_meet_semilattice(A2, Explicit(B2, {Root((1, 1))}), 2)


def test_check_counterexample_a2t():
    full = Complement(Explicit(A2T, set()))
    res = check_meet_semilattice(A2T, full, 3)
    assert res.status == "counterexample"
    assert tuple(w.word for w in res.pair) == ((0,), (1, 2))


def test_check_reports_a_universe_that_lost_a_meet(monkeypatch):
    # the sound branch keeps the two-top test, so a walk bug still shows: with
    # the down-cover edge from s0·s1 to s0 dropped from the frame, s0 and all
    # below it leave the lower bounds of s0·s1, and those of e and s0·s1 left
    # there have no greatest element
    frame, s0 = order._frame, simple(A2T, 0).inversion_mask()
    monkeypatch.setattr(order, "_frame", lambda z, tops: (
        (u, [d for d in downs if (u.word, d) != ((0, 1), s0)]) for u, downs in frame(z, tops)))
    res = check_meet_semilattice(A2T, parse_biclosed(A2T, "hat 0,1,0::"), 3)
    assert (res.status, tuple(w.word for w in res.pair), res.checked) == (
        "counterexample", ((), (0, 1)), 4)


@pytest.mark.parametrize("spec", ["A~2", "C~2", "G~2", "B~3"])
def test_frame_rule_matches_the_oracle_decision(spec):
    # Φ_w △ Φ_t alone decides the covers toward t, for w ≤_B t: the same w·s, in
    # the same order, as the oracle's up-cover test followed by le; on the frame
    # l_B rises by |Φ_z △ Φ_u|, each size counts the frame elements ≤_B u, and
    # each top's lower-bound mask is that ≤_B relation
    system = build_system(spec)
    elems = ball(system, 3)
    for name, orc in standard_battery(system):
        if _kind(orc) not in ("finite", "infinite"):
            continue
        for w, t in itertools.product(elems, repeat=2):
            if le(w, t, orc):
                kept = [w.mul_simple(s) for s in range(system.ngens)
                        if order._cover(w, s, orc)[2] and le(w.mul_simple(s), t, orc)]
                assert list(order._toward(w, (t,))) == kept, (spec, name, w, t)
        z = order._lower_bound(orc, [u.inversion_mask() for u in elems])
        frame = {u.inversion_mask(): u for u, _ in order._frame(z, elems)}
        universe, under, size = order._lower_sets(z, elems)
        tops = {u.inversion_mask() for u in elems}
        assert sorted(universe) == sorted(frame)
        for i, a in enumerate(universe):
            u = frame[a]
            assert twisted_length(u, orc) - twisted_length(z, orc) == (
                z.inversion_mask() ^ a).bit_count(), (spec, name, u)
            below = sum(1 << j for j, b in enumerate(universe) if le(frame[b], u, orc))
            assert size(i) == below.bit_count(), (spec, name, u)
            if a in tops:
                assert under(a) == below, (spec, name, u)


def test_lower_sets_keep_masks_only_for_the_tops():
    # A~4 hat 0,1:: at radius 3: a ball of 56 tops over a frame of 5,106, whose
    # two widest levels hold 386; the level walk holds every other mask only
    # while the next level reads it, so the lookup answers for the tops alone
    system = build_system("A~4")
    elems = ball(system, 3)
    z = order._lower_bound(parse_biclosed(system, "hat 0,1::"),
                           [u.inversion_mask() for u in elems])
    universe, under = order._lower_sets(z, elems)[:2]

    def held(a):
        try:
            return under(a) >> universe.index(a) & 1
        except KeyError:
            return False

    tops = {u.inversion_mask() for u in elems}
    assert (len(tops), len(universe)) == (56, 5106)
    assert {a for a in universe if held(a)} == tops


def test_frame_streams_each_element_once():
    # the frame is built as it is read: each mask comes once, and every down-cover
    # list holds the one int of that down-cover's own mask, not a copy
    system = build_system("B~3")
    elems = ball(system, 3)
    z = order._lower_bound(parse_biclosed(system, "hat 0,1,2::"),
                           [u.inversion_mask() for u in elems])
    stream = order._frame(z, elems)
    assert iter(stream) is stream
    items = list(stream)
    own = {u.inversion_mask(): u.inversion_mask() for u, _ in items}
    assert len(own) == len(items) > len(elems)
    assert all(d is own[d] for _, downs in items for d in downs)


def test_check_holds_no_frame_element():
    # A~4 hat 0,1:: at radius 3 reads a frame of 5,106 elements; the check keeps
    # their masks and down-cover lists only, so its traced peak stays near 1.1 MiB,
    # where keeping an element per mask took 2.8
    system = build_system("A~4")
    oracle = parse_biclosed(system, "hat 0,1::")
    tracemalloc.start()
    try:
        res = check_meet_semilattice(system, oracle, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.status, res.pair, res.checked) == ("ok", None, 1540)
    assert peak <= 1.6 * 2 ** 20, peak / 2 ** 20


WORDS1 = st.lists(st.integers(min_value=0, max_value=1), max_size=5).map(tuple)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(WORDS1, WORDS1)
def test_hat_neg_le_is_symmetric_difference(wx, wy):
    x, y = from_word(A1T, wx), from_word(A1T, wy)
    if le(x, y, HAT_NEG):
        steps = chain(x, y, HAT_NEG)
        assert len(steps) - 1 == len(x.inversion_set() ^ y.inversion_set())
        tl = [twisted_length(w, HAT_NEG) for w in steps]
        assert all(b - a == 1 for a, b in zip(tl, tl[1:]))


@settings(deadline=None, derandomize=True, max_examples=40)
@given(WORDS1, WORDS1)
def test_duality_with_complement(wx, wy):
    x, y = from_word(A1T, wx), from_word(A1T, wy)
    assert le(x, y, HAT_NEG) == le(y, x, Complement(HAT_NEG))
