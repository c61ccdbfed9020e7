import random
import re
from itertools import combinations

import dense_referee as dense
import pytest

from coxtw import biclosed
from coxtw.biclosed import (BiclosedOracle, Complement, Explicit, HatForm,
                            Twisted, act_on_biclosed, biclosed_check,
                            classify_finite_biclosed, closure_check,
                            cone_contains, enumerate_biclosed, expand_psi)
from coxtw.elements import ball, from_word, identity, simple, translation
from coxtw.errors import (ClassificationError, DomainError, NotReducedError,
                          ResourceError, ValidationError)
from coxtw.exprs import parse_biclosed
from coxtw.infwords import limit_set, validate_periodic
from coxtw.oracle import standard_battery
from coxtw.system import Root, build_system

A2 = build_system("A2")
B2 = build_system("B2")
A1T = build_system("A~1")

ALPHA = Root((1,))
DMA = Root((-1,), 1)     # delta - alpha


def test_cone_contains():
    a, b, ab = Root((1, 0)), Root((0, 1)), Root((1, 1))
    assert cone_contains((a, b), ab)
    assert not cone_contains((a, ab), b)
    assert cone_contains((ALPHA, DMA), Root((1,), 1))
    # opposite roots span a line: the rank-1 branch
    for t in (b, -b):
        assert cone_contains((b, -b), t)
    assert not cone_contains((b, -b), a)
    # the δ-entry counts on a finite system, and a vector of another rank is refused
    assert not cone_contains((a, b), Root((1, 0), 1))
    with pytest.raises(DomainError):
        cone_contains((a, b), Root((1, 1, 5)))


def test_cone_contains_matches_the_simplex_referee():
    # every (pair, target) triple, against the Fraction simplex the kernel replaced
    def coords(r):
        return [*r.coeffs, r.delta]

    for system, level in ((build_system("A3"), 0), (build_system("G2"), 0), (A1T, 3),
                          (build_system("A~2"), 1)):
        roots = system.roots_up_to(level)
        for g1, g2 in combinations(roots, 2):
            rows = [list(row) for row in zip(coords(g1), coords(g2))]
            for t in roots:
                if t not in (g1, g2):
                    want = dense.solve_nonneg(rows, coords(t)) is not None
                    assert cone_contains((g1, g2), t) == want, (system, g1, g2, t)


def _ambient_sets():
    """Finite Φ, which hold α with −α; affine Φ⁺ up to a level; and affine
    roots of both signs, where α+kδ and −α−kδ are parallel."""
    for spec in ("A1", "A2", "B2", "G2", "A3", "B3"):
        yield pytest.param(build_system(spec).finite_roots, id=f"{spec}-full")
    for spec, level in (("A~1", 3), ("A~2", 2), ("C~2", 2), ("G~2", 2)):
        yield pytest.param(build_system(spec).positive_roots_up_to(level),
                           id=f"{spec}-positive-{level}")
    yield pytest.param(build_system("A~2").roots_up_to(1), id="A~2-both-signs-1")


@pytest.mark.parametrize("ambient", _ambient_sets())
def test_cone_table_matches_the_all_triples_table(ambient):
    # the plane-keyed table against every (pair, third root) asked of the simplex
    roots = sorted(ambient, key=lambda r: r.key)
    coords = [(*r.coeffs, r.delta) for r in roots]
    n = len(roots)
    want = [[1 << i] * n for i in range(n)]
    for i, j in combinations(range(n), 2):
        rows = list(zip(coords[i], coords[j]))
        want[i][j] = want[j][i] = sum(1 << t for t in range(n) if t in (i, j)
                                      or dense.solve_nonneg(rows, coords[t]) is not None)
    assert biclosed._cone_table(roots) == want


def test_cone_table_asks_only_inside_each_plane(monkeypatch):
    # D4 Φ⁺: 660 cone questions over all triples; inside the 16 A2 planes, 48
    # with the plane key's sign fixed and 32 with each plane oriented
    calls = []

    def counting(generators, target):
        calls.append(target)
        return cone_contains(generators, target)

    monkeypatch.setattr(biclosed, "cone_contains", counting)
    d4 = build_system("D4")
    assert len(enumerate_biclosed(d4, d4.positive_roots)) == 192
    assert len(calls) <= 32


def test_biclosed_check_reads_one_table(monkeypatch):
    # both sides are read off one table, with the witness closure_check gives
    tables = []
    cone_table = biclosed._cone_table

    def counting(roots):
        tables.append(len(roots))
        return cone_table(roots)

    monkeypatch.setattr(biclosed, "_cone_table", counting)
    ambient = A2.positive_roots
    for gamma, side in (({Root((1, 0)), Root((1, 1))}, None), ({Root((1, 1))}, "complement"),
                        ({Root((1, 0)), Root((0, 1))}, "set")):
        tables.clear()
        rep = biclosed_check(A2, gamma, ambient)
        assert tables == [3] and rep.side == side
        members = gamma if side == "set" else set(ambient) - gamma
        assert rep.witness == closure_check(A2, members, ambient).witness


def test_closure_checks_take_roots_of_the_system_only():
    # α+δ and α+3δ are no roots of the finite A2, nor is a vector of rank 3
    a = Root((1, 0))
    for bad in (Root((1, 0), 1), Root((1, 0), 3), Root((1, 1, 5))):
        with pytest.raises(DomainError, match=re.escape(f"{bad} is not a root")):
            enumerate_biclosed(A2, [a, bad])
        with pytest.raises(DomainError):
            closure_check(A2, [a], [a, bad])
        with pytest.raises(DomainError):
            closure_check(A2, [a, bad], A2.positive_roots)
        with pytest.raises(DomainError):
            biclosed_check(A2, [a], [a, bad])
    # δ itself is no real root of A~1
    with pytest.raises(DomainError):
        enumerate_biclosed(A1T, [ALPHA, Root((0,), 1)])


def test_closure_check_witnesses():
    rep = closure_check(A2, {Root((1, 0)), Root((0, 1))}, A2.positive_roots)
    assert not rep.closed
    assert rep.witness == ((Root((0, 1)), Root((1, 0))), Root((1, 1)))
    rep = closure_check(A2, {Root((1, 0)), Root((1, 1))}, A2.positive_roots)
    assert rep.closed and rep.witness is None

    # delta+alpha = 2*alpha + (delta-alpha) sits in the pair cone
    amb = A1T.positive_roots_up_to(2)
    rep = closure_check(A1T, {ALPHA, DMA}, amb)
    assert not rep.closed
    assert rep.witness == ((ALPHA, DMA), Root((1,), 1))


def test_biclosed_check_sides():
    rep = biclosed_check(A2, {Root((1, 0)), Root((1, 1))}, A2.positive_roots)
    assert rep.ok
    rep = biclosed_check(A2, {Root((1, 1))}, A2.positive_roots)
    assert not rep.ok and rep.side == "complement"
    rep = biclosed_check(A2, {Root((1, 0)), Root((0, 1))}, A2.positive_roots)
    assert not rep.ok and rep.side == "set"


def test_enumerate_matches_inversion_sets():
    for sys_, n in ((A2, 6), (B2, 8), (build_system("G2"), 12)):
        found = set(enumerate_biclosed(sys_, sys_.positive_roots))
        assert len(found) == n
        assert found == {w.inversion_set() for w in ball(sys_, 2 * n)}


def test_enumerate_full_root_system_counts():
    assert len(enumerate_biclosed(A2, A2.positive_roots + tuple(-r for r in A2.positive_roots))) == 20
    full_b2 = B2.positive_roots + tuple(-r for r in B2.positive_roots)
    assert len(enumerate_biclosed(B2, full_b2)) == 26
    # the biclosed subsets of a finite Φ are exactly its twisted positive
    # systems, which is what lets limit_set certify by decomposition
    for spec in ("A2", "B2", "G2", "A3"):
        system = build_system(spec)
        assert (set(enumerate_biclosed(system, system.finite_roots))
                == set(_reference_witnesses(system)))


def test_enumerate_matches_the_subset_scan_referee():
    # seeded ambient subsets of a finite Φ and of an affine Φ⁺ up to level 2,
    # against a scan of every subset whose cones come from the simplex
    rng = random.Random(17)
    cone = {}

    def in_cone(g1, g2, t):
        if (g1, g2, t) not in cone:
            rows = list(zip((*g1.coeffs, g1.delta), (*g2.coeffs, g2.delta)))
            cone[g1, g2, t] = dense.solve_nonneg(rows, (*t.coeffs, t.delta)) is not None
        return cone[g1, g2, t]

    for spec in ("A2", "B2", "G2", "A3", "B3", "A~1", "A~2", "C~2", "G~2", "B~3"):
        system = build_system(spec)
        pool = sorted(system.finite_roots if system.kind == "finite"
                      else system.positive_roots_up_to(2), key=lambda r: r.key)
        for _ in range(15):
            roots = sorted(rng.sample(pool, rng.randint(1, min(11, len(pool)))),
                           key=lambda r: r.key)
            scan = sorted(dense.biclosed_subsets(roots, in_cone), key=lambda idx: (len(idx), idx))
            assert enumerate_biclosed(system, roots) == tuple(
                frozenset(roots[t] for t in idx) for idx in scan), (spec, roots)


def test_enumerate_past_the_subset_scan():
    # D4 Φ has exactly _ENUM_LIMIT roots, and A5 Φ⁺ has 720 inversion sets
    d4 = build_system("D4")
    assert len(d4.finite_roots) == 24
    found = enumerate_biclosed(d4, d4.finite_roots)
    assert len(found) == 1970 and set(found) == set(_reference_witnesses(d4))
    a5 = build_system("A5")
    found = enumerate_biclosed(a5, a5.positive_roots)
    assert len(found) == 720 and set(found) == {w.inversion_set() for w in ball(a5, 15)}


def test_enumerate_counts_the_weyl_group():
    # over a finite Φ⁺ the biclosed sets are the inversion sets, one per element;
    # F4 Φ⁺ has 24 roots, as many as the enumeration takes
    for spec, order in (("F4", 1152), ("D5", 1920)):
        system = build_system(spec)
        assert len(enumerate_biclosed(system, system.positive_roots)) == order


def test_enumerate_limit():
    e6 = build_system("E6")
    with pytest.raises(ResourceError):
        enumerate_biclosed(e6, e6.positive_roots)


def test_explicit_oracle():
    orc = Explicit(A2, {Root((1, 0)), Root((1, 1))})
    assert orc.member(Root((1, 0))) and not orc.member(Root((0, 1)))
    assert limit_set(orc) == frozenset()
    assert orc.stable_level() == 1
    assert Explicit(A1T, {Root((1,), 2)}).stable_level() == 3
    with pytest.raises(ValidationError):
        Explicit(A2, {Root((-1, 0))})
    with pytest.raises(ValidationError):
        Explicit(A2, {Root((2, 0))})


def test_finite_system_has_no_delta_levels():
    with pytest.raises(ValidationError):
        Explicit(A2, {Root((1, 0), 1)})
    with pytest.raises(DomainError):
        Explicit(A2, ()).member(Root((1, 0), 5))


def test_hat_form_membership():
    neg = HatForm(A1T, simple(A1T, 0), (), ())     # hat of the negative system
    assert neg.member(DMA) and neg.member(Root((-1,), 2))
    assert not neg.member(ALPHA) and not neg.member(Root((1,), 1))
    pos = HatForm(A1T, identity(A1T), (), ())
    assert pos.member(ALPHA) and pos.member(Root((1,), 3))
    assert not pos.member(DMA)
    assert pos.stable_level() == 1
    assert limit_set(pos) == {ALPHA}


def test_hat_form_validation():
    with pytest.raises(ValidationError):
        HatForm(A2, identity(A2), (), ())          # finite system
    with pytest.raises(ValidationError):
        HatForm(A1T, simple(A1T, 1), (), ())       # not in the finite Weyl part
    with pytest.raises(ValidationError):
        HatForm(A1T, identity(A1T), (0,), (0,))    # overlap
    a2t = build_system("A~2")
    with pytest.raises(ValidationError):
        HatForm(a2t, identity(a2t), (0,), (1,))    # not orthogonal
    with pytest.raises(ValidationError):
        HatForm(a2t, identity(a2t), (), (5,))      # out of range


def test_hat_form_mixed_directions():
    a2t = build_system("A~2")
    mix = HatForm(a2t, identity(a2t), (), (0,))
    a = Root((1, 0))
    assert mix.member(a) and mix.member(Root((-1, 0), 1))
    assert mix.member(Root((0, 1))) and not mix.member(Root((0, -1), 1))


def test_twisted_membership():
    orc = Explicit(A2, {Root((1, 0))})
    tw = Twisted(simple(A2, 0), orc)
    # s_a maps a -> -a: a sits in Phi_w and w^{-1}a = -a with a in B, so out
    assert not tw.member(Root((1, 0)))
    # w^{-1}(a+b) = b, not in B
    assert not tw.member(Root((1, 1)))
    assert tw.member(Root((0, 1))) is False
    tw2 = Twisted(simple(A2, 1), orc)
    assert tw2.member(Root((1, 1)))                # maps back to a in B


def test_act_on_biclosed_collapse():
    orc = Explicit(A2, {Root((1, 0))})
    w, v = simple(A2, 0), simple(A2, 1)
    nested = act_on_biclosed(w, act_on_biclosed(v, orc))
    assert isinstance(nested, Twisted)
    assert nested.w == w * v and nested.inner is orc
    assert act_on_biclosed(identity(A2), orc) is orc
    # acting by w then w^{-1} lands back on the plain oracle
    undone = act_on_biclosed(w.inverse(), act_on_biclosed(w, orc))
    assert undone is orc


def test_action_matches_inversion_translation():
    # w.B on inversion sets: w.Phi_u = Phi_{wu} whenever lengths add
    u = from_word(B2, (1, 0))
    w = from_word(B2, (0, 1))
    acted = act_on_biclosed(w, Explicit(B2, u.inversion_set()))
    target = (w * u).inversion_set()
    for rho in B2.positive_roots:
        assert acted.member(rho) == (rho in target)


def test_complement():
    orc = Explicit(A2, {Root((1, 0))})
    comp = Complement(orc)
    assert not comp.member(Root((1, 0))) and comp.member(Root((0, 1)))
    assert comp.inner is orc
    # explicit sets vanish at infinity, so the complement limit is everything
    assert limit_set(comp) == frozenset(A2.finite_roots)


def test_expand_psi_identity_cases():
    assert expand_psi(A2, identity(A2), (), ()) == frozenset(A2.positive_roots)
    w0 = from_word(A2, (0, 1, 0))
    assert expand_psi(A2, w0, (), ()) == frozenset(-r for r in A2.positive_roots)
    everything = expand_psi(A2, identity(A2), (), (0,))
    assert Root((-1, 0)) in everything and Root((0, -1)) not in everything


def test_expand_psi_validation():
    with pytest.raises(ValidationError):
        expand_psi(A2, identity(A2), (0,), (0,))
    with pytest.raises(ValidationError):
        expand_psi(A2, identity(A2), (0,), (1,))


def test_classify_finite_biclosed():
    u, d1, d2 = classify_finite_biclosed(A2, {Root((0, 1)), Root((1, 1))})
    assert (u, d1, d2) == (identity(A2), frozenset({0}), frozenset())
    full = set(A2.positive_roots) | {-r for r in A2.positive_roots}
    u, d1, d2 = classify_finite_biclosed(A2, full)
    assert u == identity(A2) and d1 == frozenset() and d2 == {0, 1}
    with pytest.raises(ClassificationError):
        classify_finite_biclosed(A2, {Root((1, 1))})
    with pytest.raises(ClassificationError):                # Δ1, Δ2 not orthogonal
        classify_finite_biclosed(A2, {Root((0, 1)), Root((0, -1))})
    # a vector that is no root of A2, at level 0 or past it, is a verdict too
    positive = set(A2.positive_roots)
    for bad in (Root((2, 0)), Root((1, 1, 0)), Root((1, 0), 1), Root((-1, 0), -1)):
        with pytest.raises(ClassificationError):
            classify_finite_biclosed(A2, positive | {bad})


def _subsets_sorted(indices):
    idx = sorted(indices)
    subs = [tuple(idx[t] for t in range(len(idx)) if mask >> t & 1)
            for mask in range(1 << len(idx))]
    return sorted(subs, key=lambda s: (len(s), s))


def _triples(system):
    """Every (u, Δ1, Δ2) in the order of the original brute-force classifier:
    u through the whole group in ShortLex order, then the subset pairs in
    sorted order."""
    k = system.rank_finite
    for u in ball(system, len(system.positive_roots)):
        for d1 in _subsets_sorted(range(k)):
            compatible = [j for j in range(k)
                          if j not in d1 and all(system.form[i][j] == 0 for i in d1)]
            for d2 in _subsets_sorted(compatible):
                yield u, frozenset(d1), frozenset(d2)


def _shortlex_scan(system):
    """Every (u, Δ1, Δ2) with its twisted positive system, expanded root by
    root by the referee, so the scan shares no kernel with the classifier."""
    for witness in _triples(system):
        yield witness, dense.twisted_positive_system(*witness)


def test_expand_psi_matches_the_root_by_root_referee():
    # the pattern kernel against the referee's set algebra on Roots: every
    # (u, Δ1, Δ2) of four finite types, then the hat forms of the battery
    # and every twisted positive system of two affine types as a hat form
    for spec in ("A3", "B3", "G2", "D4"):
        system = build_system(spec)
        for u, d1, d2 in _triples(system):
            assert expand_psi(system, u, d1, d2) == dense.twisted_positive_system(u, d1, d2)
    hats = []
    for spec in ("A~1", "A~2", "C~2", "G~2", "A~3", "B~3"):
        system = build_system(spec)
        for _, oracle in standard_battery(system):
            while isinstance(oracle, (Twisted, Complement)):
                oracle = oracle.inner
            if isinstance(oracle, HatForm):
                hats.append(oracle)
    for spec in ("A~2", "B~3"):
        hats += [parse_biclosed(build_system(spec), expr) for expr in _hat_expressions(spec)]
    assert len(hats) > 300
    for hat in hats:
        want = dense.twisted_positive_system(hat.u, hat.delta1, hat.delta2)
        assert limit_set(hat) == want, hat.key()
        assert expand_psi(hat.system, hat.u, hat.delta1, hat.delta2) == want, hat.key()


def _reference_witnesses(system):
    """Γ -> the first (u, Δ1, Δ2) of the scan that expands to Γ."""
    first = {}
    for witness, gamma in _shortlex_scan(system):
        first.setdefault(gamma, witness)
    return first


def _plain(witness):
    u, d1, d2 = witness
    return u.word, d1, d2


def test_classify_finite_matches_reference_scan():
    for spec in ("A3", "B2", "G2"):
        system = build_system(spec)
        reference = _reference_witnesses(system)
        for gamma, witness in reference.items():
            assert _plain(classify_finite_biclosed(system, gamma)) == _plain(witness)
        # non-examples: every one-root change of a twisted positive system
        # that the scan never produces
        rejected = 0
        for gamma in reference:
            for rho in system.finite_roots:
                other = gamma ^ {rho}
                if other in reference:
                    continue
                with pytest.raises(ClassificationError):
                    classify_finite_biclosed(system, other)
                rejected += 1
        assert rejected


def _round_trip(system, word, d1, d2):
    u = from_word(system, word)
    gamma = expand_psi(system, u, d1, d2)
    v, e1, e2 = classify_finite_biclosed(system, gamma)
    assert (e1, e2) == (frozenset(d1), frozenset(d2))
    assert expand_psi(system, v, e1, e2) == gamma
    # v is the minimal representative of the coset u·W_{Δ1∪Δ2}
    parabolic = set(d1) | set(d2)
    assert set((v.inverse() * u).word) <= parabolic
    assert all(v.apply(system.simple_root(j)).is_positive for j in parabolic)


def test_classify_finite_biclosed_large_rank():
    for spec in ("D5", "E6"):
        system = build_system(spec)
        k = system.rank_finite
        e = identity(system)
        assert (classify_finite_biclosed(system, set())
                == (e, frozenset(range(k)), frozenset()))
        assert (classify_finite_biclosed(system, system.finite_roots)
                == (e, frozenset(), frozenset(range(k))))
        w0, d1, d2 = classify_finite_biclosed(system, {-r for r in system.positive_roots})
        assert w0.inversion_set() == frozenset(system.positive_roots)
        assert (d1, d2) == (frozenset(), frozenset())
        # index sets orthogonal in both D5 and E6
        _round_trip(system, (3, 1, 0, 2, 4, 3), (0,), (4,))
        _round_trip(system, (2, 0, 1, 3, 2, 4), (0, 1), ())
        _round_trip(system, (1, 2, 3, 4, 2, 1, 0), (), (3,))
        _round_trip(system, (4, 3, 2, 1, 0, 2, 3), (), ())


def test_oracle_keys_distinct():
    oracles: list[BiclosedOracle] = [
        Explicit(A2, set()),
        Explicit(A2, {Root((1, 0))}),
        Complement(Explicit(A2, set())),
        Twisted(simple(A2, 0), Explicit(A2, set())),
    ]
    keys = [o.key() for o in oracles]
    assert len(set(keys)) == len(keys)


def _random_expression(rng, system, words, periods, hats, depth):
    """A seeded nested expression: twists and complements over the leaf kinds."""
    pick = rng.random()
    if depth and pick < 0.35:
        inner = _random_expression(rng, system, words, periods, hats, depth - 1)
        return f"twist {rng.choice(words)} ({inner})"
    if depth and pick < 0.5:
        return f"complement ({_random_expression(rng, system, words, periods, hats, depth - 1)})"
    leaf = rng.choice(("empty", "full", "invset", "explicit", "word-inf", "hat", "hat"))
    if leaf == "invset":
        return f"invset {rng.choice(words)}"
    if leaf == "explicit":
        roots = rng.sample(system.positive_roots_up_to(2), 2)
        return f"explicit [{','.join(r.literal() for r in roots)}]"
    if leaf == "word-inf":   # may fail to stay reduced after the prefix
        return f"word-inf {rng.choice(words)};{rng.choice(periods)}"
    if leaf == "hat":
        return rng.choice(hats)
    return leaf


def _periods(system):
    """Periods that stay reduced from e: translation words, and each word of
    length at most 4 that does, some with a Weyl part of order 2."""
    out = [translation(system, system.dominant_coweight_for({i})).word
           for i in range(system.rank_finite)]
    for w in ball(system, 4):
        try:
            out.append(validate_periodic(system, (), w.word).period)
        except NotReducedError:
            pass
    return [",".join(map(str, p)) for p in out if p]


def _hat_expressions(spec):
    finite = build_system(spec.replace("~", ""))
    out = []
    for gamma in enumerate_biclosed(finite, finite.finite_roots):
        u, d1, d2 = classify_finite_biclosed(finite, gamma)
        out.append("hat " + ":".join(",".join(map(str, x)) for x in (u.word, sorted(d1), sorted(d2))))
    return out


def test_members_match_the_per_root_referee():
    # each kind's membership by its own definition, root by root, against the
    # one pattern and exception mask; and past the stable level, the limits
    rng = random.Random(20)
    cases = []
    for spec in ("A2", "B2", "A~1", "A~2", "C~2", "G~2", "B~3"):
        system = build_system(spec)
        cases += [(system, oracle) for _, oracle in standard_battery(system)]
        if system.kind == "affine":
            words = [",".join(map(str, w.word)) or "e" for w in ball(system, 3)]
            periods, hats = _periods(system), _hat_expressions(spec)
            for _ in range(60):
                expr = _random_expression(rng, system, words, periods, hats, 3)
                try:
                    oracle = parse_biclosed(system, expr)
                except NotReducedError:
                    continue
                cases.append((system, oracle))
    assert len(cases) > 200
    for system, oracle in cases:
        roots = system.positive_roots_up_to(6)
        want = [dense.member(oracle, r) for r in roots]
        inside = oracle.members(system.level_mask(6))
        assert [bool(inside >> system.root_bit(r) & 1) for r in roots] == want, oracle.key()
        limits = dense.limit_roots(oracle)
        assert limit_set(oracle) == limits, oracle.key()
        assert all(got == (r.fin() in limits) for r, got in zip(roots, want)
                   if r.delta >= oracle.stable_level()), oracle.key()
