import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import dense_referee as dense
import pytest

from coxtw.biclosed import Complement, Explicit, HatForm, Twisted, act_on_biclosed
from coxtw.elements import GroupElement, from_word, identity, simple, translation
from coxtw import elements, infwords
from coxtw.errors import ClassificationError, DomainError, NotReducedError
from coxtw.exprs import parse_biclosed
from coxtw.infwords import (WordInvSet, classify, limit_set, t_gamma_infinity,
                            validate_periodic)
from coxtw.system import Root, _root, build_system

A1T = build_system("A~1")
A2T = build_system("A~2")
A2 = build_system("A2")

ALPHA = Root((1,))
DMA = Root((-1,), 1)
DATA = Path(__file__).parent / "data"


def test_validate_periodic_accepts_translation_word():
    w = validate_periodic(A1T, (), (0, 1))
    assert w.period == (0, 1)
    assert from_word(A1T, w.period) == translation(A1T, (1,))
    member = WordInvSet(w).member
    assert member(ALPHA)
    assert member(Root((1,), 3))
    assert not member(DMA)
    assert A1T.pattern_roots(w.pattern) == {ALPHA}


def test_period_power_guard_is_not_an_assert():
    # the walk stops at k = 2m − 1: with m = 1 that is k = 1, the power at
    # which m is found, so no period power is walked past the word's own
    word = validate_periodic(A1T, (), (0, 1))
    assert dense.period_translation(word)[0] == 1
    assert word.pattern == A1T.pattern({ALPHA})


def _referee_failing_power(system, prefix, period, powers=30):
    """The first k at which prefix·period^k is not reduced (0 for the prefix),
    or None, walking `powers` powers letter by letter on matrices: l(w·s) > l(w)
    iff w(α_s) > 0."""
    w = identity(system)
    for i, s in enumerate(prefix + period * powers):
        if w.apply(system.simple_root(s)).is_negative:
            return 0 if i < len(prefix) else (i - len(prefix)) // len(period) + 1
        w = w.mul_simple(s)
    return None


def test_certificate_to_2m_minus_1_agrees_with_30_powers():
    # seeded words: a prefix of random letters, some not reduced, and a period
    # built reduced by ascents, so that many are accepted; the certificate
    # stops at power 2m − 1 and must agree with a walk of 30 powers
    accepted = []
    for spec in ("A~1", "A~2", "A~3", "A~4"):
        system, rng = build_system(spec), random.Random(spec)
        n = system.ngens
        for _ in range(150):
            prefix = tuple(rng.randrange(n) for _ in range(rng.randint(0, 3)))
            period, w = [], identity(system)
            for _ in range(rng.randint(1, n + 2)):
                s = rng.choice([s for s in range(n)
                                if w.apply(system.simple_root(s)).is_positive])
                period.append(s)
                w = w.mul_simple(s)
            period = tuple(period)
            want = _referee_failing_power(system, prefix, period)
            try:
                word = validate_periodic(system, prefix, period)
            except NotReducedError as exc:
                assert exc.failing_power == want, (spec, prefix, period)
            else:
                assert want is None, (spec, prefix, period)
                accepted.append(dense.period_translation(word)[0])
    assert len(accepted) >= 40 and sum(m >= 2 for m in accepted) >= 15, accepted


def test_validate_periodic_makes_no_product(monkeypatch):
    # m and prefix·t_μ come off the reducedness walk, and the (α_j, μ) off the
    # δ-levels of its columns less the prefix's: no product and no inverse
    calls = []

    def counted(name):
        method = getattr(GroupElement, name)
        return lambda *args: calls.append(name) or method(*args)

    cases = [(A2T, (), (0, 1, 2)), (A2T, (1,), (2, 0, 1)),
             (build_system("A~3"), (), (0, 1, 2, 3))]
    for system, prefix, period in cases:
        want = validate_periodic(system, prefix, period).pattern
        for name in ("__mul__", "inverse"):
            monkeypatch.setattr(GroupElement, name, counted(name))
        calls.clear()
        assert validate_periodic(system, prefix, period).pattern == want
        assert calls == [], (system, prefix, period)
        monkeypatch.undo()


def test_multi_term_drift_matches_long_truncations():
    # periods whose Weyl part has order 2 to 6, so the drift sums several
    # conjugates of the period's translation part
    cases = [("A~2", (), (0, 1, 2)), ("C~2", (), (0, 1, 2)),
             ("G~2", (), (0, 1, 2)), ("A~3", (), (0, 1, 2, 3)),
             ("A~2", (1,), (2, 0, 1)), ("A~4", (), (0, 1, 2, 3, 4)),
             ("A~4", (), (0, 1, 2, 4, 3))]
    for spec, prefix, period in cases:
        system = build_system(spec)
        word = validate_periodic(system, prefix, period)
        order, t_mu = dense.period_translation(word)
        assert order > 1
        assert all(isinstance(d, int) for d in t_mu.matrix[-1])
        oracle = WordInvSet(word)
        assert system.pattern_roots(word.pattern) == dense.limit_roots(oracle)

        def truncation(n):
            letters = itertools.islice(itertools.chain(prefix, itertools.cycle(period)), n)
            return from_word(system, letters).inversion_set()

        short, long = truncation(20), truncation(40)
        for rho in system.positive_roots_up_to(2):
            assert (rho in short) == (rho in long), (spec, rho)
            assert oracle.member(rho) == (rho in long), (spec, rho)


class _UnclosedLimits(Explicit):
    """Has the limit pattern {α1, α2}, which misses α1+α2 and so is not
    closed in Φ(A2)."""

    def __init__(self, system, roots):
        super().__init__(system, roots)
        self.pattern = system.pattern({Root((1, 0)), Root((0, 1))})


def test_limit_set_certificate():
    orc = _UnclosedLimits(A2T, ())
    for call in (limit_set, classify):
        with pytest.raises(DomainError, match="not biclosed") as info:
            call(orc)
        # a ClassificationError would read as a verdict to join and check
        assert not isinstance(info.value, ClassificationError)


def test_validate_periodic_prefix():
    # s1 (s0 s1)^inf spells the same word as (s1 s0)^inf
    w = validate_periodic(A1T, (1,), (0, 1))
    member = WordInvSet(w).member
    assert member(DMA)
    assert member(Root((-1,), 2))
    assert not member(Root((1,), 1))
    letters = tuple(itertools.islice(
        itertools.chain(w.prefix, itertools.cycle(w.period)), 4))
    trunc = [from_word(A1T, letters[:n]) for n in range(1, 5)]
    assert [t.length for t in trunc] == [1, 2, 3, 4]


def test_validate_periodic_rejections():
    with pytest.raises(NotReducedError) as info:
        validate_periodic(A2, (), (0,))
    assert info.value.failing_power == 2
    with pytest.raises(NotReducedError) as info:
        validate_periodic(A2, (0, 0), (1,))
    assert info.value.failing_power == 0
    # a period that is not reduced fails on the walk from the prefix, at power 1
    with pytest.raises(NotReducedError) as info:
        validate_periodic(A2, (), (0, 0))
    assert info.value.failing_power == 1
    with pytest.raises(NotReducedError):
        validate_periodic(A1T, (0,), (0, 1))   # s0 s0 s1 ... collapses
    # each letter is checked as a walk checks it, and kept as an int
    for prefix, period, bad in (((1.7,), (0, 1.2, 2), "1.7"), ((1,), (0, "1", 2), "'1'")):
        with pytest.raises(DomainError, match=f"no simple reflection with index {bad}"):
            validate_periodic(A2T, prefix, period)
    word = validate_periodic(A2T, (True,), (False, True, 2))
    assert word.prefix == (1,) and word.period == (0, 1, 2)
    assert {type(s) for s in word.prefix + word.period} == {int}


def test_empty_period_on_finite_system():
    w = validate_periodic(A2, (0, 1), ())
    assert w.period == ()
    member = WordInvSet(w).member
    assert member(Root((1, 0)))
    assert not member(Root((0, 1)))
    assert A2.pattern_roots(w.pattern) == frozenset()
    # with no period the letters stop after the prefix
    letters = tuple(itertools.islice(
        itertools.chain(w.prefix, itertools.cycle(w.period)), 3))
    assert letters == (0, 1)
    assert from_word(A2, letters).word == (0, 1)


def test_word_invset_oracle():
    orc = WordInvSet(validate_periodic(A1T, (), (0, 1)))
    assert orc.member(ALPHA) and orc.member(Root((1,), 2))
    assert not orc.member(DMA)
    assert limit_set(orc) == {ALPHA}


def test_classify_finite():
    orc = Explicit(A1T, {ALPHA})
    res = classify(orc)
    assert res.kind == "finite"
    assert res.element == simple(A1T, 0)
    assert res.witness_json() == [0]
    # memoized on the oracle
    assert classify(orc) is res


def test_classify_infinite_hat():
    neg = HatForm(A1T, simple(A1T, 0), (), ())
    res = classify(neg)
    assert res.kind == "infinite"
    assert res.witness_json() == {"prefix": [], "period": [1, 0]}
    pos = HatForm(A1T, identity(A1T), (), ())
    assert classify(pos).witness_json() == {"prefix": [], "period": [0, 1]}


def test_classify_neither():
    full = Complement(Explicit(A1T, set()))
    res = classify(full)
    assert res.kind == "neither"
    assert res.witness_json() == [[1, 1], [-1, 1]]
    fins = {Root(r.coeffs) for r in res.bad_pair}
    assert fins == {ALPHA, -ALPHA}
    assert all(full.member(r) for r in res.bad_pair)


def _hat_form_cases():
    """(kind, fresh oracle) for the 762 hat forms that criteria 11 and 12 pin."""
    rows = [row for name in ("rank2_hat_forms.json", "rank3_hat_forms.json")
            for row in json.loads((DATA / name).read_text())]
    cases = []
    for row in rows:
        system = build_system(row["type"])
        system.finite_roots   # the cached roots are built before counting
        cases.append((row["kind"], parse_biclosed(system, row["form"])))
    assert len(cases) == 762
    return cases


def test_classify_builds_a_root_only_for_its_bad_pair(monkeypatch):
    # every oracle is two masks, so classify reads masks end to end: no Root
    # for a finite or an infinite verdict, and the two of the pair for neither,
    # counted on the checked `Root.__init__` and the trusted `system._root` alike
    cases = _hat_form_cases()
    built = [0]

    def counting(make):
        def counted(*args):
            built[0] += 1
            return make(*args)
        return counted

    monkeypatch.setattr(Root, "__init__", counting(Root.__init__))
    monkeypatch.setattr("coxtw.system._root", counting(_root))
    for kind, oracle in cases:
        built[0] = 0
        assert classify(oracle).kind == kind, oracle.key()
        assert built[0] == (2 if kind == "neither" else 0), (oracle.key(), built[0])


def test_classify_builds_no_fraction(monkeypatch):
    # each period is proposed from its integer pairings, so no verdict, finite,
    # infinite or neither, builds a Fraction
    cases = _hat_form_cases()
    built, new = [0], Fraction.__new__

    def counting(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    kinds = [classify(oracle).kind for _, oracle in cases]
    assert built[0] == 0
    assert kinds == [kind for kind, _ in cases]


@pytest.mark.parametrize("spec, u_word, delta1", [("A~2", (0, 1), ()), ("B~3", (1, 2), (0,))])
def test_classify_walks_each_period_power_once(monkeypatch, spec, u_word, delta1):
    # at p = e the translation's own word walk, which reads its word, is the
    # first power of the certificate, and each later power up to 2m − 1 is
    # walked once; `walk` and `from_word` both enter `elements._walk`
    system = build_system(spec)
    oracle = HatForm(system, from_word(system, u_word), delta1, ())
    walked, walk = [], elements._walk

    def counting(system, columns, mask, word):
        walked.append(tuple(word))
        return walk(system, columns, mask, word)

    monkeypatch.setattr(elements, "_walk", counting)
    word = classify(oracle).word
    monkeypatch.undo()
    order, _ = dense.period_translation(word)
    assert word.prefix == () and word.period and order >= 1
    assert [w for w in walked if w] == [word.period] * (2 * order - 1)


@pytest.mark.parametrize("spec", ["A~2", "C~2", "G~2", "A~3", "B~3", "C~3", "A~4", "D~4"])
def test_proposed_period_matches_the_fraction_referee(spec):
    # the integer pairings build the same translation as the public Fraction
    # route, t_(ū·λ) for λ = dominant_coweight_for(Δ1), on columns and on word
    system, rng = build_system(spec), random.Random(spec)
    k = system.rank_finite
    for size in range(k + 1):
        for d1 in itertools.combinations(range(k), size):
            for _ in range(3):
                u = from_word(system, [rng.randrange(k) for _ in range(rng.randint(0, 8))])
                lam = system.dominant_coweight_for(d1)
                moved = [sum(row[j] * lam[j] for j in range(k)) for row in u.matrix[:k]]
                want = translation(system, moved)
                got = infwords._proposed_period(system, u, frozenset(d1))
                assert got.columns == want.columns, (spec, d1, u.word)
                assert got.word == want.word, (spec, d1, u.word)


def test_classify_canonicalizes_twist():
    # a twisted copy of an infinite inversion set is still one, and the
    # classifier rebuilds it from scratch rather than echoing the twist
    tw = act_on_biclosed(simple(A2T, 0), HatForm(A2T, from_word(A2T, (0, 1, 0)), (), ()))
    res = classify(tw)
    assert res.kind == "infinite"
    assert res.word.prefix == ()
    assert res.word.period == (0, 2, 0, 1, 0, 2, 0, 1, 0, 2, 0, 1)
    assert isinstance(tw, Twisted)


def test_classify_shifted_word_oracle():
    orc = WordInvSet(validate_periodic(A1T, (1,), (0, 1)))
    res = classify(orc)
    assert res.kind == "infinite"
    assert res.witness_json() == {"prefix": [], "period": [1, 0]}


def test_t_gamma_infinity_a1():
    orc, word = t_gamma_infinity(A1T, (1,))
    assert word.period == (0, 1)
    assert limit_set(orc) == {ALPHA}
    orc, word = t_gamma_infinity(A1T, (-1,))
    assert word.period == (1, 0)
    assert limit_set(orc) == {-ALPHA}


def test_t_gamma_infinity_dominant_a2():
    gamma = A2T.dominant_coweight_for(())
    assert gamma == (3, 3)
    orc, word = t_gamma_infinity(A2T, gamma)
    assert limit_set(orc) == frozenset(A2T.positive_roots)
    assert len(word.period) == 12
    # truncation inversion sets grow inside the oracle
    letters = tuple(itertools.islice(
        itertools.chain(word.prefix, itertools.cycle(word.period)), 4))
    prev = frozenset()
    for n in range(5):
        cur = from_word(A2T, letters[:n]).inversion_set()
        assert prev <= cur
        assert all(orc.member(r) for r in cur)
        prev = cur


def test_t_gamma_infinity_rejections():
    with pytest.raises(DomainError):
        t_gamma_infinity(A2, (1, 0))
    with pytest.raises(DomainError):
        t_gamma_infinity(A1T, (0,))


def test_word_oracle_agrees_with_classifier_witness():
    base = validate_periodic(A2T, (), translation(A2T, (2, 1)).word)
    orc = WordInvSet(base)
    res = classify(orc)
    assert res.kind == "infinite"
    other = WordInvSet(res.word)
    for rho in A2T.positive_roots_up_to(3):
        assert orc.member(rho) == other.member(rho)
