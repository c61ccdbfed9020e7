import random
from fractions import Fraction

import dense_referee
import pytest
from hypothesis import given, settings, strategies as st

from coxtw import elements
from coxtw.elements import (GroupElement, ascend, ball, from_word, grow,
                            identity, simple, translation, walk, weyl_part)
from coxtw.errors import ClassificationError, DomainError
from coxtw.infwords import WordInvSet, classify, validate_periodic
from coxtw.oracle import standard_battery
from coxtw.order import chain, cover_neighbors, interval, le, lower_bound, meet
from coxtw.system import Root, build_system

A1T = build_system("A~1")
A2 = build_system("A2")
B2 = build_system("B2")


def test_simple_matrices_affine_a1():
    assert simple(A1T, 0).matrix == ((-1, 0), (0, 1))
    assert simple(A1T, 1).matrix == ((-1, 0), (2, 1))
    assert from_word(A1T, (0, 1)).matrix == ((1, 0), (2, 1))


def _pairing(system, u, v):
    """(u, v) from the finite form; δ pairs to zero with everything."""
    return sum(a * f * b for a, row in zip(u.coeffs, system.form)
               for f, b in zip(row, v.coeffs))


def test_simple_reflections_are_reflections():
    # s fixes δ, sends α_s to −α_s, moves every vector along α_s only and
    # preserves the form; these pin s down as the reflection in α_s
    for spec in ("A3", "B3", "C3", "F4", "G2", "A~1", "A~3", "B~3", "C~3",
                 "D~4", "E~6", "F~4", "G~2"):
        system = build_system(spec)
        k = system.rank_finite
        for s in range(system.ngens):
            w, alpha = simple(system, s), system.simple_root(s)
            a = alpha.coeffs + (alpha.delta,)
            assert w.apply(alpha) == -alpha
            if system.kind == "affine":
                assert w.apply(Root((0,) * k, 1)) == Root((0,) * k, 1)
            for i in range(k):
                beta = system.simple_root(i)
                moved = w.apply(beta)
                v = tuple(x - y for x, y in zip(moved.coeffs + (moved.delta,),
                                                beta.coeffs + (0,)))
                assert all(v[p] * a[q] == v[q] * a[p] for p in range(k + 1) for q in range(k + 1))
                for j in range(k):
                    gamma = system.simple_root(j)
                    assert _pairing(system, moved, w.apply(gamma)) == _pairing(system, beta, gamma)


def test_word_canonicalization():
    assert from_word(A2, (0, 0)).is_identity
    assert from_word(A2, (0, 1, 0)) == from_word(A2, (1, 0, 1))
    assert from_word(A2, (1, 0, 1)).word == (0, 1, 0)
    assert from_word(B2, (1, 0, 1, 0)).word == (0, 1, 0, 1)
    assert from_word(B2, (1, 0, 1, 0, 1)).word == (0, 1, 0)


def test_lengths_and_descents():
    def descents(w):
        right = tuple(s for s in range(2) if w.mul_simple(s).length < w.length)
        left = tuple(s for s in range(2) if (simple(B2, s) * w).length < w.length)
        return left, right

    w = from_word(B2, (0, 1, 0))
    assert w.length == 3
    assert descents(w) == ((0,), (0,))
    assert descents(from_word(B2, (0, 1, 0, 1))) == ((0, 1), (0, 1))
    assert descents(identity(B2)) == ((), ())


def test_ball_sizes():
    assert len(ball(A2, 10)) == 6
    assert len(ball(B2, 10)) == 8
    assert len(ball(build_system("G2"), 12)) == 12
    assert len(ball(build_system("A3"), 10)) == 24
    b3 = ball(A1T, 3)
    assert sorted(w.length for w in b3) == [0, 1, 1, 2, 2, 3, 3]
    assert len(ball(A1T, 9)) == 19


def test_ball_grows_past_a_finite_group():
    # Growth stops at the first empty level, however large the radius.
    a2 = build_system("A2")
    assert len(ball(a2, 4)) == 6
    assert len(ball(a2, 10)) == 6
    assert len(ball(a2, 10 ** 9)) == 6
    assert [w.word for w in ball(a2, 5)] == [w.word for w in ball(A2, 3)]


def test_inversion_sets():
    w = from_word(A1T, (1, 0))
    assert w.inversion_set() == {Root((-1,), 1), Root((-1,), 2)}
    t = from_word(A1T, (0, 1))
    assert t.inversion_set() == {Root((1,)), Root((1,), 1)}
    assert from_word(A2, (0, 1)).inversion_set() == {Root((1, 0)), Root((1, 1))}
    assert len(from_word(B2, (0, 1, 0, 1)).inversion_set()) == 4


def test_action():
    s0 = simple(A2, 0)
    assert s0.apply(Root((0, 1))) == Root((1, 1))
    assert s0.apply(Root((1, 0))) == Root((-1, 0))
    # apply makes no root check and is linear on anything
    assert s0.apply(Root((2, 0))) == Root((-2, 0))


def test_action_refuses_vectors_of_another_lattice():
    # α+δ has a δ-level the finite A2 lacks, and (1, 1, 5) a third coefficient
    s0 = simple(A2, 0)
    for bad in (Root((1, 0), 1), Root((1, 1, 5))):
        with pytest.raises(DomainError, match="root lattice"):
            s0.apply(bad)
    with pytest.raises(DomainError, match="root lattice"):
        simple(A1T, 0).apply(Root((1, 0), 1))


def test_labels_and_json():
    assert identity(A1T).label() == "e"
    assert simple(A1T, 1).label() == "s_{d-a}"
    assert from_word(A1T, (0, 1)).label() == "s_a s_{d-a}"


def test_translations():
    t = translation(A1T, (1,))
    assert t.word == (0, 1)
    # the δ-row of t_λ is ((α_j, λ))_j: (α, α^∨) = 2
    assert t.matrix[1] == (2, 1)
    back = translation(A1T, (-1,))
    assert back.word == (1, 0)
    assert (t * back).is_identity
    assert weyl_part(t).is_identity
    assert weyl_part(simple(A1T, 1)) == simple(A1T, 0)


def test_translation_additivity_a2t():
    a2t = build_system("A~2")
    ta = translation(a2t, (3, 3))
    tb = translation(a2t, (2, 1))
    assert ta * tb == translation(a2t, (5, 4))
    # λ = 5α_1 + 4α_2 pairs to (10 − 4, −5 + 8) with the simple roots
    assert (ta * tb).matrix[2] == (6, 3, 1)
    assert ta.length == len(ta.word)


def test_translation_rejections():
    with pytest.raises(DomainError):
        translation(A2, (1, 0))              # finite system
    with pytest.raises(DomainError):
        translation(A1T, (Fraction(1, 2),))  # not in the coroot lattice
    with pytest.raises(DomainError):
        translation(A1T, (1, 0))             # wrong length


def test_integer_kernels_match_dense_referees():
    rng = random.Random(2)
    b3t = build_system(cartan=[[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
                       symmetrizer=(Fraction(1, 3), Fraction(1, 3), Fraction(1, 6)),
                       affine=True)
    for system in [build_system(spec) for spec in ("E8", "F4", "B~3", "G~2", "F~4", "E~8")] + [b3t]:
        k = system.rank_finite
        elements = [identity(system)]
        for length in range(0, 31, 3):
            elements.append(from_word(system, [rng.randrange(system.ngens) for _ in range(length)]))
        if system.kind == "affine":
            elements += [weyl_part(w) for w in elements[-4:]]
            for _ in range(4):
                coroot = [rng.randrange(-3, 4) for _ in range(k)]
                elements.append(translation(system, [c / d for c, d in zip(coroot, system.symmetrizer)]))
        for w in elements:
            dense = dense_referee.inverse(w.matrix)
            assert w.inverse().matrix == dense, (system, w.matrix)
            for s in range(system.ngens):
                assert w.mul_simple(s) == w * simple(system, s), (system, s)


def test_inverse_guard_is_not_an_assert():
    # a matrix that does not preserve the form is no group element: the word
    # read off its heights does not rebuild it, and inverse() walks that word
    with pytest.raises(DomainError, match="no group element"):
        GroupElement(A2, ((1, 1), (0, 1))).inverse()


def test_group_laws():
    u = from_word(B2, (0, 1))
    v = from_word(B2, (1, 0, 1))
    assert (u * v).inverse() == v.inverse() * u.inverse()
    assert u * identity(B2) == u
    assert (u * u.inverse()).is_identity


WORDS = st.lists(st.integers(min_value=0, max_value=2), max_size=7).map(tuple)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(WORDS, WORDS)
def test_length_parity_and_subadditivity(wu, wv):
    sys3 = build_system("A~2")
    u, v = from_word(sys3, wu), from_word(sys3, wv)
    w = u * v
    assert (w.length - u.length - v.length) % 2 == 0
    assert w.length <= u.length + v.length
    assert len(w.inversion_set()) == w.length
    for s in range(sys3.ngens):
        assert u.mul_simple(s) == u * simple(sys3, s)


@settings(deadline=None, derandomize=True, max_examples=60)
@given(WORDS)
def test_inversion_set_positive_and_word_reduced(word):
    sys3 = build_system("A~2")
    w = from_word(sys3, word)
    assert all(r.is_positive for r in w.inversion_set())
    assert from_word(sys3, w.word) == w
    assert len(w.word) == w.length


def test_ascend_rebuilds_from_inversion_set():
    for spec, radius in (("B3", 9), ("G~2", 5)):
        system = build_system(spec)
        for w in ball(system, radius):
            assert ascend(system, w.inversion_mask()) == w


def test_ascend_keeps_the_shortlex_word_it_walked():
    # each step takes the smallest left descent of w⁻¹x, so the letters walked
    # are the ShortLex word read off the heights of a bare element of x's matrix
    for spec, radius in (("B3", 9), ("A~2", 6)):
        system = build_system(spec)
        for x in ball(system, radius):
            assert ascend(system, x.inversion_mask()).word == GroupElement(system, x.matrix).word


@pytest.mark.parametrize("spec, radius, products", [
    ("E6", 8, 1973), ("B~3", 8, 346), ("A~3", 12, 1324)])
def test_grow_builds_each_element_once(monkeypatch, spec, radius, products):
    # keyed by Φ_ws, a level builds one product per new element; keyed by the
    # product's matrix, these balls took 4,590, 576 and 2,336 products
    calls = []
    mul_simple = GroupElement.mul_simple

    def counting(self, s, image=None):
        calls.append(s)
        return mul_simple(self, s, image)

    monkeypatch.setattr(GroupElement, "mul_simple", counting)
    assert len(ball(build_system(spec), radius)) == products + 1
    assert len(calls) == products


def _assert_inherited_shortlex(system, level):
    # every word was seeded by grow, equals the word of a bare element of the
    # same matrix, and the level is in ShortLex order
    words = [w._word for w in level]
    assert None not in words
    assert words == sorted(words, key=lambda u: (len(u), u))
    assert words == [GroupElement(system, w.matrix).word for w in level]


@pytest.mark.parametrize("spec, radius", [
    ("A3", 6), ("B3", 9), ("G2", 6), ("F4", 8), ("D4", 12), ("E6", 6),
    ("E8", 5), ("A~2", 9), ("C~2", 9), ("G~2", 9), ("A~3", 7), ("B~3", 7),
    ("F~4", 5)])
def test_ball_words_are_inherited_in_shortlex_order(spec, radius):
    system = build_system(spec)   # fresh, so ball grows every level here
    _assert_inherited_shortlex(system, ball(system, radius))


def _walk(system, keep, depth):
    """The levels grow makes from e under keep (a test on root bits), at most depth of them."""
    level, levels = [identity(system)], []
    while level and len(levels) < depth:
        levels.append(level)
        level = grow(system, level, keep)
    return levels


def test_grow_under_an_inversion_set_inherits_shortlex_words():
    f4 = build_system("F4")
    x = from_word(f4, (0, 1, 2, 3, 2, 1, 0, 2, 1, 2))
    levels = _walk(f4, lambda b: x.inversion_mask() >> b & 1, 99)
    assert levels[-1] == [x] and len(levels) == x.length + 1
    b3t = build_system("B~3")
    orc = WordInvSet(validate_periodic(b3t, (3,), translation(b3t, (1, 0, 0)).word))
    levels += _walk(b3t, lambda b: orc.members(1 << b), 9)
    for level in levels:
        _assert_inherited_shortlex(level[0].system, level)


def _reduced_words(system, seed, count, lengths):
    """count random reduced words, each grown by ascents to a length in lengths."""
    rng, words = random.Random(seed), []
    for _ in range(count):
        w = identity(system)
        for _ in range(rng.choice(lengths)):
            w = w.mul_simple(rng.choice([s for s in range(system.ngens)
                                         if w.apply(system.simple_root(s)).is_positive]))
        words.append(w)
    return words


@pytest.mark.parametrize("spec, radius", [("F4", 6), ("B~3", 5), ("G~2", 6), ("E8", None)])
def test_one_peel_agrees_with_the_definitions(spec, radius):
    system = build_system(spec)
    if radius is None:
        elems = _reduced_words(system, 9, 4, range(30, 41))
    else:
        elems = ball(system, radius)
    for w in elems:
        m = w.matrix
        # Φ_w as the walk up a reduced word makes it: the prefix images
        prefix, walked = identity(system), set()
        for s in GroupElement(system, m).word:
            walked.add(prefix.apply(system.simple_root(s)))
            prefix = prefix.mul_simple(s)
        x = GroupElement(system, m)
        xinv = x.inverse()
        assert x.inversion_set() == walked
        recorded = from_word(system, w.word)
        assert recorded.inversion_set() == walked and recorded.matrix == m
        if system.kind == "finite":
            assert walked == {b for b in system.positive_roots if xinv.apply(b).is_negative}
        assert xinv.word == GroupElement(system, xinv.matrix).word   # walked and bare agree
        before = GroupElement(system, m)
        length = before.length
        assert before.word == w.word and before.length == length == len(w.word)
        after = GroupElement(system, m)
        assert after.word == w.word and after.length == length
    for i in range(system.ngens):
        assert system.simple_root(i) is system.simple_root(i)
    for i in (-1, system.ngens):
        with pytest.raises(DomainError):
            system.simple_root(i)


NON_ELEMENTS = [
    # −1 on A2 is w_0 times the diagram flip, so its word rebuilds w_0; one
    # sends α_a to α_a − α_b, which is no root; δ ↦ −δ on A~1 fixes every
    # height, so its word is empty; and one does not preserve the form
    ("A2", ((-1, 0), (0, -1))),
    ("A2", ((1, 0), (-1, 1))),
    ("A~1", ((1, 0), (0, -1))),
    ("A2", ((1, 1), (0, 1))),
]


def test_word_guard_is_not_an_assert(monkeypatch):
    # a matrix with no recorded Φ is certified by walking its word from e, so
    # each way into a non-element's word raises, on a fresh element each time
    monkeypatch.setattr(elements, "_WORD_GUARD", 1000)
    for spec, matrix in NON_ELEMENTS:
        system = build_system(spec)
        for read in (lambda w: w.word, lambda w: w.length,
                     lambda w: w.inversion_set(), lambda w: w.inverse()):
            with pytest.raises(DomainError, match="no group element"):
                read(GroupElement(system, matrix))
    # and the height walk stops at the guard, here below l(w) = 3
    monkeypatch.setattr(elements, "_WORD_GUARD", 2)
    for w in (from_word(A2, (0, 1, 0)), GroupElement(A2, from_word(A2, (0, 1, 0)).matrix)):
        with pytest.raises(DomainError, match="terminate"):
            w.word


@pytest.mark.parametrize("column_bit, corruption", [
    (lambda column: -1, "not positive"),
    (lambda column: 0, "not distinct"),
])
def test_inversion_set_guards_are_not_asserts(monkeypatch, column_bit, corruption):
    # a bare matrix is certified by the walk of its word from e, which reads
    # each inversion's bit through `column_bit`, corrupted here to no positive
    # root or to one repeated root: the walk's record loses track
    a2 = build_system("A2")
    w = GroupElement(a2, from_word(a2, (0, 1)).matrix)
    monkeypatch.setattr(a2, "column_bit", column_bit)
    with pytest.raises(DomainError, match="lost track"):
        w.inversion_set()
    assert w._word is None and w._mask is None


def test_from_word_validates_letters_and_its_record(monkeypatch):
    for system in (A2, build_system("A~2")):
        for letter in (-1, system.ngens):
            with pytest.raises(DomainError):
                from_word(system, (0, letter))
    # a corrupt reflection table: s_0 fixing everything adds α_0 twice, and
    # s_0 sending α_1 to α_1 − 2α_0 makes −(2,−1) a descent never recorded
    for pairs, word in (((), (0, 0)), (((0, 2), (1, 2)), (0, 1))):
        system = build_system("A2")
        monkeypatch.setattr(system, "_reflections", ((pairs, pairs),) + system._reflections[1:])
        with pytest.raises(DomainError, match="lost track"):
            from_word(system, word)


REFEREE_SPECS = ("A3", "B3", "G2", "E8", "A~2", "C~2", "G~2", "B~3", "D~4")
# B~3 from its Cartan matrix and a given rational symmetrizer
RATIONAL = dict(cartan=[[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
                symmetrizer=(Fraction(1, 3), Fraction(1, 3), Fraction(1, 6)), affine=True)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(st.sampled_from(REFEREE_SPECS + ("rational",)), st.lists(st.integers(0, 99), max_size=40))
def test_word_and_inverse_match_the_referee(spec, letters):
    # the word read off the heights of w⁻¹(α_t), and the inverse walked from
    # that word, against the dense Fraction inverse and the full-column peel:
    # the peel of w⁻¹ spells the word of w and gives Φ_{w⁻¹}
    system = build_system(**RATIONAL) if spec == "rational" else build_system(spec)
    w = from_word(system, [x % system.ngens for x in letters])
    dense = tuple(tuple(map(int, row)) for row in dense_referee.inverse(w.matrix))
    word, inverse_mask = dense_referee.peel(system, dense)
    assert w.word == word
    winv = w.inverse()
    assert winv.matrix == dense
    assert winv.inversion_mask() == inverse_mask
    bare = GroupElement(system, w.matrix)
    assert bare.word == word
    assert bare.inversion_mask() == dense_referee.peel(system, w.matrix)[1]


@settings(deadline=None, derandomize=True, max_examples=200)
@given(st.sampled_from(REFEREE_SPECS), st.lists(st.integers(0, 99), max_size=24),
       st.lists(st.integers(0, 99), max_size=12))
def test_recorded_inversion_set_matches_the_peel(spec, letters, more):
    # words are random, so mostly unreduced; the bare matrix has no record,
    # so it is certified by a walk of its own word, and the referee's
    # full-column peel decides Φ_w on its own
    system = build_system(spec)
    a = [x % system.ngens for x in letters]
    b = [x % system.ngens for x in more]
    w = from_word(system, a)
    fresh = GroupElement(system, w.matrix)
    assert w._mask is not None and fresh._mask is None
    assert w.inversion_mask() == fresh.inversion_mask() == dense_referee.peel(system, w.matrix)[1]
    assert w.inversion_set() == fresh.inversion_set()
    assert w.word == fresh.word and w.length == len(w.word)
    # a walk from w continues the walk that built it
    walked, whole = walk(w, b), from_word(system, a + b)
    assert walked == whole and walked._mask == whole._mask


@pytest.mark.parametrize("spec", REFEREE_SPECS)
def test_root_bits_are_the_positive_roots_by_level(spec):
    system = build_system(spec)
    roots = system.positive_roots_up_to(3)
    bits = [system.root_bit(rho) for rho in roots]
    # the positive roots up to δ-level 3 are exactly the bits below 2N·3 + N
    assert sorted(bits) == list(range(len(roots)))
    assert sum(1 << b for b in bits) == system.level_mask(3)
    assert [system.bit_root(b) for b in bits] == list(roots)
    k = system.rank_finite
    bad = [Root((0,) * k), -roots[0], -roots[-1], Root((1,) * (k + 1)), Root((1,) * (k - 1))]
    if system.kind == "finite":
        bad.append(Root(roots[0].coeffs, 1))
    else:
        bad.append(Root((0,) * k, 1))   # δ is an imaginary root
    for rho in bad:
        with pytest.raises(DomainError, match="not a positive root"):
            system.root_bit(rho)
    for b in (-1, system.level_mask(0).bit_length() if system.kind == "finite" else -2):
        with pytest.raises(DomainError, match="no positive root"):
            system.bit_root(b)


@pytest.mark.parametrize("spec", REFEREE_SPECS)
def test_every_walk_records_the_peeled_mask(spec):
    # each recorded mask against the referee's full-column peel of the matrix
    system = build_system(spec)

    def check(w):
        assert w._mask is not None
        assert w.inversion_mask() == dense_referee.peel(system, w.matrix)[1], w.matrix

    elems = ball(system, 4)
    for w in elems:
        check(w)                                   # grow
        check(from_word(system, w.word))
        check(ascend(system, w.inversion_mask()))
    rng = random.Random(spec)
    for _ in range(20):
        check(from_word(system, [rng.randrange(system.ngens) for _ in range(rng.randrange(30))]))
    few = elems[:8]
    for name, orc in standard_battery(system):
        try:
            if classify(orc).kind == "neither":
                continue
        except ClassificationError:
            continue
        for x in few:
            for y in few:
                check(lower_bound(x, y, orc))


@pytest.mark.parametrize("spec", ["A2", "B3", "A~2", "G~2"])
def test_order_answers_record_the_peeled_mask(spec):
    # chain, interval, meet and cover_neighbors walk covers, so each element
    # they return carries Φ, equal to the referee's full-column peel
    system = build_system(spec)

    def check(w):
        assert w._mask is not None
        assert w.inversion_mask() == dense_referee.peel(system, w.matrix)[1], w.matrix

    few = ball(system, 2)
    for _, orc in standard_battery(system):
        try:
            sound = classify(orc).kind != "neither"
        except ClassificationError:
            sound = False
        for x in few:
            for u in sum(cover_neighbors(x, orc), ()):
                check(u)
            for y in few:
                if sound:
                    check(meet(x, y, orc))
                if le(x, y, orc):
                    for u in chain(x, y, orc) + interval(x, y, orc):
                        check(u)
