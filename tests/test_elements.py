from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from coxtw.elements import (GroupElement, ascend, ball, from_word, identity,
                            simple, translation, translation_vector, weyl_part)
from coxtw.errors import DomainError
from coxtw.system import Root, build_system

A1T = build_system("A~1")
A2 = build_system("A2")
B2 = build_system("B2")


def test_simple_matrices_affine_a1():
    assert simple(A1T, 0).matrix == ((-1, 0), (0, 1))
    assert simple(A1T, 1).matrix == ((-1, 0), (2, 1))
    assert from_word(A1T, (0, 1)).matrix == ((1, 0), (2, 1))


def test_word_canonicalization():
    assert from_word(A2, (0, 0)).is_identity
    assert from_word(A2, (0, 1, 0)) == from_word(A2, (1, 0, 1))
    assert from_word(A2, (1, 0, 1)).word == (0, 1, 0)
    assert from_word(B2, (1, 0, 1, 0)).word == (0, 1, 0, 1)
    assert from_word(B2, (1, 0, 1, 0, 1)).word == (0, 1, 0)


def test_lengths_and_descents():
    w = from_word(B2, (0, 1, 0))
    assert w.length == 3
    assert w.left_descents() == (0,)
    assert w.right_descents() == (0,)
    w0 = from_word(B2, (0, 1, 0, 1))
    assert w0.left_descents() == (0, 1)
    assert identity(B2).left_descents() == ()


def test_ball_sizes():
    assert len(ball(A2, 10)) == 6
    assert len(ball(B2, 10)) == 8
    assert len(ball(build_system("G2"), 12)) == 12
    assert len(ball(build_system("A3"), 10)) == 24
    b3 = ball(A1T, 3)
    assert sorted(w.length for w in b3) == [0, 1, 1, 2, 2, 3, 3]
    assert len(ball(A1T, 9)) == 19


def test_ball_grows_past_a_finite_group():
    # A larger radius after the group ran out reuses the cached empty level.
    a2 = build_system("A2")
    assert len(ball(a2, 4)) == 6
    assert len(ball(a2, 10)) == 6
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
    assert s0.act(Root((0, 1))) == Root((1, 1))
    assert s0.act(Root((1, 0))) == Root((-1, 0))
    with pytest.raises(DomainError):
        s0.act(Root((2, 0)))
    # apply skips the root check and is linear on anything
    assert s0.apply(Root((2, 0))) == Root((-2, 0))


def test_labels_and_json():
    assert identity(A1T).label() == "e"
    assert simple(A1T, 1).label() == "s_{d-a}"
    assert from_word(A1T, (0, 1)).label() == "s_a s_{d-a}"
    assert from_word(A2, (1, 0)).to_json() == {"word": [1, 0], "length": 2}


def test_translations():
    t = translation(A1T, (1,))
    assert t.word == (0, 1)
    assert translation_vector(t) == (Fraction(1),)
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
    assert translation_vector(ta * tb) == (5, 4)
    assert ta.length == len(ta.word)


def test_translation_rejections():
    with pytest.raises(DomainError):
        translation(A2, (1, 0))              # finite system
    with pytest.raises(DomainError):
        translation(A1T, (Fraction(1, 2),))  # not in the coroot lattice
    with pytest.raises(DomainError):
        translation_vector(simple(A2, 0))


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
            assert ascend(system, w.inversion_set()) == w


def test_word_guard_is_not_an_assert(monkeypatch):
    w = from_word(A2, (0, 1))
    monkeypatch.setattr(GroupElement, "is_identity", property(lambda self: False))
    with pytest.raises(DomainError, match="identity"):
        w.word


@pytest.mark.parametrize("image, message", [
    (lambda self, rho: -rho, "not positive"),
    (lambda self, rho: Root((1, 0)), "not distinct"),
])
def test_inversion_set_guards_are_not_asserts(monkeypatch, image, message):
    w = from_word(A2, (0, 1))
    assert w.word == (0, 1)
    monkeypatch.setattr(GroupElement, "apply", image)
    with pytest.raises(DomainError, match=message):
        w.inversion_set()
