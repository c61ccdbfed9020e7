import pytest

from coxtw.biclosed import Complement, Explicit, HatForm, Twisted
from coxtw.elements import from_word, simple
from coxtw.errors import ExprError, NotReducedError, ValidationError
from coxtw.exprs import parse_biclosed
from coxtw.infwords import WordInvSet
from coxtw.system import Root, build_system

A1T = build_system("A~1")
A2T = build_system("A~2")
A2 = build_system("A2")


def test_empty_and_full():
    orc = parse_biclosed(A2, "empty")
    assert isinstance(orc, Explicit) and not orc.roots
    orc = parse_biclosed(A2, "full")
    assert isinstance(orc, Complement) and isinstance(orc.inner, Explicit)


def test_invset():
    orc = parse_biclosed(A2, "invset 0,1")
    assert orc.roots == from_word(A2, (0, 1)).inversion_set()
    assert parse_biclosed(A2, "invset e").roots == frozenset()


def test_hat():
    orc = parse_biclosed(A1T, "hat 0::")
    assert isinstance(orc, HatForm)
    assert orc.u == simple(A1T, 0) and orc.delta1 == orc.delta2 == frozenset()
    orc = parse_biclosed(A2T, "hat e:0:")
    assert orc.delta1 == {0} and orc.delta2 == frozenset()
    orc = parse_biclosed(A2T, "hat ::1")
    assert orc.delta2 == {1}


def test_word_inf():
    orc = parse_biclosed(A1T, "word-inf ;0,1")
    assert isinstance(orc, WordInvSet)
    assert orc.word.prefix == () and orc.word.period == (0, 1)
    orc = parse_biclosed(A1T, "word-inf 1;0,1")
    assert orc.word.prefix == (1,)


def test_twist_and_complement():
    orc = parse_biclosed(A2, "twist 0 ( invset 0 )")
    assert isinstance(orc, Twisted) and orc.w == simple(A2, 0)
    # identity twist unwraps
    orc = parse_biclosed(A2, "twist e ( empty )")
    assert isinstance(orc, Explicit)
    # nested complements cancel
    orc = parse_biclosed(A2, "complement ( complement ( invset 1 ) )")
    assert isinstance(orc, Explicit)
    # and the tokenizer does not need spaces around parens
    orc = parse_biclosed(A2, "complement(empty)")
    assert isinstance(orc, Complement)


def test_explicit_literals():
    orc = parse_biclosed(A2, "explicit [1.0,1.1]")
    assert orc.roots == {Root((1, 0)), Root((1, 1))}
    assert parse_biclosed(A2, "explicit []").roots == frozenset()
    orc = parse_biclosed(A1T, "explicit [-1:1]")
    assert orc.roots == {Root((-1,), 1)}


def test_syntax_errors():
    for text in ("", "unknown", "invset 9", "invset x", "twist 0 empty",
                 "twist 0 ( empty", "empty junk", "hat 0:0", "explicit [1.0",
                 "complement ( )"):
        with pytest.raises(ExprError):
            parse_biclosed(A2, text)
    with pytest.raises(ExprError, match="bad index list"):
        parse_biclosed(A2T, "hat 0:x:")


def test_domain_errors_propagate():
    with pytest.raises(ValidationError):
        parse_biclosed(A1T, "hat 1::")       # not in the finite Weyl subgroup
    with pytest.raises(NotReducedError):
        parse_biclosed(A1T, "word-inf ;0,0")
    with pytest.raises(ValidationError):
        parse_biclosed(A2T, "hat e:0:1")     # not orthogonal
    with pytest.raises(ValidationError):
        parse_biclosed(A2, "explicit [9.0]")  # literal fine, not a root
