import pytest
from hypothesis import given, settings, strategies as st

from coxtw import oracle as oracle_mod
from coxtw.biclosed import (Complement, Explicit, HatForm, Twisted,
                            act_on_biclosed)
from coxtw.cli import main
from coxtw.elements import from_word, identity, simple
from coxtw.errors import ClassificationError, DomainError
from coxtw.infwords import classify
from coxtw.oracle import (longest_finite, oracle_le, oracle_meet, oracle_tlen,
                          run_selftest, standard_battery)
from coxtw.order import join, le, meet, twisted_length
from coxtw.system import Root, build_system

A1T = build_system("A~1")
A2 = build_system("A2")

HAT_NEG = HatForm(A1T, simple(A1T, 0), (), ())


def test_oracle_tlen_matches_order_module():
    for word in ((), (0,), (1,), (0, 1), (1, 0), (0, 1, 0), (1, 0, 1)):
        w = from_word(A1T, word)
        assert oracle_tlen(w, HAT_NEG) == twisted_length(w, HAT_NEG)
    orc = Explicit(A2, {Root((1, 0))})
    for word in ((), (0,), (1,), (0, 1), (1, 0), (0, 1, 0)):
        w = from_word(A2, word)
        assert oracle_tlen(w, orc) == twisted_length(w, orc)


def test_oracle_le():
    orc = Explicit(A2, {Root((1, 0))})
    assert not oracle_le(identity(A2), from_word(A2, (0, 1)), orc)
    assert oracle_le(simple(A2, 0), identity(A2), orc)
    assert oracle_le(simple(A1T, 1), simple(A1T, 0), HAT_NEG)
    assert not oracle_le(simple(A1T, 0), simple(A1T, 1), HAT_NEG)


def test_oracle_tlen_scan_guard_is_not_an_assert(monkeypatch):
    system = build_system("A~1")
    monkeypatch.setattr(system, "positive_roots_up_to", lambda level: ())
    with pytest.raises(DomainError, match="level bound"):
        oracle_tlen(simple(system, 0), Explicit(system, ()))


def test_oracle_meet():
    full = Complement(Explicit(A1T, set()))
    got = oracle_meet(from_word(A1T, (0, 1, 0)), simple(A1T, 1), full, 9)
    assert got == ()
    maxima = oracle_meet(simple(A1T, 0), simple(A1T, 1), HAT_NEG, 4)
    assert [w.word for w in maxima] == [(1,)]


def test_longest_finite():
    assert longest_finite(A2).word == (0, 1, 0)
    assert longest_finite(build_system("B2")).length == 4
    assert longest_finite(A1T).word == (0,)


def test_standard_battery_shapes():
    fin = standard_battery(A2)
    names = [name for name, _ in fin]
    assert names[0] == "empty" and names[1] == "full"
    assert "twist-simple" in names and "word-prefix" in names
    assert len(fin) == 9

    aff = standard_battery(build_system("A~2"))
    names = [name for name, _ in aff]
    assert len(aff) == 14
    for extra in ("hat-negative", "hat-positive", "twist-hat",
                  "word-translation", "hat-mixed"):
        assert extra in names
    for _, orc in aff:
        assert orc.system.kind == "affine"


def test_battery_le_agreement_sample():
    for name, orc in standard_battery(A2):
        for wx in ((), (0,), (1, 0)):
            for wy in ((), (1,), (0, 1)):
                x, y = from_word(A2, wx), from_word(A2, wy)
                assert le(x, y, orc) == oracle_le(x, y, orc), (name, wx, wy)


def test_run_selftest_clean():
    rep = run_selftest(A2, radius=2)
    assert rep["mismatches"] == []
    assert rep["checked"] == 324
    rep = run_selftest(A1T, radius=2)
    assert rep["mismatches"] == []
    assert rep["checked"] == 492


def test_run_selftest_records_each_kind_of_mismatch(monkeypatch, capsys):
    # the library side answers wrongly once per op, on the empty set of A1:
    # l_B(s) = 1, e ≤_B s, and the meet of e and s is e
    a1 = build_system("A1")
    checked = run_selftest(a1)["checked"]
    tlen, below, meet_ = oracle_mod.twisted_length, oracle_mod.le, oracle_mod.meet

    def asked(oracle, *ws):
        """The words asked about, where B is the empty set; else None."""
        return [w.word for w in ws] if oracle.key() == "explicit[]" else None

    monkeypatch.setattr(oracle_mod, "twisted_length",
                        lambda w, b: tlen(w, b) + (asked(b, w) == [(0,)]))
    monkeypatch.setattr(oracle_mod, "le",
                        lambda x, y, b: below(x, y, b) != (asked(b, x, y) == [(), (0,)]))
    monkeypatch.setattr(oracle_mod, "meet", lambda x, y, b: simple(a1, 0)
                        if asked(b, x, y) == [(), (0,)] else meet_(x, y, b))
    assert run_selftest(a1) == {"checked": checked, "mismatches": [
        {"oracle": "empty", "op": "tlen", "args": [[0]], "got": 2, "oracle_value": 1},
        {"oracle": "empty", "op": "le", "args": [[], [0]], "got": False,
         "oracle_value": True},
        {"oracle": "empty", "op": "meet", "args": [[], [0]], "got": [0],
         "oracle_value": [[]]},
    ]}
    assert main(["--type", "A1", "selftest"]) == 2
    assert "mismatches: 3" in capsys.readouterr().out


def test_run_selftest_past_longest_element():
    # The battery's ball reaches past w0, and the meet check asks again.
    a1 = build_system("A1")
    assert run_selftest(a1, radius=3)["mismatches"] == []


def _random_form(system, index, twist, complement, act=act_on_biclosed):
    """A battery form of the system, twisted by a word and maybe complemented;
    the referee twists with a plain `Twisted`, with no collapse of nesting."""
    form = act(from_word(system, twist), standard_battery(system)[index][1])
    return Complement(form) if complement else form


def _has_witness(form) -> bool:
    try:
        return classify(form).kind != "neither"
    except ClassificationError:
        return False


SHORT_WORDS = st.lists(st.integers(0, 2), max_size=3).map(tuple)


@settings(deadline=None, derandomize=True, max_examples=50)
@given(st.sampled_from(("A~2", "C~2", "G~2")), st.integers(0, 13),
       SHORT_WORDS, st.booleans(), SHORT_WORDS, SHORT_WORDS)
def test_order_agrees_with_the_oracle_on_random_forms(spec, index, twist,
                                                      complement, wx, wy):
    # the referee works on a system of its own; the order layer answers twice
    # on one system, first with its tables empty and then with them filled
    ref_system = build_system(spec)
    ref = _random_form(ref_system, index, twist, complement, Twisted)
    rx, ry = from_word(ref_system, wx), from_word(ref_system, wy)
    expect = (oracle_tlen(rx, ref), oracle_le(rx, ry, ref), oracle_le(ry, rx, ref))
    system = build_system(spec)
    bounds = {}
    for run in ("cold", "warm"):
        form = _random_form(system, index, twist, complement)
        x, y = from_word(system, wx), from_word(system, wy)
        assert (twisted_length(x, form), le(x, y, form), le(y, x, form)) == expect, run
        for op, dual in ((meet, ref), (join, Complement(ref))):
            if _has_witness(dual):
                m = op(x, y, form)
                if op not in bounds:
                    radius = max(m.length, x.length + y.length) + 1
                    bounds[op] = oracle_meet(rx, ry, dual, radius)
                assert bounds[op] == (m,), (run, op.__name__)
