"""`tools/report.py`'s `counting` counts calls or letters, puts back exactly what
it replaced, also after an exception, and refuses a name its owner does not
bind; `best` is the least of its runs.  The script is loaded, no section run."""

import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from coxtw import elements
from coxtw.elements import from_word
from coxtw.system import build_system

ROOT = Path(__file__).resolve().parent.parent


def _report():
    spec = importlib.util.spec_from_file_location("report", ROOT / "tools" / "report.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


report = _report()


def test_counting_counts_calls_and_restores_after_an_exception():
    original = elements.from_word
    system = build_system("A2")
    with report.counting(elements, "from_word") as calls:
        elements.from_word(system, (0,))
        elements.from_word(system, (1, 0))
    assert calls == [2] and elements.from_word is original
    with pytest.raises(RuntimeError):
        with report.counting(elements, "from_word"):
            assert elements.from_word is not original
            raise RuntimeError
    assert elements.from_word is original


def test_counting_restores_the_staticmethod_of_fraction_new():
    original = vars(Fraction)["__new__"]
    with report.counting(Fraction, "__new__") as built:
        assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)
    assert built[0] >= 3
    assert vars(Fraction)["__new__"] is original and Fraction(1, 2).denominator == 2


def test_counting_refuses_a_name_the_owner_does_not_bind():
    with pytest.raises(AttributeError, match="walk_"):
        with report.counting(elements, "walk_"):
            pass
    assert not hasattr(elements, "walk_")


def test_counting_letters_on_the_one_walk():
    # `from_word` enters `elements._walk`, the name the hat-form section counts
    with report.counting(elements, "_walk", size=lambda s, columns, mask, word: len(word)) as n:
        from_word(build_system("A2"), (0, 1, 0))
    assert n == [3]


def test_best_is_the_least_run_without_its_set_up(monkeypatch):
    ticks, made = iter([0, 5, 10, 11, 20, 23]), []
    monkeypatch.setattr(report, "perf_counter", lambda: next(ticks))
    assert report.best(lambda arg: None, 3, lambda: (made.append(1),)) == 1
    assert len(made) == 3
