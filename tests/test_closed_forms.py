"""The library against textbook formulas that share none of its code: ball
level sizes against the Poincaré series of the degrees (Bott's formula on
affine types), |Φ⁺| against Σ(d_i − 1), and the connection index against its
table, on every type string up to rank 26."""

from collections import Counter

import closed_forms as cf
import pytest

from coxtw.elements import ball
from coxtw.system import build_system

SERIES_SPECS = ("A2", "B3", "G2", "F4", "E6", "D5", "E8", "A~1", "A~2", "C~2", "G~2", "A~3",
                "B~3", "C~3", "A~4", "D~4", "F~4", "B~5", "C~5", "D~6", "E~6", "E~7", "E~8")
CLASSICAL = [(letter, n) for letter, low in (("A", 1), ("B", 2), ("C", 2), ("D", 4))
             for n in range(low, 27)]
ALL_SPECS = [f"{letter}{tilde}{n}" for letter, n in CLASSICAL + list(cf.EXCEPTIONAL_DEGREES)
             for tilde in ("", "~")]


@pytest.mark.parametrize("spec", SERIES_SPECS)
@pytest.mark.parametrize("radius", (4, 6))
def test_ball_levels_follow_the_poincare_series(spec, radius):
    levels = Counter(w.length for w in ball(build_system(spec), radius))
    assert [levels[i] for i in range(radius + 1)] == cf.poincare(spec, radius)


def test_counts_follow_the_degrees_and_the_connection_index_table():
    assert len(ALL_SPECS) == 208
    for spec in ALL_SPECS:
        letter, n, _ = cf.split(spec)
        system = build_system(spec)
        assert len(system.positive_roots) == cf.positive_root_count(letter, n), spec
        assert system.connection_index == cf.connection_index(letter, n), spec
