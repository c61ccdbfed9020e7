from fractions import Fraction

import dense_referee as dense
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxtw.errors import DomainError
from coxtw.feasibility import solve_nonneg


def _check(rows, rhs, sol):
    for row, b in zip(rows, rhs):
        acc = sum((Fraction(c) * x for c, x in zip(row, sol)), Fraction(0))
        assert acc == Fraction(b)
    assert all(x >= 0 for x in sol)


def test_feasible_simple():
    rows = [[1, 1], [1, -1]]
    rhs = [2, 0]
    sol = solve_nonneg(rows, rhs)
    assert sol is not None
    _check(rows, rhs, sol)


def test_infeasible_sign():
    # x >= 0 cannot make x = -1
    assert solve_nonneg([[1]], [-1]) is None


def test_infeasible_inconsistent():
    assert solve_nonneg([[1, 1], [1, 1]], [1, 2]) is None


def test_zero_rhs_trivial():
    sol = solve_nonneg([[1, 2], [3, 4]], [0, 0])
    assert sol == [0, 0]


def test_no_rows():
    assert solve_nonneg([], []) == []


def test_fractional_solution_exact():
    # 3x = 1 forces x = 1/3 exactly
    sol = solve_nonneg([[3]], [1])
    assert sol == [Fraction(1, 3)]


def test_redundant_rows():
    rows = [[1, 1], [2, 2]]
    rhs = [1, 2]
    sol = solve_nonneg(rows, rhs)
    assert sol is not None
    _check(rows, rhs, sol)


def test_rank_one_systems():
    # opposite columns span a line, parallel ones a ray, a zero column nothing
    assert solve_nonneg([[1, -1], [2, -2]], [-3, -6]) == [0, 3]
    assert solve_nonneg([[1, -1], [2, -2]], [3, 6]) == [3, 0]
    assert solve_nonneg([[2, 4], [2, 4]], [-1, -1]) is None
    assert solve_nonneg([[2, 4], [2, 4]], [1, 1]) == [Fraction(1, 2), 0]
    assert solve_nonneg([[0, 1], [0, 2]], [1, 2]) == [0, 1]
    assert solve_nonneg([[0, 1], [0, 2]], [1, 1]) is None
    assert solve_nonneg([[0, 0], [0, 0]], [0, 0]) == [0, 0]
    assert solve_nonneg([[0, 0], [0, 0]], [0, 1]) is None


def test_more_than_two_columns_raise():
    with pytest.raises(DomainError, match="at most two columns"):
        solve_nonneg([[1, 0, 0], [0, 1, 1]], [1, 1])
    with pytest.raises(DomainError, match="one value per row"):
        solve_nonneg([[1, 0], [0, 1]], [1, 1, 5])


@settings(deadline=None, derandomize=True, max_examples=60)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=2, max_size=2),
                min_size=1, max_size=5),
       st.lists(st.integers(0, 4), min_size=2, max_size=2))
def test_planted_solutions_found(rows, planted):
    # rhs constructed from a nonnegative point is always feasible
    rhs = [sum(c * x for c, x in zip(row, planted)) for row in rows]
    sol = solve_nonneg(rows, rhs)
    assert sol is not None
    _check(rows, rhs, sol)


@settings(deadline=None, derandomize=True, max_examples=400)
@given(st.data())
def test_kernel_matches_the_simplex_referee(data):
    m = data.draw(st.integers(1, 5))
    entries = st.lists(st.integers(-3, 3), min_size=m, max_size=m)
    shape = data.draw(st.sampled_from(("one", "free", "parallel", "zero column")))
    cols = [data.draw(entries)] if shape == "one" else [data.draw(entries), data.draw(entries)]
    if shape == "parallel":
        # same or opposite direction, at any rational ratio
        p, q = data.draw(st.lists(st.integers(-3, 3).filter(bool), min_size=2, max_size=2))
        cols = [[p * x for x in cols[0]], [q * x for x in cols[0]]]
    elif shape == "zero column":
        cols[data.draw(st.integers(0, 1))] = [0] * m
    target = data.draw(st.sampled_from(("planted", "free", "on a column's line", "zero")))
    if target == "planted":
        planted = data.draw(st.lists(st.integers(0, 4), min_size=len(cols), max_size=len(cols)))
        rhs = [sum(c[i] * x for c, x in zip(cols, planted)) for i in range(m)]
    elif target == "on a column's line":
        t = data.draw(st.integers(-3, 3))
        rhs = [t * x for x in cols[data.draw(st.integers(0, len(cols) - 1))]]
    else:
        rhs = data.draw(entries) if target == "free" else [0] * m
    rows = [list(row) for row in zip(*cols)]
    got, want = solve_nonneg(rows, rhs), dense.solve_nonneg(rows, rhs)
    assert (got is None) == (want is None), (rows, rhs, got, want)
    if target == "planted":
        assert got is not None
    if got is not None:
        _check(rows, rhs, got)
