from fractions import Fraction
from math import prod

import dense_referee as dense
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxtw import linalg


def test_solve_exact():
    a = [[2, -1], [-1, 2]]
    assert linalg.solve(a, ((1,), (0,))) == (3, ((2,), (1,)))


def test_solve_singular_raises():
    a = [[1, 1], [1, 1]]
    with pytest.raises(ZeroDivisionError):
        linalg.solve(a, ((1,), (0,)))


def test_inverse_roundtrip():
    # (det a, adj a)
    a = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    d, inv = linalg.inverse(a)
    assert (d, inv) == (4, ((3, 2, 1), (2, 4, 2), (1, 2, 3)))
    product = [[sum(a[i][t] * inv[t][j] for t in range(3)) for j in range(3)]
               for i in range(3)]
    assert product == [[4, 0, 0], [0, 4, 0], [0, 0, 4]]


def test_a_fraction_entry_raises_type_error():
    # read through operator.index, never floor-divided
    for a in ([[Fraction(1, 2), 1], [1, 3]], [[2, -1], [-1, Fraction(4, 2)]]):
        for kernel in (linalg.leading_minors, linalg.inverse,
                       lambda a: linalg.solve(a, ((1,), (0,)))):
            with pytest.raises(TypeError):
                kernel(a)
    with pytest.raises(TypeError):
        linalg.solve([[2, -1], [-1, 2]], ((Fraction(1, 3),), (0,)))


@settings(deadline=None, derandomize=True, max_examples=40)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=2),
                min_size=2, max_size=2),
       st.lists(st.integers(-4, 4), min_size=2, max_size=2))
def test_solve_reconstructs(rows, rhs):
    if dense.det(rows) == 0:
        return
    d, x = linalg.solve(rows, [[v] for v in rhs])
    assert [sum(a * xj for a, (xj,) in zip(row, x)) for row in rows] == [d * v for v in rhs]


@settings(deadline=None, derandomize=True, max_examples=40)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                min_size=3, max_size=3),
       st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4),
                min_size=3, max_size=3))
def test_solve_many_columns(rows, rhs):
    # one elimination over four right-hand sides agrees with a x = d b for each
    if dense.det(rows) == 0:
        return
    d, x = linalg.solve(rows, rhs)
    assert len(x) == 3 and all(len(row) == 4 for row in x)
    assert [[sum(a * x[t][j] for t, a in enumerate(row)) for j in range(4)]
            for row in rows] == [[d * v for v in row] for row in rhs]


# The referee is the plain Fraction elimination the kernel replaced.
ENTRIES = st.integers(-4, 4)


def _matrix(n, m):
    return st.lists(st.lists(ENTRIES, min_size=m, max_size=m), min_size=n, max_size=n)


def _agrees_with_referee(a, b):
    minors = linalg.leading_minors(a)
    assert minors == dense.leading_minors(a) and all(type(m) is int for m in minors)
    if dense.det(a) == 0:
        for kernel in (lambda: linalg.solve(a, b), lambda: linalg.inverse(a)):
            with pytest.raises(ZeroDivisionError):
                kernel()
        return
    for (d, x), want in ((linalg.solve(a, b), dense.solve(a, b)),
                         (linalg.inverse(a), dense.inverse(a))):
        assert abs(d) == abs(dense.det(a))
        assert tuple(tuple(Fraction(v, d) for v in row) for row in x) == want
        assert type(d) is int and all(type(v) is int for row in x for v in row)


@settings(deadline=None, derandomize=True, max_examples=100)
@given(st.data())
def test_kernel_matches_referee(data):
    # several right-hand sides at once
    n = data.draw(st.integers(1, 5))
    _agrees_with_referee(data.draw(_matrix(n, n)),
                         data.draw(_matrix(n, data.draw(st.integers(1, 4)))))


@settings(deadline=None, derandomize=True, max_examples=40)
@given(st.data())
def test_kernel_matches_referee_on_singular_matrices(data):
    # the last row is an integer combination of the others
    n = data.draw(st.integers(2, 5))
    a = data.draw(_matrix(n - 1, n))
    coeffs = data.draw(st.lists(ENTRIES, min_size=n - 1, max_size=n - 1))
    a.insert(data.draw(st.integers(0, n - 1)),
             [sum(c * row[j] for c, row in zip(coeffs, a)) for j in range(n)])
    assert dense.det(a) == 0
    _agrees_with_referee(a, data.draw(_matrix(n, 2)))


@settings(deadline=None, derandomize=True, max_examples=40)
@given(st.data())
def test_kernel_matches_referee_where_pivots_need_row_swaps(data):
    # rows of an invertible upper triangular matrix, shuffled: zero leading
    # pivots that only a row swap gets past
    n = data.draw(st.integers(2, 5))
    diagonal = data.draw(st.lists(ENTRIES.filter(bool), min_size=n, max_size=n))
    upper = [[diagonal[i] if i == j else x if j > i else 0 for j, x in enumerate(row)]
             for i, row in enumerate(data.draw(_matrix(n, n)))]
    a = data.draw(st.permutations(upper))
    if a == upper:
        a = a[1:] + a[:1]
    assert abs(dense.det(a)) == abs(prod(diagonal))
    _agrees_with_referee(a, data.draw(_matrix(n, 3)))


def test_leading_minors_stop_at_the_first_zero():
    assert linalg.leading_minors([[2, -1], [-1, 2]]) == (2, 3)
    assert linalg.leading_minors([[0, 1], [1, 0]]) == (0,)
    assert linalg.leading_minors([[2, -2, 0], [-2, 2, -1], [0, -1, 2]]) == (2, 0)
    assert linalg.leading_minors([[2, -3], [-3, 2]]) == (2, -5)
    assert linalg.leading_minors([[1, 2], [2, 6]]) == (1, 2)
