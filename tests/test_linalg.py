from fractions import Fraction
from math import prod

import dense_referee as dense
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxtw import linalg


def test_det_known_values():
    assert linalg.det([[2]]) == 2
    assert linalg.det([[2, -1], [-1, 2]]) == 3
    assert linalg.det([[2, -1], [-3, 2]]) == 1
    # type A Cartan determinants count n+1
    a3 = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    assert linalg.det(a3) == 4
    assert linalg.det([[1, 2], [2, 4]]) == 0


def test_solve_exact():
    a = [[2, -1], [-1, 2]]
    x = linalg.solve(a, ((1,), (0,)))
    assert x == ((Fraction(2, 3),), (Fraction(1, 3),))


def test_solve_singular_raises():
    a = [[1, 1], [1, 1]]
    with pytest.raises(ZeroDivisionError):
        linalg.solve(a, ((1,), (0,)))


def test_inverse_roundtrip():
    a = [[2, -1, 0], [-1, 2, -1], [0, -1, 2]]
    inv = linalg.inverse(a)
    assert inv == tuple(tuple(Fraction(x, 4) for x in row)
                        for row in ((3, 2, 1), (2, 4, 2), (1, 2, 3)))
    product = [[sum(a[i][t] * inv[t][j] for t in range(3)) for j in range(3)]
               for i in range(3)]
    assert product == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@settings(deadline=None, derandomize=True, max_examples=40)
@given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_det_transpose_invariant(rows):
    transposed = [list(col) for col in zip(*rows)]
    assert linalg.det(rows) == linalg.det(transposed)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=2),
                min_size=2, max_size=2),
       st.lists(st.integers(-4, 4), min_size=2, max_size=2))
def test_solve_reconstructs(rows, rhs):
    if linalg.det(rows) == 0:
        return
    x = linalg.solve(rows, [[v] for v in rhs])
    assert [sum(a * xj for a, (xj,) in zip(row, x)) for row in rows] == rhs


@settings(deadline=None, derandomize=True, max_examples=40)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                min_size=3, max_size=3),
       st.lists(st.lists(st.integers(-4, 4), min_size=4, max_size=4),
                min_size=3, max_size=3))
def test_solve_many_columns(rows, rhs):
    # one elimination over four right-hand sides agrees with a x = b for each
    if linalg.det(rows) == 0:
        return
    x = linalg.solve(rows, rhs)
    assert len(x) == 3 and all(len(row) == 4 for row in x)
    assert [[sum(a * x[t][j] for t, a in enumerate(row)) for j in range(4)]
            for row in rows] == rhs


# The referee is the plain Fraction elimination the kernel replaced.
ENTRIES = st.one_of(st.integers(-4, 4), st.fractions(-3, 3, max_denominator=4))


def _matrix(n, m, entries=ENTRIES):
    return st.lists(st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n)


def _agrees_with_referee(a, b):
    assert linalg.det(a) == dense.det(a)
    assert linalg.leading_minors(a) == dense.leading_minors(a)
    if dense.det(a) == 0:
        for kernel in (lambda: linalg.solve(a, b), lambda: linalg.inverse(a)):
            with pytest.raises(ZeroDivisionError):
                kernel()
        return
    for got, want in ((linalg.solve(a, b), dense.solve(a, b)),
                      (linalg.inverse(a), dense.inverse(a))):
        assert got == want
        assert all(type(x) is Fraction for row in got for x in row)


@settings(deadline=None, derandomize=True, max_examples=100)
@given(st.data())
def test_kernel_matches_referee(data):
    # integer and rational rows, several right-hand sides at once
    n = data.draw(st.integers(1, 5))
    entries = data.draw(st.sampled_from((st.integers(-4, 4), ENTRIES)))
    _agrees_with_referee(data.draw(_matrix(n, n, entries)),
                         data.draw(_matrix(n, data.draw(st.integers(1, 4)))))


@settings(deadline=None, derandomize=True, max_examples=40)
@given(st.data())
def test_kernel_matches_referee_on_singular_matrices(data):
    # the last row is a rational combination of the others
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
    assert abs(linalg.det(a)) == abs(prod(diagonal))
    _agrees_with_referee(a, data.draw(_matrix(n, 3)))


def test_leading_minors_stop_at_the_first_zero():
    assert linalg.leading_minors([[2, -1], [-1, 2]]) == (2, 3)
    assert linalg.leading_minors([[0, 1], [1, 0]]) == (0,)
    assert linalg.leading_minors([[2, -2, 0], [-2, 2, -1], [0, -1, 2]]) == (2, 0)
    assert linalg.leading_minors([[2, -3], [-3, 2]]) == (2, -5)
    assert linalg.leading_minors([[Fraction(1, 2), 1], [1, 3]]) == (Fraction(1, 2), Fraction(1, 2))
