from fractions import Fraction

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
