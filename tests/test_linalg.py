from fractions import Fraction as F

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsing.linalg import (
    dot,
    nullspace,
    rank_exact,
    rank_float,
    rref,
    solve_consistent,
    solve_square,
)

rational = st.fractions(
    min_value=F(-5), max_value=F(5), max_denominator=6
)


def test_rref_identity():
    red, pivots = rref([[1, 0], [0, 1]])
    assert red == [[1, 0], [0, 1]]
    assert pivots == [0, 1]


def test_rank_examples():
    assert rank_exact([[1, -1], [-1, 1]]) == 1
    assert rank_exact([[0, 0], [0, 0]]) == 0
    assert rank_exact([[1, 2], [3, 4]]) == 2
    assert rank_float([[1.0, 2.0], [2.0, 4.0]]) == 1


def reference_rref(rows):
    """Plain Fraction Gauss-Jordan: the reference for the fraction-free rref."""
    m = [[F(x) for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(len(m[0]) if m else 0):
        if r == len(m):
            break
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


@st.composite
def rational_systems(draw):
    """A rectangular matrix, some of whose rows combine earlier ones, and a rhs."""
    ncols = draw(st.integers(1, 5))
    entry = st.one_of(st.integers(-5, 5), rational)
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        if rows and draw(st.booleans()):
            coeffs = draw(st.lists(rational, min_size=len(rows), max_size=len(rows)))
            rows.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(ncols)])
        else:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    rhs = draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
    return rows, rhs


@given(rational_systems())
@settings(max_examples=300, deadline=None)
def test_elimination_matches_reference(system):
    rows, b = system
    ncols = len(rows[0])
    ref, ref_pivots = reference_rref(rows)
    assert rref(rows) == (ref, ref_pivots)
    rank = len(ref_pivots)
    assert rank_exact(rows) == rank

    n = min(len(rows), ncols)
    square = [row[:n] for row in rows[:n]]
    x = solve_square(square, b[:n])
    if len(reference_rref(square)[1]) < n:
        assert x is None
    else:
        square_ref, _ = reference_rref([row + [b[i]] for i, row in enumerate(square)])
        assert x == [row[n] for row in square_ref]
        assert [dot(row, x) for row in square] == b[:n]

    x = solve_consistent(rows, b)
    if len(reference_rref([row + [b[i]] for i, row in enumerate(rows)])[1]) > rank:
        assert x is None
    else:
        assert [dot(row, x) for row in rows] == b

    basis = nullspace(rows)
    assert len(basis) == ncols - rank
    assert all(dot(row, v) == 0 for row in rows for v in basis)
    assert len(reference_rref(basis)[1]) == len(basis)


@given(st.lists(st.lists(rational, min_size=4, max_size=4), min_size=2, max_size=4))
@settings(max_examples=60, deadline=None)
def test_rank_matches_numpy(rows):
    exact = rank_exact(rows)
    approx = np.linalg.matrix_rank(np.array([[float(x) for x in r] for r in rows]), tol=1e-9)
    assert exact == approx


def test_solve_square():
    assert solve_square([[2, 0], [0, 4]], [2, 2]) == [F(1), F(1, 2)]
    assert solve_square([[1, 1], [2, 2]], [1, 2]) is None


@given(
    st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=3, max_size=3),
    st.lists(st.integers(-3, 3), min_size=3, max_size=3),
)
@settings(max_examples=100, deadline=None)
def test_solve_square_verifies(a, b):
    x = solve_square(a, b)
    if x is not None:
        for row, rhs in zip(a, b):
            assert dot(row, x) == rhs


def test_solve_consistent_rectangular():
    # x + y = 2 has solutions; pick any
    x = solve_consistent([[1, 1]], [2])
    assert x is not None and sum(x) == 2
    assert solve_consistent([[1, 1], [1, 1]], [1, 2]) is None


@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=2, max_size=3))
@settings(max_examples=60, deadline=None)
def test_nullspace_annihilates(rows):
    for v in nullspace(rows):
        for row in rows:
            assert dot(row, v) == 0
    assert len(nullspace(rows)) == 4 - rank_exact(rows)
