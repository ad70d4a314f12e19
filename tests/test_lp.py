from fractions import Fraction as F
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from collapsing import lp
from collapsing.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult, linprog_exact, solve_standard


# ---------------------------------------------------------------------------
# Reference: the two-phase Bland simplex over a Fraction tableau, which
# recomputes every reduced cost on each iteration.  The integer tableau in
# ``lp`` must take the same pivots and return the same result.


def _ref_simplex(tableau, basis, cost, nenter):
    nrows = len(tableau)
    pivots = 0
    while True:
        entering = -1
        for j in range(nenter):
            red = cost[j] - sum(cost[basis[i]] * tableau[i][j] for i in range(nrows))
            if red < 0:
                entering = j
                break
        if entering < 0:
            return OPTIMAL, pivots
        leaving = -1
        best_ratio = None
        for i in range(nrows):
            a = tableau[i][entering]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and basis[i] < basis[leaving]
                ):
                    best_ratio = ratio
                    leaving = i
        if leaving < 0:
            return UNBOUNDED, pivots
        _ref_pivot(tableau, leaving, entering)
        basis[leaving] = entering
        pivots += 1


def _ref_pivot(tableau, row, col):
    pv = tableau[row][col]
    tableau[row] = [x / pv for x in tableau[row]]
    for i, other in enumerate(tableau):
        if i != row and other[col] != 0:
            f = other[col]
            tableau[i] = [x - f * y for x, y in zip(other, tableau[row])]


def reference_solve_standard(c, a, b):
    nrows = len(a)
    ncols = len(c)
    c = [F(v) for v in c]
    rows = [[F(x) for x in row] for row in a]
    rhs = [F(v) for v in b]
    for i in range(nrows):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]
    tableau = [rows[i] + [F(int(i == j)) for j in range(nrows)] + [rhs[i]] for i in range(nrows)]
    basis = [ncols + i for i in range(nrows)]
    phase1_cost = [F(0)] * ncols + [F(1)] * nrows
    status, pivots = _ref_simplex(tableau, basis, phase1_cost, ncols + nrows)
    if status != OPTIMAL:
        return LPResult(status=INFEASIBLE, pivots=pivots)
    if sum(tableau[i][-1] for i in range(nrows) if basis[i] >= ncols) != 0:
        return LPResult(status=INFEASIBLE, pivots=pivots)
    for i in range(nrows):
        if basis[i] >= ncols:
            entering = next((j for j in range(ncols) if tableau[i][j] != 0), None)
            if entering is not None:
                _ref_pivot(tableau, i, entering)
                basis[i] = entering
                pivots += 1
    phase2_cost = c + [F(0)] * nrows
    status, more = _ref_simplex(tableau, basis, phase2_cost, ncols)
    pivots += more
    if status != OPTIMAL:
        return LPResult(status=UNBOUNDED, pivots=pivots)
    x = [F(0)] * (ncols + nrows)
    for i in range(nrows):
        x[basis[i]] = tableau[i][-1]
    objective = sum(ci * xi for ci, xi in zip(c, x[:ncols]))
    return LPResult(status=OPTIMAL, objective=objective, x=x[:ncols], pivots=pivots)


def reference_linprog(*args, **kwargs):
    """``linprog_exact``'s standard form, solved by the reference."""
    with patch.object(lp, "solve_standard", reference_solve_standard):
        return lp.linprog_exact(*args, **kwargs)


def test_basic_min():
    res = linprog_exact([-1, -1], a_ub=[[1, 1]], b_ub=[1])
    assert res.status == OPTIMAL
    assert res.objective == -1


def test_infeasible():
    res = linprog_exact([1], a_ub=[[1], [-1]], b_ub=[-2, 1])
    assert res.status == INFEASIBLE


def test_unbounded():
    res = linprog_exact([-1], a_ub=[[-1]], b_ub=[0])
    assert res.status == UNBOUNDED


def test_free_variables():
    # min x st x >= -3 with x free
    res = linprog_exact([1], a_ub=[[-1]], b_ub=[3], nonneg=[False])
    assert res.status == OPTIMAL
    assert res.objective == -3


def test_degenerate_redundant_rows():
    res = linprog_exact([1, 1], a_eq=[[1, 1], [2, 2]], b_eq=[1, 2])
    assert res.status == OPTIMAL
    assert res.objective == 1


def test_vertex_gauge_objective():
    # min 1.c st V c = x, c >= 0: the gauge of x in the hexagon conv(V)
    verts = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)]
    x = (1, -1)
    a_eq = [[v[i] for v in verts] for i in range(2)]
    res = linprog_exact([1] * len(verts), a_eq=a_eq, b_eq=list(x))
    assert res.status == OPTIMAL
    assert res.objective == 2


@given(
    st.integers(2, 4),
    st.integers(1, 3),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_against_scipy(nvars, nrows, data):
    ints = st.integers(-4, 4)
    c = data.draw(st.lists(ints, min_size=nvars, max_size=nvars))
    a_ub = data.draw(
        st.lists(st.lists(ints, min_size=nvars, max_size=nvars), min_size=nrows, max_size=nrows)
    )
    b_ub = data.draw(st.lists(st.integers(0, 6), min_size=nrows, max_size=nrows))
    # bounded feasible region: 0 <= x <= 5
    box = [[int(i == j) for j in range(nvars)] for i in range(nvars)]
    res = linprog_exact(c, a_ub=a_ub + box, b_ub=b_ub + [5] * nvars)
    ref = linprog(c, A_ub=np.array(a_ub + box), b_ub=np.array(b_ub + [5] * nvars),
                  bounds=[(0, None)] * nvars, method="highs")
    assert (res.status == OPTIMAL) == ref.success
    if ref.success:
        assert abs(float(res.objective) - ref.fun) < 1e-7


def test_standard_form_negative_rhs():
    # x = 1 written with a negated row
    res = solve_standard([F(1)], [[F(-1)]], [F(-1)])
    assert res.status == OPTIMAL
    assert res.x == [F(1)]


def test_pivot_out_on_a_negative_entry():
    # min x3 st x3 <= 0, x1 + x2 <= 0, x1 + x2 = 0, all free: phase 1 ends
    # with a zero-valued artificial whose row is pivoted out on a negative
    # entry, and phase 2 then finds the problem unbounded.
    args = dict(a_ub=[[0, 0, 1], [1, 1, 0]], b_ub=[0, 0], a_eq=[[1, 1, 0]], b_eq=[0],
                nonneg=[False] * 3)
    res = linprog_exact([0, 0, 1], **args)
    assert res == reference_linprog([0, 0, 1], **args)
    assert res.status == UNBOUNDED


rationals = st.builds(F, st.integers(-4, 4), st.integers(1, 4))
# zero right-hand sides leave zero-valued artificials to pivot out after phase 1
rhs_values = st.one_of(st.just(F(0)), rationals)


@given(st.integers(1, 4), st.integers(0, 3), st.integers(0, 3), st.data())
@settings(max_examples=300, deadline=None)
def test_integer_tableau_matches_reference(nvars, nub, neq, data):
    """Same status, objective, x and pivot count as the Fraction reference,
    on rational data with mixed rows, negative rhs, redundant equality rows
    and free variables."""
    row = st.lists(rationals, min_size=nvars, max_size=nvars)
    c = data.draw(row)
    a_ub = data.draw(st.lists(row, min_size=nub, max_size=nub))
    b_ub = data.draw(st.lists(rhs_values, min_size=nub, max_size=nub))
    a_eq = data.draw(st.lists(row, min_size=neq, max_size=neq))
    b_eq = data.draw(st.lists(rhs_values, min_size=neq, max_size=neq))
    # redundant equality rows: multiples of earlier ones, rhs included
    for i in data.draw(st.lists(st.integers(0, neq - 1), max_size=2)) if neq else []:
        f = data.draw(rationals.filter(bool))
        a_eq.append([f * v for v in a_eq[i]])
        b_eq.append(f * b_eq[i])
    nonneg = data.draw(st.lists(st.booleans(), min_size=nvars, max_size=nvars))
    args = dict(a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, nonneg=nonneg)
    assert linprog_exact(c, **args) == reference_linprog(c, **args)
