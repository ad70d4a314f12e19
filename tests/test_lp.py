from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from collapsing.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, linprog_exact, solve_standard


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
