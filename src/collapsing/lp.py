"""Exact rational linear programming.

Two-phase primal simplex with Bland's rule over ``Fraction`` entries.  The
problems solved here are tiny (tens of variables), so simplicity and
exactness beat speed.  ``linprog_exact`` mirrors the scipy calling
convention, which keeps cross-checking against ``scipy.optimize.linprog``
straightforward in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .scalars import Scalar

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    status: str
    objective: Fraction | None = None
    # Primal optimum only: no caller needs dual multipliers, so none are
    # computed.
    x: list[Fraction] | None = None


def _simplex(
    tableau: list[list[Fraction]], basis: list[int], cost: list[Fraction], nenter: int
) -> str:
    """Minimize cost over the tableau in place; Bland's rule, no cycling.

    Only the first ``nenter`` columns may enter the basis.
    """
    nrows = len(tableau)
    while True:
        # reduced costs: c_j - c_B . column_j
        entering = -1
        for j in range(nenter):
            red = cost[j] - sum(cost[basis[i]] * tableau[i][j] for i in range(nrows))
            if red < 0:
                entering = j
                break
        if entering < 0:
            return OPTIMAL
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
            return UNBOUNDED
        _pivot(tableau, leaving, entering)
        basis[leaving] = entering


def _pivot(tableau: list[list[Fraction]], row: int, col: int) -> None:
    """Gauss-Jordan pivot on tableau[row][col], in place."""
    pv = tableau[row][col]
    tableau[row] = [x / pv for x in tableau[row]]
    for i, other in enumerate(tableau):
        if i != row and other[col] != 0:
            f = other[col]
            tableau[i] = [x - f * y for x, y in zip(other, tableau[row])]


def solve_standard(
    c: Sequence[Scalar], a: Sequence[Sequence[Scalar]], b: Sequence[Scalar]
) -> LPResult:
    """min c.x  subject to  a x = b, x >= 0, all data rational."""
    nrows = len(a)
    ncols = len(c)
    c = [Fraction(v) for v in c]
    rows = [[Fraction(x) for x in row] for row in a]
    rhs = [Fraction(v) for v in b]
    for i in range(nrows):
        if rhs[i] < 0:
            rows[i] = [-x for x in rows[i]]
            rhs[i] = -rhs[i]

    # Phase 1: artificial variable per row.
    tableau = [rows[i] + [Fraction(int(i == j)) for j in range(nrows)] + [rhs[i]] for i in range(nrows)]
    basis = [ncols + i for i in range(nrows)]
    phase1_cost = [Fraction(0)] * ncols + [Fraction(1)] * nrows
    status = _simplex(tableau, basis, phase1_cost, ncols + nrows)
    if status != OPTIMAL:
        return LPResult(status=INFEASIBLE)
    value = sum(tableau[i][-1] for i in range(nrows) if basis[i] >= ncols)
    if value != 0:
        return LPResult(status=INFEASIBLE)
    # Pivot remaining artificials out where possible; redundant rows keep a
    # zero-valued artificial in the basis, which is harmless below.
    for i in range(nrows):
        if basis[i] >= ncols:
            entering = next((j for j in range(ncols) if tableau[i][j] != 0), None)
            if entering is not None:
                _pivot(tableau, i, entering)
                basis[i] = entering

    # Phase 2 on the same tableau.  Artificial columns keep cost zero and
    # may not re-enter, so redundant rows keep their zero-valued artificial.
    phase2_cost = c + [Fraction(0)] * nrows
    status = _simplex(tableau, basis, phase2_cost, ncols)
    if status != OPTIMAL:
        return LPResult(status=UNBOUNDED)

    x = [Fraction(0)] * (ncols + nrows)
    for i in range(nrows):
        x[basis[i]] = tableau[i][-1]
    objective = sum(ci * xi for ci, xi in zip(c, x[:ncols]))
    return LPResult(status=OPTIMAL, objective=objective, x=x[:ncols])


def linprog_exact(
    c: Sequence[Scalar],
    a_ub: Sequence[Sequence[Scalar]] | None = None,
    b_ub: Sequence[Scalar] | None = None,
    a_eq: Sequence[Sequence[Scalar]] | None = None,
    b_eq: Sequence[Scalar] | None = None,
    nonneg: Sequence[bool] | None = None,
) -> LPResult:
    """min c.x  st  a_ub x <= b_ub, a_eq x = b_eq; nonneg[i] marks x_i >= 0
    (default), others are free.  Exact rational data throughout."""
    n = len(c)
    a_ub = [list(r) for r in (a_ub or [])]
    b_ub = list(b_ub or [])
    a_eq = [list(r) for r in (a_eq or [])]
    b_eq = list(b_eq or [])
    if nonneg is None:
        nonneg = [True] * n

    # Map to standard form: free x -> x+ - x-, inequalities get slacks.
    col_of: list[tuple[int, int | None]] = []  # (plus column, minus column)
    std_cols = 0
    for i in range(n):
        if nonneg[i]:
            col_of.append((std_cols, None))
            std_cols += 1
        else:
            col_of.append((std_cols, std_cols + 1))
            std_cols += 2
    nslack = len(a_ub)

    def expand(row: Sequence[Scalar]) -> list[Fraction]:
        out = [Fraction(0)] * (std_cols + nslack)
        for i, v in enumerate(row):
            p, m = col_of[i]
            out[p] = Fraction(v)
            if m is not None:
                out[m] = -Fraction(v)
        return out

    rows = []
    rhs = []
    for i, row in enumerate(a_ub):
        r = expand(row)
        r[std_cols + i] = Fraction(1)
        rows.append(r)
        rhs.append(Fraction(b_ub[i]))
    for i, row in enumerate(a_eq):
        rows.append(expand(row))
        rhs.append(Fraction(b_eq[i]))

    cost = [Fraction(0)] * (std_cols + nslack)
    for i, v in enumerate(c):
        p, m = col_of[i]
        cost[p] = Fraction(v)
        if m is not None:
            cost[m] = -Fraction(v)

    res = solve_standard(cost, rows, rhs)
    if res.status != OPTIMAL:
        return res
    x = []
    for p, m in col_of:
        x.append(res.x[p] - (res.x[m] if m is not None else 0))
    return LPResult(status=OPTIMAL, objective=res.objective, x=x)
