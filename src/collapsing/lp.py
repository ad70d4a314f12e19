"""Exact rational linear programming.

Two-phase primal simplex with Bland's rule on a fraction-free tableau.  The
constraint rows and the right-hand side are scaled by one common lcm of
their denominators, so the tableau holds Python ints ``T`` over one common
denominator ``D``: the rational tableau is ``T / D``.  A pivot on ``T[r][c]``
replaces every other row by ``(pv * row - f * T[r]) // D`` and sets ``D`` to
the pivot, the integer-preserving rule of ``linalg.rref`` (Edmonds 1967,
Bareiss 1968): every entry stays an integer minor of the scaled data, so the
division is exact.  Row 0 holds ``D`` times the reduced costs and is pivoted
with the rest, so no iteration recomputes ``c_j - c_B . A_j``; the ratio test
compares by cross-multiplication.  A negative pivot (only when a zero-valued
artificial is pivoted out) negates its row first, which keeps ``D`` positive
so every sign reads off ``T`` directly.

The scale must be common to all rows.  With one artificial unit column per
row, a common factor multiplies every artificial value, and so the phase-1
objective, by the same amount, and Bland's rule picks the same pivots as on
the unscaled tableau.  A per-row lcm would weight the artificials unequally
and could change which column enters.  The phase-2 cost is scaled by its
own lcm.  ``Fraction``s appear only in the returned ``x`` and ``objective``.
``linprog_exact`` mirrors the scipy calling convention, which keeps
cross-checking against ``scipy.optimize.linprog`` straightforward in the
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
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
    # Pivots of both phases, artificial pivot-outs included.
    pivots: int = 0


def _scaled(rows: Sequence[Sequence[Scalar]]) -> tuple[list[list[int]], int]:
    """The rows as ints, all multiplied by the lcm of every denominator,
    and that lcm."""
    ratios = [[x.as_integer_ratio() for x in row] for row in rows]
    scale = lcm(*[den for row in ratios for _, den in row])
    return [[num * (scale // den) for num, den in row] for row in ratios], scale


def _pivot(t: list[list[int]], d: int, row: int, col: int) -> int:
    """Integer-preserving pivot on t[row][col], in place; returns the new D."""
    top = t[row]
    pv = top[col]
    if pv < 0:
        top = t[row] = [-x for x in top]
        pv = -pv
    for i, other in enumerate(t):
        if i != row:
            f = other[col]
            # Most rows of a sparse tableau have f = 0: they only change
            # denominator, and not at all when the pivot equals D.
            if f:
                t[i] = [(pv * a - f * b) // d for a, b in zip(other, top)]
            elif pv != d:
                t[i] = [pv * a // d for a in other]
    return pv


def _simplex(t: list[list[int]], d: int, basis: list[int], nenter: int) -> tuple[str, int, int]:
    """Minimize over the tableau in place; Bland's rule, no cycling.

    ``t[0]`` holds D times the reduced costs and ``basis[i]`` is the basic
    column of ``t[i]`` for i >= 1.  Only the first ``nenter`` columns may
    enter the basis.  Returns the status, the final D and the pivot count.
    """
    pivots = 0
    while True:
        cost = t[0]
        entering = next((j for j in range(nenter) if cost[j] < 0), -1)
        if entering < 0:
            return OPTIMAL, d, pivots
        # min t[i][-1] / t[i][entering] over t[i][entering] > 0; ties go to
        # the smaller basic column.
        leaving = -1
        for i in range(1, len(t)):
            a = t[i][entering]
            if a > 0:
                if leaving < 0:
                    leaving, num, den = i, t[i][-1], a
                    continue
                lhs, rhs = t[i][-1] * den, num * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving, num, den = i, t[i][-1], a
        if leaving < 0:
            return UNBOUNDED, d, pivots
        d = _pivot(t, d, leaving, entering)
        basis[leaving] = entering
        pivots += 1


def solve_standard(
    c: Sequence[Scalar], a: Sequence[Sequence[Scalar]], b: Sequence[Scalar]
) -> LPResult:
    """min c.x  subject to  a x = b, x >= 0, all data rational."""
    nrows = len(a)
    ncols = len(c)
    scaled, _ = _scaled([list(row) + [v] for row, v in zip(a, b)])
    for row in scaled:
        if row[-1] < 0:
            row[:] = [-x for x in row]

    # Phase 1: one artificial unit column per row.  Row 0 holds the reduced
    # costs of the artificials' sum: minus the column sums on the structural
    # columns and the rhs, zero on the artificials.
    sums = [-sum(col) for col in zip(*scaled)] if scaled else [0] * (ncols + 1)
    t = [sums[:-1] + [0] * nrows + sums[-1:]]
    for i, row in enumerate(scaled):
        t.append(row[:-1] + [int(i == j) for j in range(nrows)] + row[-1:])
    basis = [-1] + [ncols + i for i in range(nrows)]
    status, d, pivots = _simplex(t, 1, basis, ncols + nrows)
    if status != OPTIMAL or any(t[i][-1] for i in range(1, nrows + 1) if basis[i] >= ncols):
        return LPResult(status=INFEASIBLE, pivots=pivots)
    # Pivot remaining artificials out where possible; redundant rows keep a
    # zero-valued artificial in the basis, which is harmless below.
    for i in range(1, nrows + 1):
        if basis[i] >= ncols:
            entering = next((j for j in range(ncols) if t[i][j] != 0), None)
            if entering is not None:
                d = _pivot(t, d, i, entering)
                basis[i] = entering
                pivots += 1

    # Phase 2 on the structural columns.  Artificials have cost zero and may
    # not re-enter, so their columns are dropped, and redundant rows keep
    # their zero-valued artificial.
    (cost,), cost_scale = _scaled([c])
    t = [row[:ncols] + row[-1:] for row in t]
    t[0] = [d * cj for cj in cost] + [0]
    for i in range(1, nrows + 1):
        w = cost[basis[i]] if basis[i] < ncols else 0
        if w:
            t[0] = [r - w * x for r, x in zip(t[0], t[i])]
    status, d, more = _simplex(t, d, basis, ncols)
    pivots += more
    if status != OPTIMAL:
        return LPResult(status=UNBOUNDED, pivots=pivots)

    x = [Fraction(0)] * ncols
    for i in range(1, nrows + 1):
        if basis[i] < ncols:
            x[basis[i]] = Fraction(t[i][-1], d)
    # t[0][-1] is -D times the scaled cost of x.
    objective = Fraction(-t[0][-1], d * cost_scale)
    return LPResult(status=OPTIMAL, objective=objective, x=x, pivots=pivots)


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

    def expand(row: Sequence[Scalar]) -> list[Scalar]:
        out: list[Scalar] = [0] * (std_cols + nslack)
        for i, v in enumerate(row):
            p, m = col_of[i]
            out[p] = v
            if m is not None:
                out[m] = -v
        return out

    rows = []
    for i, row in enumerate(a_ub):
        r = expand(row)
        r[std_cols + i] = 1
        rows.append(r)
    rows.extend(expand(row) for row in a_eq)

    res = solve_standard(expand(c), rows, b_ub + b_eq)
    if res.status != OPTIMAL:
        return res
    x = [res.x[p] - (res.x[m] if m is not None else 0) for p, m in col_of]
    return LPResult(status=OPTIMAL, objective=res.objective, x=x, pivots=res.pivots)
