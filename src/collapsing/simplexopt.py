"""Maxima of sum-of-even-powers over the collapsing constraint polytope.

The underlying question: over tuples (a_1, ..., a_{m-1}, 1) that are
k-collapsing (optionally also summing to zero), how large can
``sum a_i^(2p)`` get?  Sorting the variables in decreasing order is
harmless by symmetry, after which the k-collapsing condition reduces to
prefix/suffix sum constraints and the feasible set is a polytope whose
vertices carry the maximum of the convex objective.

``max_sq_balanced`` and ``max_pow_general`` return the closed-form values;
``vertex_oracle`` recomputes the maximum independently by exact
enumeration of the polytope vertices and is the reference the closed forms
are tested against.  The sort-order rows form a chain, so a basis is a
partition of a_1..a_{m-1} into at most five constant blocks, and each
vertex is the solution of an at most 5 x 5 system in the block values.
All arithmetic in this module is exact rational; there is no float path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations

from .errors import PreconditionError
from .linalg import solve_square

EXACT = "exact"
UPPER_BOUND_ONLY = "upper_bound_only"
ORACLE_MAX_M = 16  # vertex enumeration guard


@dataclass(frozen=True)
class OptResult:
    value: Fraction
    exactness: str  # EXACT | UPPER_BOUND_ONLY
    attaining_vertex: tuple | None = None  # coordinates sorted descending
    relaxation_t: Fraction | None = None  # interior argmax of the real relaxation


def _check_range(m: int, k: int, p: int, balanced: bool) -> None:
    if p < 1:
        raise PreconditionError("power must be a positive integer")
    if balanced or p == 1:
        if not 2 <= k <= m - 2:
            raise PreconditionError(f"need 2 <= k <= m-2, got k={k}, m={m}")
    else:
        if not 2 <= k <= Fraction(m + 1, 2):
            raise PreconditionError(f"need 2 <= k <= (m+1)/2 for p >= 2, got k={k}, m={m}")


def max_sq_balanced(m: int, k: int) -> OptResult:
    """Balanced case: the maximum of sum a_i^2 is exactly 1.

    Attained (given the sort order) only at (0, ..., 0, -1).
    """
    _check_range(m, k, 1, balanced=True)
    vertex = tuple([Fraction(0)] * (m - 2) + [Fraction(-1)])
    return OptResult(value=Fraction(1), exactness=EXACT, attaining_vertex=vertex)


def _vertex_all_equal(m: int, k: int) -> tuple:
    return tuple([Fraction(-1, k)] * (m - 1))


def _vertex_spike(m: int, k: int) -> tuple:
    return tuple([Fraction(k - 2, k)] + [Fraction(-1, k)] * (m - 2))


def _vertex_unit(m: int) -> tuple:
    return tuple([Fraction(0)] * (m - 2) + [Fraction(-1)])


def max_pow_general(m: int, k: int, p: int = 1) -> OptResult:
    """Unbalanced case closed forms.

    p = 1: piecewise exact for k < 2m/3; for k >= 2m/3 the two-block family
    of vertices has a real-relaxation maximum at a non-integral block size,
    so only an upper bound is reported (the oracle gives the exact value
    per instance).  p >= 2 needs k <= (m+1)/2, where that regime is empty.
    """
    _check_range(m, k, p, balanced=False)
    if p == 1 and 3 * k >= 2 * m:
        t0_num = (k - 1) ** 2 * (m - k - 1)
        t0_den = 2 * (2 * k - m - 1) * (m - k - 1) + (k - 1)
        t0 = Fraction(t0_num, t0_den)
        relax = Fraction((k - 1) ** 2, 4 * (m - k - 1) * (2 * k - m) * (m - k))
        return OptResult(
            value=max(Fraction(1), relax),
            exactness=UPPER_BOUND_ONLY,
            relaxation_t=t0,
        )
    if k == 2:
        flat = Fraction(m - 1, k ** (2 * p))
        if flat > 1:
            return OptResult(value=flat, exactness=EXACT, attaining_vertex=_vertex_all_equal(m, k))
        return OptResult(value=Fraction(1), exactness=EXACT, attaining_vertex=_vertex_unit(m))
    spiked = Fraction((k - 2) ** (2 * p) + m - 2, k ** (2 * p))
    if spiked > 1:
        return OptResult(value=spiked, exactness=EXACT, attaining_vertex=_vertex_spike(m, k))
    return OptResult(value=Fraction(1), exactness=EXACT, attaining_vertex=_vertex_unit(m))


# ---------------------------------------------------------------------------
# Independent oracle


def _constraints(m: int, k: int, balanced: bool):
    """Linear description of the sorted feasible set in a_1..a_{m-1}.

    Inequalities are rows (coeffs, rhs) meaning coeffs . a <= rhs:
    the sort order itself, and the prefix/suffix sum consequences of the
    k-collapsing condition on the m-tuple with a_m = 1:
      top (k-1)-sum <= 0,   bottom (k-1)-sum >= -2,
      top k-sum <= 1,       bottom k-sum >= -1.
    The balanced case adds the equality sum(a) = -1.
    """
    n = m - 1
    ineqs: list[tuple[list[int], Fraction]] = []
    for i in range(n - 1):
        row = [0] * n
        row[i], row[i + 1] = -1, 1
        ineqs.append((row, Fraction(0)))

    def prefix(j: int, sign: int, rhs) -> None:
        row = [0] * n
        for i in range(j):
            row[i] = sign
        ineqs.append((row, Fraction(rhs)))

    def suffix(j: int, sign: int, rhs) -> None:
        row = [0] * n
        for i in range(n - j, n):
            row[i] = sign
        ineqs.append((row, Fraction(rhs)))

    prefix(k - 1, +1, 0)   # largest k-1 entries plus a_m stay within 1
    suffix(k - 1, -1, 2)   # smallest k-1 entries plus a_m stay within -1
    prefix(k, +1, 1)       # largest k entries among a_1..a_{m-1}
    suffix(k, -1, 1)       # smallest k entries among a_1..a_{m-1}
    eqs = []
    if balanced:
        eqs.append(([1] * n, Fraction(-1)))
    return ineqs, eqs


def _vertices(m: int, k: int, balanced: bool) -> set[tuple]:
    """Every vertex of the sorted feasible set, solved basis by basis.

    A basis of the n = m-1 unknowns is n - #eq active inequalities: some of
    the sort-order rows a_i >= a_{i+1} and a subset S of the four
    prefix/suffix rows.  The sort-order rows form a chain, so the active
    ones glue a_1..a_n into |S| + #eq constant blocks, and the basis is one
    square system of size at most 5 in the block values.  Its entries are
    the rows' sums over each block.  It is nonsingular exactly when the
    n x n system is, and it has the same solution; that solution is a
    vertex when the block values are non-increasing and the four rows
    hold.  All C(n+3, n-#eq) bases are solved.
    """
    ineqs, eqs = _constraints(m, k, balanced)
    n = m - 1
    # The four prefix/suffix rows follow the n-1 sort-order rows; the
    # equality, if any, comes after them.  A row's sum over the block
    # [lo, hi) is cum[hi] - cum[lo].
    rows = ineqs[n - 1:] + eqs
    cums = [list(accumulate(row, initial=0)) for row, _ in rows]
    vertices: set[tuple] = set()
    for size in range(5):
        for chosen in combinations(range(4), size):
            active = [*chosen, *range(4, len(rows))]
            if not active:
                continue  # n unknowns, only n-1 sort-order rows
            # The inactive sort-order rows are the cuts between the blocks.
            for inner in combinations(range(1, n), len(active) - 1):
                blocks = list(zip((0, *inner), (*inner, n)))
                sums = [[cum[hi] - cum[lo] for lo, hi in blocks] for cum in cums]
                sol = solve_square([sums[r] for r in active], [rows[r][1] for r in active])
                if sol is None or any(a < b for a, b in zip(sol, sol[1:])):
                    continue
                if all(sum(c * y for c, y in zip(row_sums, sol)) <= b
                       for row_sums, (_, b) in zip(sums, rows[:4])):
                    vertices.add(tuple(y for (lo, hi), y in zip(blocks, sol)
                                       for _ in range(lo, hi)))
    return vertices


def vertex_oracle(m: int, k: int, p: int = 1, balanced: bool = False) -> OptResult:
    """Exact maximum by enumerating polytope vertices over the rationals.

    The vertices come from ``_vertices``, one at most 5 x 5 block system per
    basis.  Ties go to the smallest vertex in tuple order.  Independent of
    the closed forms.
    """
    if m > ORACLE_MAX_M:
        raise PreconditionError(f"vertex enumeration capped at m = {ORACLE_MAX_M}")
    _check_range(m, k, p, balanced=balanced)
    vertices = _vertices(m, k, balanced)
    if not vertices:
        raise PreconditionError("constraint polytope is empty")
    best_value = None
    best_vertex = None
    for v in sorted(vertices):
        value = sum(x ** (2 * p) for x in v)
        if best_value is None or value > best_value:
            best_value = value
            best_vertex = v
    return OptResult(value=best_value, exactness=EXACT, attaining_vertex=best_vertex)


def oracle_grid(m_values, p_values=(1,), include_balanced=True):
    """Rows (m, k, p, balanced, closed_form, oracle, exactness) for the CLI.

    ``m_values`` is a sequence; an m above ``ORACLE_MAX_M`` raises
    ``PreconditionError`` before any work.
    """
    if max(m_values, default=0) > ORACLE_MAX_M:
        raise PreconditionError(f"vertex enumeration capped at m = {ORACLE_MAX_M}")
    rows = []
    for m in m_values:
        for k in range(2, m - 1):
            for p in p_values:
                if p == 1 or 2 * k <= m + 1:
                    closed = max_pow_general(m, k, p)
                    oracle = vertex_oracle(m, k, p, balanced=False)
                    rows.append((m, k, p, False, closed.value, oracle.value, closed.exactness))
            if include_balanced:
                closed_b = max_sq_balanced(m, k)
                oracle_b = vertex_oracle(m, k, 1, balanced=True)
                rows.append((m, k, 1, True, closed_b.value, oracle_b.value, closed_b.exactness))
    return rows
