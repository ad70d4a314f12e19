"""Exact rational linear algebra: row reduction, rank, solving, nullspaces.

Exact rank, solutions and nullspaces are all read off one fraction-free
Gauss-Jordan elimination, ``rref``, on nested sequences of ``int`` and
``Fraction``.  Each row is first scaled by the lcm of its denominators,
which keeps the row space, so the elimination runs on Python ints.  Every
later step replaces a row by ``(pivot * row - f * pivot_row) //
previous_pivot``; by Sylvester's determinant identity every entry is then an
integer minor of the scaled matrix, so the division is exact and the
entries grow only as fast as those minors (Bareiss 1968).  One division by
the last pivot at the end gives the reduced row echelon form over the
rationals.  ``rank_float`` reads the rank of a float matrix off numpy's
singular values with a relative cutoff; it imports numpy when called, so
exact callers never load it.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .scalars import TOLERANCE, Scalar

Row = list
Matrix = list


def rref(rows: Sequence[Sequence[Scalar]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form over the rationals; returns (R, pivot columns)."""
    m = []
    for row in rows:
        row = [Fraction(x) for x in row]
        # A list, not a generator: unpacking a generator builds the argument
        # tuple by resizing, and CPython then parks each freed tuple on a
        # free list that never reuses it (about 0.3 MB per row length).
        scale = lcm(*[x.denominator for x in row])
        m.append([x.numerator * (scale // x.denominator) for x in row])
    pivots: list[int] = []
    prev = 1
    for c in range(len(m[0]) if m else 0):
        r = len(pivots)
        if r == len(m):
            break
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top = m[r]
        pv = top[c]
        for i, row in enumerate(m):
            if i != r:
                f = row[c]
                m[i] = [(pv * a - f * b) // prev for a, b in zip(row, top)]
        prev = pv
        pivots.append(c)
    return [[Fraction(x, prev) for x in row] for row in m], pivots


def rank_exact(rows: Sequence[Sequence[Scalar]]) -> int:
    return len(rref(rows)[1])


def rank_float(rows: Sequence[Sequence[float]], tol: float = TOLERANCE) -> int:
    import numpy as np

    a = np.asarray(rows, dtype=float)
    if a.size == 0:
        return 0
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def solve_square(a: Sequence[Sequence[Scalar]], b: Sequence[Scalar]) -> list[Fraction] | None:
    """Unique solution of a square rational system, or None if singular."""
    n = len(a)
    red, pivots = rref([list(row) + [b[i]] for i, row in enumerate(a)])
    if pivots != list(range(n)):
        return None
    return [row[n] for row in red]


def solve_consistent(a: Sequence[Sequence[Scalar]], b: Sequence[Scalar]) -> list[Fraction] | None:
    """Any solution of a (possibly rectangular) system, or None if inconsistent."""
    if not a:
        return [] if all(x == 0 for x in b) else None
    ncols = len(a[0])
    red, pivots = rref([list(row) + [b[i]] for i, row in enumerate(a)])
    if ncols in pivots:
        return None  # pivot in the rhs column: inconsistent
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return x


def nullspace(rows: Sequence[Sequence[Scalar]]) -> list[list[Fraction]]:
    """Basis of the rational kernel of the matrix (row-vector convention)."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(v)
    return basis


def dot(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    if len(u) != len(v):
        raise ValueError(f"length mismatch {len(u)} vs {len(v)}")
    return sum(a * b for a, b in zip(u, v))


def mat_mul(a: Sequence[Sequence[Scalar]], b: Sequence[Sequence[Scalar]]) -> Matrix:
    bt = list(zip(*b))
    return [[dot(row, col) for col in bt] for row in a]


def transpose(a: Sequence[Sequence[Scalar]]) -> Matrix:
    return [list(col) for col in zip(*a)]
