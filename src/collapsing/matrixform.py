"""The family <-> matrix reduction and rank certificates.

A family with chosen dual unit vectors yields the pairing matrix
``A[i][j] = <x_i*, x_j>`` of rank at most the space dimension; diagonal
entries are the norms, rows inherit the k-collapsing property, and zero
row sums encode strong balancing.  Conversely the columns of any such
matrix, read in the sup-norm of R^m, realise the same properties, which is
what ``family_from_matrix`` returns.

``rank_certificate`` packages the trace/Frobenius rank lower bound
``trace(A)^2 <= rank(A) * sum |a_ij|^2`` together with the equality
detector: for a real matrix, equality holds iff it is symmetric with all
nonzero eigenvalues equal, which for rational input reduces to the exact
pattern test ``A @ A == (trace/rank) * A``.

Exact matrices stay in Python rationals.  Only the float paths
(``rank_float`` and the float equality test) use numpy, and they import it
when called, so an exact computation never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Sequence

from .errors import PreconditionError
from .family import VectorFamily, make_family, scalar_k_collapsing
from .linalg import dot, mat_mul, rank_exact, rank_float
from .scalars import (TOLERANCE, Scalar, format_scalar, parse_scalar, unit_floor, unit_limit,
                      vectors_exact)
from .spaces import gauge, linf_space


@dataclass(frozen=True)
class CollapseMatrix:
    entries: tuple

    def __post_init__(self):
        m = len(self.entries)
        if any(len(row) != m for row in self.entries):
            raise PreconditionError("matrix must be square")

    @property
    def m(self) -> int:
        return len(self.entries)

    def is_exact(self) -> bool:
        return vectors_exact(self.entries)

    def row(self, i: int) -> tuple:
        return self.entries[i]


def make_matrix(rows: Sequence[Sequence[Scalar]]) -> CollapseMatrix:
    return CollapseMatrix(entries=tuple(tuple(r) for r in rows))


@dataclass(frozen=True)
class RankCertificate:
    trace: Scalar
    frobenius_sq: Scalar
    rank_lower_bound: Scalar
    rank: int
    equality_case: bool

    def to_json(self) -> dict:
        return {
            "trace": format_scalar(self.trace),
            "frobenius_sq": format_scalar(self.frobenius_sq),
            "rank_lower_bound": format_scalar(self.rank_lower_bound),
            "rank": self.rank,
            "equality_case": self.equality_case,
        }


def gram_from_family(family: VectorFamily) -> CollapseMatrix:
    """Pairing matrix of the family against the dual unit vectors that
    ``spaces.dual_unit_vector`` gives, all from one gauge."""
    dual = gauge(family.space).dual
    functionals = []
    for i, v in enumerate(family.vectors):
        if all(c == 0 for c in v):
            raise PreconditionError(f"vector {i + 1} is zero and has no dual unit vector")
        functionals.append(dual(v))
    rows = [tuple(dot(f, x) for x in family.vectors) for f in functionals]
    return make_matrix(rows)


def family_from_matrix(matrix: CollapseMatrix, d: int) -> VectorFamily:
    """Columns of the matrix as vectors of the sup-norm space R^m.

    Requires rank(A) <= d so that the columns span a space of dimension at
    most d; the sup-norm on R^m restricted to that span gives a d-dimensional
    space carrying the advertised properties.
    """
    r = rank(matrix)
    if r > d:
        raise PreconditionError(f"rank {r} exceeds the target dimension {d}")
    cols = list(zip(*matrix.entries))
    return make_family(linf_space(matrix.m), cols)


def row_normalize(matrix: CollapseMatrix) -> CollapseMatrix:
    """Divide each row by its diagonal entry.

    Verifies (not assumes) diagonal entries >= 1 and off-diagonal entries of
    absolute value <= 1; preserves rank, row collapsing and zero row sums.
    """
    exact = matrix.is_exact()
    lo, hi = unit_floor(exact), unit_limit(exact)
    for i, row in enumerate(matrix.entries):
        if row[i] < lo:
            raise PreconditionError(f"diagonal entry {i + 1} is below 1")
        for j, v in enumerate(row):
            if j != i and abs(v) > hi:
                raise PreconditionError(f"off-diagonal entry ({i + 1},{j + 1}) exceeds 1")
    rows = []
    for i, row in enumerate(matrix.entries):
        piv = row[i]
        if exact:
            rows.append(tuple(Fraction(v, 1) / piv for v in row))
        else:
            rows.append(tuple(v / piv for v in row))
    return make_matrix(rows)


def rank(matrix: CollapseMatrix) -> int:
    if matrix.is_exact():
        return rank_exact(matrix.entries)
    return rank_float(matrix.entries)


def rank_certificate(matrix: CollapseMatrix) -> RankCertificate:
    exact = matrix.is_exact()
    m = matrix.m
    trace = sum(matrix.entries[i][i] for i in range(m))
    frob = sum(v * v for row in matrix.entries for v in row)
    r = rank(matrix)
    if frob == 0:
        bound = Fraction(0) if exact else 0.0
    elif exact:
        bound = Fraction(trace * trace, 1) / frob
    else:
        bound = trace * trace / frob
    slack = 0 if exact else TOLERANCE * max(1.0, abs(float(bound)))
    if bound > r + slack:
        raise PreconditionError("trace-squared bound exceeds the rank: inconsistent input")
    equality = _equality_case(matrix, trace, r, exact)
    return RankCertificate(
        trace=trace, frobenius_sq=frob, rank_lower_bound=bound, rank=r, equality_case=equality
    )


def _equality_case(matrix: CollapseMatrix, trace, r: int, exact: bool) -> bool:
    """Equality in the rank bound: symmetric with all nonzero eigenvalues equal.

    For symmetric A of rank r that is exactly A @ A == (trace/r) A; checked
    without any eigensolver.
    """
    m = matrix.m
    if r == 0:
        return True
    if exact:
        if any(
            matrix.entries[i][j] != matrix.entries[j][i] for i in range(m) for j in range(i)
        ):
            return False
        c = Fraction(trace, 1) / r
        sq = mat_mul(matrix.entries, matrix.entries)
        return all(
            sq[i][j] == c * matrix.entries[i][j] for i in range(m) for j in range(m)
        )
    import numpy as np

    a = np.asarray(matrix.entries, dtype=float)
    scale = max(1.0, float(np.abs(a).max()))
    if not np.allclose(a, a.T, atol=TOLERANCE * scale):
        return False
    c = float(trace) / r
    return bool(np.allclose(a @ a, c * a, atol=TOLERANCE * max(1.0, scale * scale)))


def hadamard_power(matrix: CollapseMatrix, p: int) -> CollapseMatrix:
    if p < 1:
        raise PreconditionError("the Hadamard exponent must be a positive integer")
    return make_matrix([tuple(v**p for v in row) for row in matrix.entries])


def hadamard_rank_bound(rank_a: int, p: int) -> int:
    """Rank cap for the p-th entrywise power of a rank-``rank_a`` matrix."""
    return comb(p + rank_a - 1, p)


def check_rows(matrix: CollapseMatrix, k: int) -> bool:
    """Every row passes the one-dimensional k-collapsing test."""
    return all(scalar_k_collapsing(row, k)[0] for row in matrix.entries)


def row_sums(matrix: CollapseMatrix) -> list:
    return [sum(row) for row in matrix.entries]


def matrix_to_json(matrix: CollapseMatrix) -> dict:
    return {
        "m": matrix.m,
        "entries": [[format_scalar(v) for v in row] for row in matrix.entries],
    }


def matrix_from_json(desc: dict) -> CollapseMatrix:
    return make_matrix([[parse_scalar(v) for v in row] for row in desc["entries"]])
