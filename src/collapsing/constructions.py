"""Concrete families witnessing the lower bounds, and sharpness fixtures.

Everything rational is built so the family-module verifiers can certify it
in exact arithmetic.  The almost-orthogonal machinery keeps unnormalized
integer coordinate matrices together with a symbolic squared scale factor
(the unit vectors are ``sqrt(scale_sq) * coords``), so all pairwise inner
products are exact rationals and no floating square root ever enters the
slab-ball data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

from .errors import PreconditionError
from .family import ScalarFamily, VectorFamily, make_family
from .gf import PrimePowerField
from .linalg import dot, nullspace, rank_exact, rank_float
from .scalars import Scalar
from .spaces import NormSpace, l1_subspace, linf_space, slab_space


@dataclass(frozen=True)
class AlmostOrthogonalSet:
    """Euclidean unit vectors with pairwise inner products in [-bound, bound].

    ``coords`` are raw coordinates; the unit vectors are
    ``sqrt(scale_sq) * coords``.  Exact sets (rational ``scale_sq``) keep all
    Gram entries rational.  ``row_shape`` marks coordinate vectors that are
    flattened matrices whose rows each sum to zero, which the lift uses to
    compress into the subspace they span.  ``tables`` optionally records the
    generating polynomial value tables.
    """

    dim: int
    coords: tuple
    scale_sq: object
    bound: object
    strict: bool
    row_shape: tuple | None = None
    tables: tuple | None = None

    @property
    def m(self) -> int:
        return len(self.coords)

    def gram(self, i: int, j: int):
        return self.scale_sq * dot(self.coords[i], self.coords[j])


@dataclass(frozen=True)
class FiniteFieldParams:
    q: int
    s: int

    def __post_init__(self):
        if not 1 <= self.s <= self.q - 1:
            raise PreconditionError(f"need 1 <= s <= q-1, got s={self.s}, q={self.q}")

    @property
    def c(self) -> int:
        # degree parameter of the cardinality bound: s = c + 1
        return self.s - 1


# ---------------------------------------------------------------------------
# Elementary families


def linf_cross(d: int) -> VectorFamily:
    """The 2d signed unit vectors in the sup-norm space: strongly balanced
    and k-collapsing for every k <= 2d."""
    if d < 2:
        raise PreconditionError("need d >= 2")
    vectors = []
    for i in range(d):
        plus = tuple(int(j == i) for j in range(d))
        minus = tuple(-int(j == i) for j in range(d))
        vectors.append(plus)
        vectors.append(minus)
    return make_family(linf_space(d), vectors)


def pk_polytope_norm(d: int, k: int) -> NormSpace:
    """The layered-cube norm: its unit ball is the convex hull of the signed
    0/1 vectors with at most k nonzero entries (every k-subset sum of the
    signed basis).  For k >= d it coincides with the sup norm.

    The ball is the slab intersection {||x||_inf <= 1, ||x||_1 <= k}: the
    rows e_i bound each coordinate, and the rows s/k bound <s, x> for every
    sign vector s (s and -s give the same slab, so s_1 = +1).  Every vertex
    above satisfies both bounds; conversely |x| lies in
    {y in [0, 1]^d : sum(y) <= k}, whose constraint matrix is totally
    unimodular, so its vertices are the 0/1 vectors with at most k ones and
    x is a convex combination of their signed copies."""
    if d < 1 or k < 2:
        raise PreconditionError("need d >= 1 and k >= 2")
    rows = [tuple(int(j == i) for j in range(d)) for i in range(d)]
    for signs in product((1, -1), repeat=d - 1):
        rows.append(tuple(Fraction(s, k) for s in (1,) + signs))
    return slab_space(rows)


# ---------------------------------------------------------------------------
# Almost-orthogonal sets


def greedy_unit_vectors(
    d: int, delta: float, seed: int, max_trials: int = 100_000
) -> AlmostOrthogonalSet:
    """Seeded rejection greedy: sample unit directions, accept when all
    pairwise inner products stay strictly below ``delta``.

    Draws exactly ``max_trials`` samples.  The achieved count is whatever
    it is; no cardinality guarantee is asserted at small d."""
    if not 0 < delta <= 1:
        raise PreconditionError("need 0 < delta <= 1")
    import numpy as np

    rng = np.random.default_rng(seed)
    accepted = np.zeros((0, d))
    for _ in range(max_trials):
        v = rng.standard_normal(d)
        nrm = float(np.linalg.norm(v))
        if nrm < 1e-12:
            continue
        v = v / nrm
        if accepted.shape[0] == 0 or float(np.abs(accepted @ v).max()) < delta:
            accepted = np.vstack([accepted, v])
    coords = tuple(tuple(float(c) for c in v) for v in accepted)
    return AlmostOrthogonalSet(
        dim=d, coords=coords, scale_sq=1.0, bound=delta, strict=True
    )


def polynomial_vectors(params: FiniteFieldParams) -> AlmostOrthogonalSet:
    """The q^(s+1) polynomial-evaluation vectors over GF(q).

    Each polynomial p of degree <= s yields a q x q matrix with entry 1 at
    (x, p(x)) and -1/(q-1) elsewhere; rows sum to zero, so the matrices
    live in a (q^2 - q)-dimensional subspace.  We store the integer
    multiples N = (q-1) M (entries q-1 and -1) plus the symbolic scale, so
    normalized inner products (c - 1)/(q - 1) -- c the number of
    coincidence points -- are exact rationals.
    """
    q, s = params.q, params.s
    field = PrimePowerField(q)
    elements = list(field.elements())
    tables = []
    seen = set()
    coeff_count = s + 1
    for code in range(q**coeff_count):
        coeffs = []
        c = code
        for _ in range(coeff_count):
            coeffs.append(c % q)
            c //= q
        table = tuple(field.poly_eval(coeffs, x) for x in elements)
        if table in seen:
            raise PreconditionError(
                f"polynomial value tables collide for q={q}, s={s}: need s < q"
            )
        seen.add(table)
        tables.append(table)
    coords = []
    for table in tables:
        row = []
        for x in range(q):
            hit = table[x]
            row.extend((q - 1) if j == hit else -1 for j in range(q))
        coords.append(tuple(row))
    bound = Fraction(max(1, s - 1), q - 1)
    return AlmostOrthogonalSet(
        dim=q * q - q,
        coords=tuple(coords),
        scale_sq=Fraction(1, q * q * (q - 1)),
        bound=bound,
        strict=False,
        row_shape=(q, q),
        tables=tuple(tables),
    )


def coincidence_count(aos: AlmostOrthogonalSet, i: int, j: int) -> int:
    """Number of points where the generating polynomials agree."""
    if aos.tables is None:
        raise PreconditionError("not a polynomial-generated set")
    return sum(a == b for a, b in zip(aos.tables[i], aos.tables[j]))


def unnormalized_self_inner(aos: AlmostOrthogonalSet, i: int) -> Fraction:
    """<M, M> for the +-1/(q-1) matrix convention (before unit scaling)."""
    if aos.row_shape is None:
        raise PreconditionError("not a matrix-backed set")
    q = aos.row_shape[0]
    return Fraction(dot(aos.coords[i], aos.coords[i]), (q - 1) ** 2)


# ---------------------------------------------------------------------------
# The lift into a slab-ball space


def _compress_matrix_coords(coords: Sequence[Scalar], rows: int, cols: int):
    """Drop the last column of each row; rows sum to zero so nothing is lost."""
    out = []
    for r in range(rows):
        out.extend(coords[r * cols : r * cols + cols - 1])
    return out


def _compress_functional(coords: Sequence[Scalar], rows: int, cols: int):
    """Pair the functional with the compression basis e_(r,j) - e_(r,last)."""
    out = []
    for r in range(rows):
        last = coords[r * cols + cols - 1]
        out.extend(coords[r * cols + j] - last for j in range(cols - 1))
    return out


def lift_almost_orthogonal(aos: AlmostOrthogonalSet, k: int):
    """Lift an almost-orthogonal set into a slab-ball space one dimension up.

    With u_i the unit vectors, the lifted family is x_i = u_i + e and the
    slab functionals are y_i = (1 + 1/(2k)) u_i - (1/(2k)) e; then
    <x_i, y_i> = 1 and all cross pairings lie in [-1/k, 0], making the x_i
    unit vectors of the slab-ball gauge and the family k-collapsing.  When
    the functionals only span a hyperplane, a cap slab along its normal
    (with a bound safely above every pairing the verification touches)
    bounds the ball.  Exact sets are emitted in rationalizing coordinates:
    a linear isomorphism preserves all pairings, hence all norms involved.

    Returns (space, family).
    """
    if k < 2:
        raise PreconditionError("need k >= 2")
    exact = isinstance(aos.scale_sq, Fraction)
    cap_limit = Fraction(1, 2 * k + 1) if exact else 1.0 / (2 * k + 1)
    if aos.bound > cap_limit:
        raise PreconditionError(
            f"pairwise bound {aos.bound} exceeds 1/(2k+1) = {cap_limit}"
        )
    c = Fraction(2 * k + 1, 2 * k) if exact else 1.0 + 1.0 / (2 * k)
    last = Fraction(-1, 2 * k) if exact else -1.0 / (2 * k)
    one = 1 if exact else 1.0
    s2 = aos.scale_sq
    xs = []
    ys = []
    if aos.row_shape is not None:
        rows, cols = aos.row_shape
        for v in aos.coords:
            xs.append(tuple(_compress_matrix_coords(v, rows, cols)) + (one,))
            scaled = [c * s2 * t for t in _compress_functional(v, rows, cols)]
            ys.append(tuple(scaled) + (last,))
    else:
        for v in aos.coords:
            xs.append(tuple(v) + (one,))
            ys.append(tuple(c * s2 * t for t in v) + (last,))
    dim = len(xs[0])
    r = rank_exact(ys) if exact else rank_float(ys)
    cap = None
    extra = []
    if r < dim:
        normals = nullspace(ys) if exact else _float_nullspace(ys)
        lam_scalars = [[dot(x, n) for x in xs] for n in normals]
        caps = []
        for n, scalars in zip(normals, lam_scalars):
            lam = _cap_bound(scalars, k)
            caps.append((tuple(n), lam))
        cap = caps[0]
        # fold additional normals in as plain slabs |<n/lam, x>| <= 1
        extra = [tuple(coord / lam for coord in n) for n, lam in caps[1:]]
    space = slab_space(list(ys) + extra, cap=cap)
    family = make_family(space, xs)
    return space, family


def _float_nullspace(rows):
    import numpy as np

    a = np.asarray(rows, dtype=float)
    _, s, vt = np.linalg.svd(a)
    tol = 1e-9 * (s[0] if s.size else 1.0)
    null = [vt[i] for i in range(vt.shape[0]) if i >= s.size or s[i] <= tol]
    return [tuple(float(c) for c in v) for v in null]


def _cap_bound(scalars, k: int):
    """Safe cap bound: twice the largest pairing over the points verified
    downstream (the x_i and all their k-subset sums)."""
    ordered = sorted(scalars)
    top = sum(ordered[-k:]) if len(ordered) >= k else sum(ordered)
    bottom = sum(ordered[:k]) if len(ordered) >= k else sum(ordered)
    peak = max(max(abs(s) for s in scalars), abs(top), abs(bottom))
    if peak == 0:
        return Fraction(1) if isinstance(scalars[0], (int, Fraction)) else 1.0
    return 2 * peak


# ---------------------------------------------------------------------------
# Sharpness fixtures in l1 subspaces


def fixture_X(d: int, eps) -> VectorFamily:
    """d unit vectors in a d-dimensional l1 subspace whose diameter is
    exactly 1 + 1/d - eps and whose centroid has norm exactly
    1/d^2 + (1 - 1/d) eps: the diameter-to-centroid bound is sharp."""
    eps = Fraction(eps)
    if d < 2:
        raise PreconditionError("need d >= 2")
    if not 0 < eps < Fraction(1, d):
        raise PreconditionError("need 0 < eps < 1/d")
    ambient = d + 1
    basis = [
        tuple(1 if j == i else (-1 if j == i + 1 else 0) for j in range(ambient))
        for i in range(d - 1)
    ]
    basis.append(tuple(int(j == d) for j in range(ambient)))
    space = l1_subspace(ambient, basis)
    c = Fraction(d + 1, d) - eps
    h = Fraction(1, d * d) + (1 - Fraction(1, d)) * eps
    vectors = []
    for i in range(d):
        coeffs = []
        for j in range(ambient):
            if j == d:
                coeffs.append(h)
            elif j == i:
                coeffs.append(c / 2 * (1 - Fraction(1, d)))
            else:
                coeffs.append(-c / (2 * d))
        vectors.append(tuple(coeffs))
    return make_family(space, vectors)


def fixture_Y(d: int) -> VectorFamily:
    """d+1 unit vectors summing to zero with all pairwise distances exactly
    1 + 1/d, inside the zero-sum l1 subspace."""
    if d < 2:
        raise PreconditionError("need d >= 2")
    ambient = d + 1
    basis = [
        tuple(1 if j == i else (-1 if j == i + 1 else 0) for j in range(ambient))
        for i in range(d)
    ]
    space = l1_subspace(ambient, basis)
    vectors = []
    for i in range(ambient):
        vectors.append(
            tuple(
                Fraction(1, 2) if j == i else Fraction(-1, 2 * d) for j in range(ambient)
            )
        )
    return make_family(space, vectors)


def counterexample_tuple(m: int) -> ScalarFamily:
    """An (m-1)-collapsing family of reals with two entries above 1.

    Witnesses that the norm-cap statement genuinely needs k <= m-2: here
    k = m-1, both large entries equal (2m-5)/(m-1) > 1, and every
    (m-1)-subset sum is exactly +-1.
    """
    if m < 5:
        raise PreconditionError("need m >= 5")
    small = Fraction(-3, m - 1)
    big = Fraction(2 * m - 5, m - 1)
    return ScalarFamily(values=tuple([small] * (m - 2) + [big, big]))
