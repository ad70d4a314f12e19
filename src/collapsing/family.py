"""Vector families and the collapsing/balancing condition verifiers.

A family is k-collapsing when every k-element index subset has a sum of
norm at most 1; strongly balancing when the full sum is the zero vector;
weakly balancing when the origin lies in the relative interior of the
convex hull.  All verifiers return ``ConditionReport`` certificates whose
witness indices are 1-based, matching the JSON certificate format.

Every subset-sum check is one loop, ``_scan``, over a stream of subsets,
in one process.  It moves the running sum from one subset to the next by
their symmetric difference and rebuilds it from zero when the difference is
larger than the new subset.  The exhaustive k-scan streams the
revolving-door order, where the difference is one swap (one addition and
one subtraction); the full scan streams that order size by size, and the
sampled mode streams seeded random k-subsets.  For a polyhedral norm (sup
or slab) the loop runs in row coordinates: ||x|| = max_f |<f, x>| over the
rows of the ball (``Gauge.row_map``), so each member is mapped to its row
coordinates once, and a subset sum's norm is the largest |entry| of the
sum of its members' row coordinates.

Every norm verdict (the scans, strong balancing, the far-partner and
diameter/centroid checks, the branch and bound, and the proximity graph and
norm stage of ``graphtools``) compares the value of one compiled gauge,
``spaces.gauge``, with a threshold.  Each check builds the gauge once; it
takes sums and differences of members only, and ``VectorFamily`` checks
l1-subspace membership once per member, so no gauge call solves for it.
Exact-mode comparisons are exact; float mode accepts ``1 + TOLERANCE``
(``scalars.unit_limit``).  In exact mode the value of an lp norm with an
integer 1 < p < inf is the exact p-th power sum |c|^p, compared with the
p-th power of the threshold (``Gauge.scale``) and reported with
``margin_pow``.  The branch and bound is one depth-first loop with forward
checking: each node filters its remaining candidates through the chosen
prefix, in row coordinates for a polyhedral norm (one interval per row:
a candidate fits iff adding it to the top and to the bottom k-1 chosen
values of each row stays within the row's limit) and through the
(k-1)-subset sums of the prefix for the other norms.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from math import comb, lcm
from typing import Iterable, Sequence

from .errors import InvariantError, PreconditionError
from .lp import OPTIMAL, linprog_exact
from .scalars import (TOLERANCE, Scalar, format_scalar, parse_scalar, snap_rational, unit_floor,
                      unit_limit, vectors_exact)
from .spaces import Gauge, NormSpace, check_vector, gauge, space_from_json, space_to_json
from .subsets import revolving_door, sample_subsets

FULL_COLLAPSE_MAX_M = 24  # 2^m enumeration guard
BNB_MAX_WORK = 3_000_000  # branch-and-bound guard: nodes + candidate tests


@dataclass(frozen=True)
class VectorFamily:
    space: NormSpace
    vectors: tuple

    def __post_init__(self):
        # Sums and differences of members stay in an l1 subspace, so no
        # gauge needs to check membership again.
        for v in self.vectors:
            check_vector(self.space, v)
        if not self.vectors:
            raise PreconditionError("a family needs at least one vector")

    @property
    def m(self) -> int:
        return len(self.vectors)

    def is_exact(self) -> bool:
        return vectors_exact(self.vectors) and self.space.is_exact()

    def gauge(self) -> Gauge:
        """The compiled norm of the space, in exact mode iff the family is exact."""
        return gauge(self.space, self.is_exact())


def make_family(space: NormSpace, vectors: Iterable[Sequence[Scalar]]) -> VectorFamily:
    return VectorFamily(space=space, vectors=tuple(tuple(v) for v in vectors))


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    holds: bool
    margin: Scalar
    witness: tuple | None = None  # 1-based sorted indices of a violating subset
    k: int | None = None
    sampled: bool = False
    exact: bool = True
    margin_pow: int | None = None  # the margin is the norm to this power

    def __post_init__(self):
        if self.exact and isinstance(self.margin, float):
            raise InvariantError(
                f"exact {self.condition} report carries the float margin {self.margin!r}"
            )

    def to_json(self) -> dict:
        out = {
            "condition": self.condition,
            "k": self.k,
            "holds": self.holds,
            "witness": list(self.witness) if self.witness else None,
            "margin": format_scalar(self.margin),
            "sampled": self.sampled,
            "mode": "exact" if self.exact else "float",
        }
        if self.margin_pow is not None:
            out["margin_pow"] = self.margin_pow
        return out


def _vec_add(a: list, b: Sequence[Scalar]) -> None:
    for i, x in enumerate(b):
        a[i] += x


def _vec_sub(a: list, b: Sequence[Scalar]) -> None:
    for i, x in enumerate(b):
        a[i] -= x


def _scan(family: VectorFamily, subsets: Iterable[tuple], g: Gauge):
    """The one subset-sum loop: (worst gauge value, lex smallest violating subset).

    The running sum moves from one subset to the next by their symmetric
    difference, or is rebuilt from zero when the difference is larger than
    the new subset.  The value is the norm, or its p-th power (``g.power``).
    With a row map (``g.row_map``) the members are mapped once to their
    row coordinates, and the norm of a sum is its largest |entry|.
    The witness is a sorted 1-based tuple; both results are None for an
    empty stream.
    """
    limit = unit_limit(g.exact)
    if g.row_map is None:
        vectors, value = family.vectors, g.value
    else:
        vectors = [g.row_map(v) for v in family.vectors]
        value = lambda y: max(abs(c) for c in y)
    dim = len(vectors[0])
    running = [0] * dim
    current: set = set()
    worst = None
    witness = None
    for subset in subsets:
        new = set(subset)
        added, removed = new - current, current - new
        if len(added) + len(removed) > len(new):
            running = [0] * dim
            added, removed = new, ()
        for i in added:
            _vec_add(running, vectors[i])
        for i in removed:
            _vec_sub(running, vectors[i])
        current = new
        nrm = value(running)
        if worst is None or nrm > worst:
            worst = nrm
        if nrm > limit:
            cand = tuple(sorted(i + 1 for i in subset))
            if witness is None or cand < witness:
                witness = cand
    return worst, witness


def check_k_collapsing(
    family: VectorFamily,
    k: int,
    budget: int | None = None,
    seed: int | None = None,
) -> ConditionReport:
    """Scan all (or a seeded sample of) k-subset sums of the family.

    The report carries the worst subset-sum norm as ``margin`` and the
    lexicographically smallest violating subset as ``witness``; both are
    deterministic.
    """
    m = family.m
    if not 1 <= k <= m:
        raise PreconditionError(f"need 1 <= k <= m, got k={k}, m={m}")
    if budget is not None and budget < 1:
        raise PreconditionError(f"need budget >= 1, got {budget}")
    total = comb(m, k)
    sampled = budget is not None and total > budget
    if sampled and seed is None:
        raise PreconditionError(
            f"C({m},{k}) = {total} exceeds the budget {budget}; provide a seed "
            "to run the sampled mode"
        )
    g = family.gauge()
    subsets = sample_subsets(m, k, budget, seed) if sampled else revolving_door(m, k)
    worst, witness = _scan(family, subsets, g)
    return ConditionReport(
        condition="k-collapsing",
        holds=witness is None,
        margin=worst,
        witness=witness,
        k=k,
        sampled=sampled,
        exact=g.exact,
        margin_pow=g.power,
    )


def check_full_collapsing(family: VectorFamily) -> ConditionReport:
    """All nonempty subset sums, size by size in revolving-door order."""
    m = family.m
    if m > FULL_COLLAPSE_MAX_M:
        raise PreconditionError(f"full collapsing enumeration capped at m = {FULL_COLLAPSE_MAX_M}")
    g = family.gauge()
    subsets = chain.from_iterable(revolving_door(m, s) for s in range(1, m + 1))
    worst, witness = _scan(family, subsets, g)
    return ConditionReport(
        condition="full-collapsing",
        holds=witness is None,
        margin=worst,
        witness=witness,
        exact=g.exact,
        margin_pow=g.power,
    )


def check_strong_balancing(family: VectorFamily) -> ConditionReport:
    g = family.gauge()
    total = [0] * len(family.vectors[0])
    for v in family.vectors:
        _vec_add(total, v)
    nrm = g.value(tuple(total))
    holds = nrm == 0 if g.exact else nrm <= TOLERANCE
    return ConditionReport(
        condition="strong-balancing", holds=holds, margin=nrm, exact=g.exact, margin_pow=g.power
    )


def check_weak_balancing(family: VectorFamily) -> ConditionReport:
    """Origin in the relative interior of the convex hull.

    The origin lies in the relative interior iff it admits a convex
    representation with all weights strictly positive, so we maximise the
    minimum weight mu by one exact LP, which ``lp.linprog_exact`` solves on
    an integer tableau; the margin is that mu, and 0 when no convex
    representation exists.  Floats are rationalised first because
    relative-interior membership is not robust under rounding.
    """
    vectors = [[snap_rational(c) for c in v] for v in family.vectors]
    m = len(vectors)
    amb = len(vectors[0])
    # variables: lambda_1..m >= 0, mu >= 0; maximise mu
    cost = [Fraction(0)] * m + [Fraction(-1)]
    a_eq = [[vectors[j][i] for j in range(m)] + [Fraction(0)] for i in range(amb)]
    a_eq.append([Fraction(1)] * m + [Fraction(0)])
    b_eq = [Fraction(0)] * amb + [Fraction(1)]
    a_ub = [
        [Fraction(0)] * j + [Fraction(-1)] + [Fraction(0)] * (m - j - 1) + [Fraction(1)]
        for j in range(m)
    ]
    b_ub = [Fraction(0)] * m
    res = linprog_exact(cost, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq)
    if res.status != OPTIMAL:
        return ConditionReport(
            condition="weak-balancing", holds=False, margin=Fraction(0), exact=family.is_exact()
        )
    mu = res.x[m]
    return ConditionReport(
        condition="weak-balancing", holds=mu > 0, margin=mu, exact=family.is_exact()
    )


# ---------------------------------------------------------------------------
# Scalar families


@dataclass(frozen=True)
class ScalarFamily:
    values: tuple

    @property
    def m(self) -> int:
        return len(self.values)


def scalar_k_collapsing(values: Sequence[Scalar], k: int, want_witness: bool = False):
    """1-dimensional k-collapsing test.

    The extreme k-subset sums of reals are the k largest and the k smallest
    elements, so the check is a sort plus two prefix sums.  The witness (lex
    smallest violating index subset) is only materialised on demand.
    """
    m = len(values)
    if not 1 <= k <= m:
        raise PreconditionError(f"need 1 <= k <= m, got k={k}, m={m}")
    exact = vectors_exact([values])
    limit = unit_limit(exact)
    ordered = sorted(values)
    top = sum(ordered[-k:])
    bottom = sum(ordered[:k])
    margin = max(abs(top), abs(bottom))
    holds = margin <= limit
    witness = None
    if not holds and want_witness:
        for subset in combinations(range(m), k):
            if abs(sum(values[i] for i in subset)) > limit:
                witness = tuple(i + 1 for i in subset)
                break
    return holds, margin, witness


def normalisation_check(family: ScalarFamily, k: int):
    """Check the size cap forced on a k-collapsing family of reals.

    Whenever some |a_i| >= 1, every other entry must satisfy
    |a_j| <= 2 - |a_i| (hence <= 1).  Returns (ok, violations) with 1-based
    index pairs; a nonempty list would falsify the implementation, not the
    statement, for 2 <= k <= m-2.
    """
    values = family.values
    m = len(values)
    if not 2 <= k <= m - 2:
        raise PreconditionError(f"need 2 <= k <= m-2, got k={k}, m={m}")
    holds, margin, _ = scalar_k_collapsing(values, k)
    if not holds:
        raise PreconditionError(f"family is not {k}-collapsing (margin {margin})")
    violations = []
    for i, a in enumerate(values):
        if abs(a) >= 1:
            for j, b in enumerate(values):
                if j != i and abs(b) > 2 - abs(a):
                    violations.append((i + 1, j + 1))
    return not violations, violations


def far_partner_check(family: VectorFamily, indices: Sequence[int]) -> bool:
    """Every member of a norm->=1 subset with small sum has a far partner.

    ``indices`` are 1-based.  Preconditions (all norms >= 1 on the subset,
    subset sum of norm <= 1) are enforced; under them the answer must be
    True, so a False return signals an arithmetic bug.
    """
    idx = [i - 1 for i in indices]
    if len(idx) < 2:
        raise PreconditionError("need at least two indices")
    vectors = family.vectors
    g = family.gauge()
    value, lo = g.value, unit_floor(g.exact)
    for i in idx:
        if value(vectors[i]) < lo:
            raise PreconditionError(f"vector {i + 1} has norm below 1")
    total = [0] * len(vectors[0])
    for i in idx:
        _vec_add(total, vectors[i])
    if value(total) > unit_limit(g.exact):
        raise PreconditionError("subset sum has norm above 1")
    return all(
        any(value([a - b for a, b in zip(vectors[i], vectors[j])]) >= lo for j in idx if j != i)
        for i in idx
    )


@dataclass(frozen=True)
class DiameterCentroidReport:
    diameter: Scalar
    centroid_norm: Scalar
    hypothesis_holds: bool
    conclusion_holds: bool
    dim: int
    power: int | None = None  # both norms are raised to this power


def diameter_centroid_check(family: VectorFamily) -> DiameterCentroidReport:
    """Diameter below 1 + 1/d must push the centroid norm above 1/d^2.

    Like the condition reports, an exact lp space with 1 < p < inf reports
    the p-th powers of both norms, with ``power`` set to p.
    """
    space, vectors = family.space, family.vectors
    d = space.dim
    g = family.gauge()
    exact = g.exact
    for i, v in enumerate(vectors):
        if g.value(v) < unit_floor(exact):
            raise PreconditionError(f"vector {i + 1} has norm below 1")
    diam = max(
        (g.value([a - b for a, b in zip(u, v)]) for u, v in combinations(vectors, 2)), default=0
    )
    total = [0] * len(vectors[0])
    for v in vectors:
        _vec_add(total, v)
    n = len(vectors)
    cnorm = g.value([Fraction(c, n) if exact else c / n for c in total])
    inv_d = Fraction(1, d) if exact else 1.0 / d
    return DiameterCentroidReport(
        diameter=diam,
        centroid_norm=cnorm,
        hypothesis_holds=diam < g.scale(1 + inv_d),
        conclusion_holds=cnorm > g.scale(inv_d * inv_d),
        dim=d,
        power=g.power,
    )


# ---------------------------------------------------------------------------
# Branch and bound for the largest k-collapsing sub-multiset


class _RowIntervals:
    """Which candidates may join the chosen set, in integer row coordinates.

    ``table`` holds each candidate's row coordinates.  Each row is scaled to
    integers by the lcm of its own denominators, which scales its limit 1 to
    that lcm.  A candidate u fits iff, in every row j, u_j plus the top k-1
    chosen values stays <= the limit and u_j plus the bottom k-1 stays >=
    -limit: those are the largest and smallest k-subset sums through u.  The
    test is vacuous while fewer than k-1 members are chosen.
    """

    def __init__(self, table, k):
        self.k = k
        self.limits = [lcm(*(c.denominator for c in col)) for col in zip(*table)]
        self.cols = [[c.numerator * (s // c.denominator) for c in col]
                     for s, col in zip(self.limits, zip(*table))]
        self.chosen = [[] for _ in self.cols]  # each row's chosen values, sorted

    def push(self, c):
        for col, vals in zip(self.cols, self.chosen):
            insort(vals, col[c])

    def pop(self, c):
        for col, vals in zip(self.cols, self.chosen):
            vals.remove(col[c])

    def narrow(self, rest):
        """(the candidates of ``rest`` that fit, the candidate tests made)."""
        tests, r = len(rest), self.k - 1
        if len(self.chosen[0]) >= r:
            for col, vals, lim in zip(self.cols, self.chosen, self.limits):
                hi, lo = lim - sum(vals[len(vals) - r:]), -lim - sum(vals[:r])
                rest = [u for u in rest if lo <= col[u] <= hi]
        return rest, tests


class _SubsetSums:
    """Which candidates may join the chosen set, by the chosen (k-1)-subset
    sums: u fits iff every k-subset sum through u has gauge value <= 1.
    ``sums[j]`` lists the j-subset sums of the chosen set, j < k, and each
    sum a candidate is tested against counts as one test."""

    def __init__(self, vectors, k, value):
        self.vectors, self.k, self.value = vectors, k, value
        self.sums = [[(0,) * len(vectors[0])]] + [[] for _ in range(k - 1)]
        self.saved = []

    def push(self, c):
        v, sums = self.vectors[c], self.sums
        self.saved.append([len(s) for s in sums])
        for j in range(self.k - 1, 0, -1):
            sums[j] += [tuple(a + b for a, b in zip(s, v)) for s in sums[j - 1]]

    def pop(self, c):
        for s, size in zip(self.sums, self.saved.pop()):
            del s[size:]

    def narrow(self, rest):
        """(the candidates of ``rest`` that fit, the candidate tests made)."""
        top, value, vectors = self.sums[-1], self.value, self.vectors
        kept = [u for u in rest
                if all(value([a + b for a, b in zip(s, vectors[u])]) <= 1 for s in top)]
        return kept, len(rest) * max(1, len(top))


def bnb_max_subfamily(candidates: VectorFamily, k: int):
    """Exact maximum k-collapsing sub-multiset by branch and bound.

    Candidates are scanned in descending-norm-then-lexicographic order.
    The search is one depth-first loop with forward checking (Haralick and
    Elliott 1980): each node keeps the list of remaining candidates that
    fit its chosen set, and bounds its subtree by its size plus the length
    of that list.  A candidate that does not fit a node fits none of its
    descendants, so the filtered lists cut the tree without changing the
    order of the nodes that remain, and the first maximum found is the one
    the plain remaining-count bound finds.  For a polyhedral norm the test
    is one interval per row in integer row coordinates (``_RowIntervals``),
    and otherwise it checks the chosen (k-1)-subset sums (``_SubsetSums``).
    Returns (indices into the candidate family, 1-based, in scan order of
    the optimum).  Raises ``PreconditionError`` for k < 1, and once the
    nodes plus the candidate tests exceed ``BNB_MAX_WORK`` (a few seconds
    of work).
    """
    if k < 1:
        raise PreconditionError("k must be at least 1")
    if not candidates.is_exact():
        raise PreconditionError("branch and bound requires exact arithmetic")
    g = candidates.gauge()
    order = sorted(
        range(candidates.m),
        key=lambda i: (-g.value(candidates.vectors[i]), candidates.vectors[i]),
    )
    vectors = [candidates.vectors[i] for i in order]
    if g.row_map is None:
        fits = _SubsetSums(vectors, k, g.value)
    else:
        fits = _RowIntervals([g.row_map(v) for v in vectors], k)
    best: list[int] = []
    stack: list[int] = []
    work = 0

    def extend(cands: list) -> None:
        nonlocal best, work
        if len(stack) > len(best):
            best = stack.copy()
        for i, c in enumerate(cands):
            if len(stack) + len(cands) - i <= len(best):
                break
            stack.append(c)
            fits.push(c)
            rest, tests = fits.narrow(cands[i + 1:])
            work += 1 + tests
            if work > BNB_MAX_WORK:
                raise PreconditionError(
                    f"branch and bound capped at {BNB_MAX_WORK} steps (nodes and candidate "
                    f"tests); {len(vectors)} candidates are too many for k = {k}"
                )
            extend(rest)
            fits.pop(c)
            stack.pop()

    extend(fits.narrow(list(range(len(vectors))))[0])
    return tuple(sorted(order[i] + 1 for i in best))


# ---------------------------------------------------------------------------
# JSON


def family_to_json(family: VectorFamily) -> dict:
    return {
        "space": space_to_json(family.space),
        "vectors": [[format_scalar(c) for c in v] for v in family.vectors],
    }


def family_from_json(desc: dict) -> VectorFamily:
    space = space_from_json(desc["space"])
    vectors = [tuple(parse_scalar(c) for c in v) for v in desc["vectors"]]
    return make_family(space, vectors)
