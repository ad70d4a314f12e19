"""Upper and lower bounds for the extremal sizes of collapsing families.

``C(k, d)`` below always refers to the largest size of a k-collapsing
family of norm->=1 vectors over all d-dimensional normed spaces, and
``CB(k, d)`` to the balanced variant.  Each bound function returns a
``BoundResult`` carrying the raw real value, the integer form used for
aggregation (floor for upper bounds, ceiling for lower bounds -- the
quantities themselves are integers), and an applicability flag.

Asymptotic statements with unspecified constants are never evaluated to
finite numbers: they surface as predicate-only results flagged
``asymptotic`` and are firewalled from ``best_bounds`` aggregation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt

from .errors import InvariantError, PreconditionError
from .gf import is_prime_power
from .scalars import Scalar

E = math.e


@dataclass(frozen=True)
class BoundResult:
    name: str
    kind: str  # "upper" | "lower" | "exact"
    quantity: str  # "C" | "CB" | "C(X)"
    applicable: bool
    value: float | None = None
    value_int: int | None = None
    note: str = ""
    asymptotic: bool = False

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "quantity": self.quantity,
            "applicable": self.applicable,
            "value": "asymptotic-only" if self.asymptotic and self.applicable else self.value,
            "value_int": self.value_int,
            "note": self.note,
        }


def _not_applicable(name: str, kind: str, quantity: str, note: str = "") -> BoundResult:
    return BoundResult(name=name, kind=kind, quantity=quantity, applicable=False, note=note)


def _shown(x) -> float | None:
    """``x`` as the float shown next to an exact value, or None past the
    binary64 range."""
    try:
        return float(x)
    except OverflowError:
        return None


def _check_kd(k: int, d: int) -> None:
    if k < 2 or d < 2:
        raise PreconditionError("need k >= 2 and d >= 2")


# ---------------------------------------------------------------------------
# The growth exponent gamma_k


@dataclass(frozen=True)
class GammaValue:
    k: int
    gamma: float
    bracket: tuple  # (e/k^2, e/(k^2 - e)), gamma strictly inside


def _gamma_f(x: float) -> float:
    return (1.0 + x) ** (1.0 / x) * (1.0 + 1.0 / x)


_GAMMA_CACHE: dict[int, GammaValue] = {}


def gamma_k(k: int) -> GammaValue:
    """Unique positive root of (1+x)^(1/x) (1 + 1/x) = k^2.

    The function is strictly decreasing on the bracket (e/k^2, e/(k^2-e)),
    so plain bisection converges; we bisect to machine resolution, which is
    far below the 1e-12 interval requirement.
    """
    if k < 2:
        raise PreconditionError("need k >= 2")
    cached = _GAMMA_CACHE.get(k)
    if cached is not None:
        return cached
    target = float(k * k)
    lo = E / (k * k)
    hi = E / (k * k - E)
    if not (_gamma_f(lo) > target > _gamma_f(hi)):
        raise InvariantError(f"bracket failed for k={k}")
    while True:
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        if _gamma_f(mid) > target:
            lo = mid
        else:
            hi = mid
    value = GammaValue(k=k, gamma=0.5 * (lo + hi), bracket=(E / (k * k), E / (k * k - E)))
    _GAMMA_CACHE[k] = value
    return value


# ---------------------------------------------------------------------------
# Upper bounds


def ub_balanced(k: int, d: int) -> BoundResult:
    """CB(k, d) = max(k+1, 2d), exactly, for all k, d >= 2."""
    _check_kd(k, d)
    v = max(k + 1, 2 * d)
    return BoundResult(
        name="balanced-exact", kind="exact", quantity="CB",
        applicable=True, value=float(v), value_int=v,
    )


def ub_rank_power(k: int, d: int) -> BoundResult:
    """C(k, d) < 1.33 k^(2 gamma_k d + 2); refined by k/sqrt(d) when k < sqrt(d).

    The bound is evaluated in binary64.  Past its range the float cannot
    give the floor, so the bound is reported as not applicable.
    """
    _check_kd(k, d)
    g = gamma_k(k).gamma
    try:
        power = float(k) ** (2.0 * g * d + 2.0)
    except OverflowError:
        power = math.inf
    if k * k < d:
        value = k / math.sqrt(d) * power
        note = "refined branch k < sqrt(d)"
    else:
        value = 1.33 * power
        note = ""
    if math.isinf(value):
        return _not_applicable(
            "rank-power", "upper", "C", note="k^(2 gamma_k d + 2) exceeds binary64"
        )
    return BoundResult(
        name="rank-power", kind="upper", quantity="C",
        applicable=True, value=value, value_int=math.floor(value), note=note,
    )


def ub_rank_sharp(k: int, d: int) -> BoundResult:
    """Sharp mid-range rank bounds; case selection in exact integer arithmetic.

    (1) sqrt(d) < k <= (d+1)/2:  C <= 2d (k-1)^2 / (k^2 - d);
    (2) -2d + sqrt(6d^2+3d+1) <= k <= 2d - sqrt(d/2):  C = 2d exactly;
    (3) d >= 3, k > 2d - sqrt(d/2):  C <= k + (1 + sqrt(2d-3)) / 2.
    """
    _check_kd(k, d)
    if k < 3:
        return _not_applicable("rank-sharp", "upper", "C", note="needs k >= 3")
    in_case2 = (k + 2 * d) ** 2 >= 6 * d * d + 3 * d + 1 and (
        2 * d - k >= 0 and 2 * (2 * d - k) ** 2 >= d
    )
    if in_case2:
        return BoundResult(
            name="rank-sharp", kind="exact", quantity="C",
            applicable=True, value=float(2 * d), value_int=2 * d, note="middle range",
        )
    if k * k > d and 2 * k <= d + 1:
        exact_val = Fraction(2 * d * (k - 1) ** 2, k * k - d)
        return BoundResult(
            name="rank-sharp", kind="upper", quantity="C",
            applicable=True, value=float(exact_val), value_int=math.floor(exact_val),
            note="quadratic range",
        )
    beyond_case2 = 2 * d - k < 0 or 2 * (2 * d - k) ** 2 < d
    if d >= 3 and beyond_case2:
        root = isqrt(2 * d - 3)
        if root * root == 2 * d - 3:
            exact_val = Fraction(2 * k + 1 + root, 2)
            return BoundResult(
                name="rank-sharp", kind="upper", quantity="C",
                applicable=True, value=float(exact_val), value_int=math.floor(exact_val),
                note="large k range",
            )
        value = k + (1.0 + math.sqrt(2 * d - 3)) / 2.0
        return BoundResult(
            name="rank-sharp", kind="upper", quantity="C",
            applicable=True, value=value, value_int=math.floor(value), note="large k range",
        )
    return _not_applicable("rank-sharp", "upper", "C", note="no case applies")


_SMALLDIM_TAILS = {6: (range(3, 11), 17), 7: (range(3, 13), 41)}


def ub_smalldim(k: int, d: int) -> BoundResult:
    """Exact values C(k, d) = max(k+1, 2d) in low dimensions, plus the
    single finite upper bound 9 known for (k, d) = (2, 3)."""
    _check_kd(k, d)
    exact = False
    if d == 2:
        exact = True
    elif d in (3, 4, 5):
        exact = k >= 3
    elif d in _SMALLDIM_TAILS:
        window, tail = _SMALLDIM_TAILS[d]
        exact = k in window or k >= tail
    if exact:
        v = max(k + 1, 2 * d)
        return BoundResult(
            name="smalldim-exact", kind="exact", quantity="C",
            applicable=True, value=float(v), value_int=v,
        )
    if (k, d) == (2, 3):
        return BoundResult(
            name="smalldim-exact", kind="upper", quantity="C",
            applicable=True, value=9.0, value_int=9, note="upper bound only",
        )
    return _not_applicable("smalldim-exact", "exact", "C", note="outside the known case list")


def ub_volume_coloring(k: int, d: int) -> BoundResult:
    """C(k, d) <= k (1 + 2/k)^d + k - 1; rational, floored exactly.  The
    float ``value`` is None past the binary64 range."""
    _check_kd(k, d)
    exact_val = Fraction((k + 2) ** d, k ** (d - 1)) + (k - 1)
    return BoundResult(
        name="volume-coloring", kind="upper", quantity="C",
        applicable=True, value=_shown(exact_val), value_int=math.floor(exact_val),
    )


def ub_near_euclidean(k: int, dist=None, dist_sq=None) -> BoundResult:
    """Per-space bound from the multiplicative distance D to Euclidean space:
    C_k(X) <= (k^2 - D^2)/(k - D^2) for k > D^2, and exactly k+1 when
    D^2 <= (2k-1)/(k+1)."""
    if k < 2:
        raise PreconditionError("need k >= 2")
    if dist_sq is None:
        if dist is None:
            raise PreconditionError("provide the distance or its square")
        if dist < 1:
            raise PreconditionError("distance is at least 1")
        dist_sq = dist * dist
    if isinstance(dist_sq, float):
        d2 = dist_sq
    else:
        d2 = Fraction(dist_sq)
    if d2 < 1:
        raise PreconditionError("squared distance is at least 1")
    if not k > d2:
        return _not_applicable("near-euclidean", "upper", "C(X)", note="needs k > D^2")
    if d2 <= Fraction(2 * k - 1, k + 1):
        return BoundResult(
            name="near-euclidean", kind="exact", quantity="C(X)",
            applicable=True, value=float(k + 1), value_int=k + 1,
            note="threshold case: equals k+1",
        )
    val = (k * k - d2) / (k - d2)
    return BoundResult(
        name="near-euclidean", kind="upper", quantity="C(X)",
        applicable=True, value=float(val), value_int=math.floor(val),
    )


def ub_euclidean(k: int, lam=None, lam_sq=None) -> BoundResult:
    """Inner-product space bound: norms >= 1 and k-subset sums of norm <= lam
    force m <= (k^2 - lam^2)/(k - lam^2); needs 0 < lam < sqrt(k)."""
    if k < 2:
        raise PreconditionError("need k >= 2")
    if lam_sq is None:
        if lam is None:
            raise PreconditionError("provide lambda or its square")
        lam_sq = lam * lam
    l2 = lam_sq if isinstance(lam_sq, float) else Fraction(lam_sq)
    if not 0 < l2 < k:
        raise PreconditionError("need 0 < lambda < sqrt(k)")
    val = (k * k - l2) / (k - l2)
    return BoundResult(
        name="euclidean-lambda", kind="upper", quantity="C(X)",
        applicable=True, value=float(val), value_int=math.floor(val),
    )


def ub_hadamard(k: int, d: int, p: int) -> BoundResult:
    """Entrywise-power rank route: for k^(2p) > C(d+p-1, p),
    C(k, d) < max(2 k^(2p) B / (k^(2p) - B), 2k - 1) with B = C(d+p-1, p)."""
    _check_kd(k, d)
    if p < 1:
        raise PreconditionError("need p >= 1")
    b = comb(d + p - 1, p)
    if k ** (2 * p) <= b:
        return _not_applicable(
            "hadamard", "upper", "C", note=f"needs k^(2p) > C(d+p-1,p) = {b}"
        )
    val = max(Fraction(2 * k ** (2 * p) * b, k ** (2 * p) - b), Fraction(2 * k - 1))
    # strict inequality: a value exactly attained still excludes that size
    floor_val = math.floor(val) if val != math.floor(val) else int(val) - 1
    return BoundResult(
        name="hadamard", kind="upper", quantity="C",
        applicable=True, value=_shown(val), value_int=floor_val, note=f"p={p}",
    )


def ub_hadamard_best(k: int, d: int, p_max: int = 10) -> BoundResult:
    """Convenience sweep of the entrywise-power bound over p."""
    best = None
    for p in range(1, p_max + 1):
        r = ub_hadamard(k, d, p)
        if r.applicable and (best is None or r.value_int < best.value_int):
            best = r
    return best if best is not None else _not_applicable(
        "hadamard", "upper", "C", note=f"no p in [1, {p_max}] applicable"
    )


def binom_stirling_upper(n: int, k: int) -> float:
    """Strict upper bound for C(n, k) from the two-sided Stirling estimate."""
    if not 1 <= k < n:
        raise PreconditionError("need 1 <= k < n")
    eps = k / n
    return (eps ** (-eps) * (1 - eps) ** (-(1 - eps))) ** n / math.sqrt(
        2 * math.pi * eps * (1 - eps) * n
    )


# ---------------------------------------------------------------------------
# Lower bounds


def lb_trivial(k: int, d: int) -> BoundResult:
    """max(k+1, 2d) vectors always exist (simplex directions; the cross
    family); valid for both quantities."""
    _check_kd(k, d)
    v = max(k + 1, 2 * d)
    return BoundResult(
        name="trivial", kind="lower", quantity="CB",
        applicable=True, value=float(v), value_int=v, note="also lower-bounds C",
    )


def lb_greedy(k: int, d: int) -> BoundResult:
    """(1 + 1/(2(2k+1)^2))^d from the greedy almost-orthogonal construction.

    The construction only kicks in for sufficiently large d (depending on
    k), so the result is flagged and kept out of best_bounds aggregation.
    """
    _check_kd(k, d)
    try:
        val = (1.0 + 1.0 / (2.0 * (2 * k + 1) ** 2)) ** d
    except OverflowError:
        return _not_applicable(
            "greedy-spherical", "lower", "C", note="(1 + 1/(2(2k+1)^2))^d exceeds binary64"
        )
    return BoundResult(
        name="greedy-spherical", kind="lower", quantity="C",
        applicable=True, value=val, value_int=math.floor(val),
        note="requires sufficiently large d", asymptotic=True,
    )


def largest_prime_power(d: int) -> int | None:
    """Largest prime power q with q^2 - q + 1 <= d."""
    q = isqrt(d) + 1
    while q >= 2:
        if q * q - q + 1 <= d and is_prime_power(q) is not None:
            return q
        q -= 1
    return None


def lb_polynomial(k: int, d: int) -> BoundResult:
    """q^(c+2) from the polynomial-evaluation code over F_q, q the largest
    prime power with q^2 - q + 1 <= d, maximised over feasible degrees c
    (c <= q-2 and k <= (q-1)/(2c) - 1/2)."""
    _check_kd(k, d)
    q = largest_prime_power(d)
    if q is None:
        return _not_applicable("polynomial-codes", "lower", "C", note="no prime power fits")
    c = min(q - 2, (q - 1) // (2 * k + 1))
    if c < 1:
        return _not_applicable(
            "polynomial-codes", "lower", "C", note=f"no feasible degree for q={q}"
        )
    v = q ** (c + 2)
    return BoundResult(
        name="polynomial-codes", kind="lower", quantity="C",
        applicable=True, value=_shown(v), value_int=v, note=f"q={q}, c={c}",
    )


# ---------------------------------------------------------------------------
# Asymptotic predicates (never aggregated)


def ub_asymptotic(k: int, d: int) -> list[BoundResult]:
    """Predicate-only statements whose constants the source leaves implicit."""
    _check_kd(k, d)
    return [
        BoundResult(
            name="asymptotic-large-k", kind="exact", quantity="C", applicable=True,
            asymptotic=True,
            note="k >> d^(d+2) forces C(k,d) = k+1; the threshold constant is unspecified",
        ),
        BoundResult(
            name="asymptotic-sqrtd", kind="upper", quantity="C", applicable=True,
            asymptotic=True,
            note=(
                "for p >= 2 and ((p!)^(-1/(2p)) + eps) sqrt(d) < k <= sqrt(d), "
                "C(k,d) = O(d^p) with unspecified d_0 and constant"
            ),
        ),
    ]


# ---------------------------------------------------------------------------
# Aggregation


@dataclass(frozen=True)
class BestBounds:
    k: int
    d: int
    best_lower: int
    best_upper: int
    exact: int | None
    lower_results: tuple
    upper_results: tuple
    flagged: tuple  # asymptotic / flagged results, reported but not aggregated

    def to_json(self) -> dict:
        out = {
            "k": self.k,
            "d": self.d,
            "best_lower": self.best_lower,
            "best_upper": self.best_upper,
        }
        if self.exact is not None:
            out["exact"] = self.exact
        return out


def best_bounds(k: int, d: int) -> BestBounds:
    """Aggregate all applicable finite bounds on C(k, d)."""
    _check_kd(k, d)
    lowers = [lb_trivial(k, d), lb_polynomial(k, d)]
    uppers = [
        ub_rank_power(k, d),
        ub_rank_sharp(k, d),
        ub_smalldim(k, d),
        ub_volume_coloring(k, d),
        ub_hadamard_best(k, d),
    ]
    flagged = [lb_greedy(k, d)] + ub_asymptotic(k, d)
    lo = max(r.value_int for r in lowers if r.applicable)
    hi = min(r.value_int for r in uppers if r.applicable)
    exact_values = {
        r.value_int for r in uppers if r.applicable and r.kind == "exact"
    }
    if len(exact_values) > 1:
        raise InvariantError(f"conflicting exact values at (k={k}, d={d}): {exact_values}")
    exact = exact_values.pop() if exact_values else None
    if exact is None and lo == hi:
        exact = lo
    if lo > hi:
        raise InvariantError(f"lower bound {lo} exceeds upper bound {hi} at (k={k}, d={d})")
    if exact is not None and not lo <= exact <= hi:
        raise InvariantError(f"exact value {exact} outside [{lo}, {hi}] at (k={k}, d={d})")
    return BestBounds(
        k=k, d=d, best_lower=lo, best_upper=hi, exact=exact,
        lower_results=tuple(lowers), upper_results=tuple(uppers), flagged=tuple(flagged),
    )


# ---------------------------------------------------------------------------
# The comparison table


def _ceil_decimals(x: float, places: int) -> float:
    scaled = x * 10**places
    nearest = round(scaled)
    if abs(scaled - nearest) < 1e-6:  # absorb binary64 noise on exact boundaries
        scaled = nearest
    return math.ceil(scaled) / 10**places


def _floor_decimals(x: float, places: int) -> float:
    scaled = x * 10**places
    nearest = round(scaled)
    if abs(scaled - nearest) < 1e-6:
        scaled = nearest
    return math.floor(scaled) / 10**places


@dataclass(frozen=True)
class TableRow:
    k: int
    gamma: float          # root, rounded to 7 decimals
    rank_power_base: float  # k^(2 gamma_k), rounded up to 3 decimals
    coloring_base: float    # 1 + 2/k, rounded up to 3 decimals
    greedy_base: float      # 1 + 1/(2(2k+1)^2), rounded down to 4 decimals


def table1(k_min: int = 2, k_max: int = 9) -> list[TableRow]:
    """Per-k comparison of the exponential bound bases, with the rounding
    conventions used for display: bases of upper bounds round up, the lower
    bound base rounds down."""
    rows = []
    for k in range(k_min, k_max + 1):
        g = gamma_k(k).gamma
        rows.append(
            TableRow(
                k=k,
                gamma=round(g, 7),
                rank_power_base=_ceil_decimals(float(k) ** (2.0 * g), 3),
                coloring_base=_ceil_decimals(1.0 + 2.0 / k, 3),
                greedy_base=_floor_decimals(1.0 + 1.0 / (2.0 * (2 * k + 1) ** 2), 4),
            )
        )
    return rows
