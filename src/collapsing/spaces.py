"""Finite-dimensional normed spaces: norms and dual unit vectors.

Three space kinds are supported:

* ``lp``    -- the p-norms on R^d, 1 <= p <= inf (``math.inf`` for sup norm);
* ``slab``  -- the gauge of an origin-symmetric intersection of slabs
  ``{x : |<y_i, x>| <= 1}``, optionally capped by ``|<e', x>| <= lam``
  (the lifted families and the layered-cube norm are slab spaces);
* ``l1sub`` -- a subspace of an ambient l1 space, vectors given in ambient
  coordinates.

A vector is a plain tuple of scalars of length ``ambient_dim``.
``gauge`` is the one place that reads the space kind: it compiles the norm
into a ``Gauge`` that holds the value every verdict compares (the norm, or
in exact mode the p-th power of an lp norm with integer 1 < p < inf), that
power, the dual unit vector and, for the polyhedral norms (sup and slab),
the map of a vector to its row coordinates.
``norm_eval`` and ``dual_unit_vector`` check their argument
(``check_vector``: the length and, in an l1 subspace, membership) and then
make one call to a gauge.  Dual unit vectors on non-smooth norms use
lowest-index tie-breaking so that all certificates are deterministic; every
downstream matrix bound is valid for any choice of dual unit vector, so the
tie-break is a convention, not a correctness point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .errors import DimensionMismatchError, PreconditionError
from .linalg import dot, rank_exact, rank_float, solve_consistent, transpose
from .scalars import (
    TOLERANCE,
    Scalar,
    format_scalar,
    is_exact,
    parse_scalar,
    root_exact,
)

Vec = tuple


@dataclass(frozen=True)
class NormSpace:
    """Immutable description of a d-dimensional normed space."""

    dim: int
    kind: str  # "lp" | "slab" | "l1sub"
    p: object = None
    functionals: tuple = ()
    cap: tuple | None = None  # (direction, bound)
    ambient: int | None = None
    basis: tuple = ()

    @property
    def ambient_dim(self) -> int:
        return self.ambient if self.kind == "l1sub" else self.dim

    def is_exact(self) -> bool:
        data = []
        if self.kind == "slab":
            data = [c for f in self.functionals for c in f]
            if self.cap:
                data += list(self.cap[0]) + [self.cap[1]]
        elif self.kind == "l1sub":
            data = [c for b in self.basis for c in b]
        return is_exact(data)


def lp_space(dim: int, p) -> NormSpace:
    if dim < 1:
        raise PreconditionError("dimension must be positive")
    if p != math.inf and not 1 <= p:
        raise PreconditionError("p must lie in [1, inf]")
    return NormSpace(dim=dim, kind="lp", p=p)


def linf_space(dim: int) -> NormSpace:
    return lp_space(dim, math.inf)


def slab_space(functionals: Sequence[Sequence[Scalar]], cap=None) -> NormSpace:
    funcs = tuple(tuple(f) for f in functionals)
    if not funcs:
        raise PreconditionError("need at least one slab functional")
    dim = len(funcs[0])
    if any(len(f) != dim for f in funcs):
        raise DimensionMismatchError("slab functionals of unequal length")
    rows = list(funcs)
    if cap is not None:
        direction, bound = tuple(cap[0]), cap[1]
        if len(direction) != dim:
            raise DimensionMismatchError("cap direction has wrong length")
        if bound <= 0:
            raise PreconditionError("cap bound must be positive")
        cap = (direction, bound)
        rows = rows + [direction]
    exact = is_exact(c for r in rows for c in r)
    r = rank_exact(rows) if exact else rank_float(rows)
    if r < dim:
        raise PreconditionError(
            "slab functionals (plus cap) do not span the space; the ball would be unbounded"
        )
    return NormSpace(dim=dim, kind="slab", functionals=funcs, cap=cap)


def l1_subspace(ambient: int, basis: Sequence[Sequence[Scalar]]) -> NormSpace:
    bas = tuple(tuple(b) for b in basis)
    if any(len(b) != ambient for b in bas):
        raise DimensionMismatchError("basis vectors must have ambient length")
    exact = is_exact(c for b in bas for c in b)
    r = rank_exact(bas) if exact else rank_float(bas)
    if r != len(bas):
        raise PreconditionError("l1-subspace basis is linearly dependent")
    return NormSpace(dim=len(bas), kind="l1sub", ambient=ambient, basis=bas)


def _slab_rows(space: NormSpace):
    """Functionals normalised so the ball is {x : |<f,x>| <= 1} for each f."""
    rows = list(space.functionals)
    if space.cap is not None:
        direction, bound = space.cap
        rows.append(tuple(Fraction(c) / Fraction(bound) if is_exact([c, bound]) else c / bound
                          for c in direction))
    return rows


def check_vector(space: NormSpace, x: Sequence[Scalar]) -> None:
    """Raise unless ``x`` is a vector of ``space``: of ambient length and,
    in an l1 subspace, inside the subspace (an exact solve, or a float
    least-squares residual within ``TOLERANCE``)."""
    if len(x) != space.ambient_dim:
        raise DimensionMismatchError(
            f"vector length {len(x)} != ambient dimension {space.ambient_dim}"
        )
    if space.kind != "l1sub":
        return
    cols = transpose(space.basis)
    if is_exact(x) and space.is_exact():
        if solve_consistent(cols, list(x)) is None:
            raise PreconditionError("vector lies outside the l1 subspace")
    else:
        import numpy as np

        a = np.asarray(cols, dtype=float)
        xv = np.asarray(x, dtype=float)
        sol, *_ = np.linalg.lstsq(a, xv, rcond=None)
        if np.linalg.norm(a @ sol - xv) > TOLERANCE * (1.0 + np.linalg.norm(xv)):
            raise PreconditionError("vector lies outside the l1 subspace (float tolerance)")


def _polyhedral_dual(vals, rows):
    """The dual unit vector from the inner products ``vals`` of x with the
    ball's rows: the lowest row of largest |<f, x>|, signed like <f, x>.
    ``rows`` None stands for the coordinate rows of the sup norm."""
    j = max(range(len(vals)), key=lambda i: abs(vals[i]))
    if vals[j] == 0:
        raise PreconditionError("the zero vector has no dual unit vector")
    sign = 1 if vals[j] > 0 else -1
    row = rows[j] if rows else [int(i == j) for i in range(len(vals))]
    return tuple(sign * c for c in row)


def _sign_dual(x):
    """The l1 dual unit vector: the signs of the coordinates."""
    if all(c == 0 for c in x):
        raise PreconditionError("the zero vector has no dual unit vector")
    return tuple((c > 0) - (c < 0) for c in x)


@dataclass(frozen=True)
class Gauge:
    """The norm of ``space`` compiled once by ``gauge``.

    ``value`` maps a vector to what every verdict compares with a
    threshold: the norm, or its ``power``-th power.  ``dual`` maps a nonzero
    vector x to a functional f with ||f||* = 1 and <f, x> = ||x||.  Neither
    checks its argument.  ``row_map`` maps a vector x of a polyhedral
    ball {x : |<f, x>| <= 1 for every row f} to its row coordinates
    (<f, x>)_f, so that ||x|| is their largest |entry|: the pairings with
    the slab rows (cap included) in a slab space, the coordinates
    themselves for the sup norm.  It is None for the norms that do not
    split into rows (l1, l1 subspaces and lp with p < inf).
    """

    space: NormSpace
    exact: bool
    value: Callable
    power: int | None
    dual: Callable
    row_map: Callable | None

    def scale(self, threshold):
        """A norm threshold on the scale of ``value``: itself, or its power.

        A threshold <= 0 stays as it is; no value is negative, so the
        comparison comes out the same.
        """
        return threshold ** self.power if self.power is not None and threshold > 0 else threshold


def gauge(space: NormSpace, exact: bool = False) -> Gauge:
    """Compile the norm of ``space``: ``space.kind`` and ``space.p`` are read
    here, once, for the value, its power and the dual.

    In exact mode an lp norm with an integer 1 < p < inf is irrational in
    general, so ``value`` is the exact p-th power sum |c|^p with ``power``
    p, and a non-integer p raises ``PreconditionError``.  Otherwise
    ``value`` is the norm; an lp norm with an integer p is exact when the
    data and the root are rational, and a float root otherwise.  The dual
    does not depend on ``exact``.  Slab rows (cap included) are built once
    for ``row_map``, and the polyhedral duals (slab and sup) read the
    lowest attaining row from the one pass of inner products that gives the
    norm.  For an exact vector in an lp space with 1 < p < inf the dual is
    exact when p is an integer and the norm is rational, and raises
    ``PreconditionError`` otherwise.
    """
    power = row_map = None
    if space.kind == "slab":
        rows = _slab_rows(space)
        row_map = lambda x: tuple(dot(f, x) for f in rows)
        value = lambda x: max(abs(dot(f, x)) for f in rows)
        dual = lambda x: _polyhedral_dual([dot(f, x) for f in rows], rows)
    elif space.kind == "l1sub" or space.p == 1:
        value, dual = (lambda x: sum(abs(c) for c in x)), _sign_dual
    elif space.kind != "lp":
        raise ValueError(f"unknown space kind {space.kind}")
    elif space.p == math.inf:
        row_map = tuple
        value = lambda x: max((abs(c) for c in x), default=0)
        dual = lambda x: _polyhedral_dual(x, None)
    else:
        p = space.p
        integral = p == int(p)
        if exact and not integral:
            raise PreconditionError(
                f"exact mode needs an integer p in an lp space, got p = {format_scalar(p)}"
            )
        n = int(p) if integral else p  # an int exponent keeps rational data exact
        power_sum = (lambda x: sum(c * c for c in x)) if n == 2 else (
            lambda x: sum(abs(c) ** n for c in x))

        def norm(x):
            total = power_sum(x)
            if integral and is_exact(x):
                root = root_exact(Fraction(total), n)
                if root is not None:
                    return root
            return math.sqrt(total) if n == 2 else total ** (1 / n)

        value, power = (power_sum, n) if exact else (norm, None)

        def dual(x):
            nrm = norm(x)
            if nrm == 0:
                raise PreconditionError("the zero vector has no dual unit vector")
            if isinstance(nrm, float) and is_exact(x):
                coords = ", ".join(str(format_scalar(c)) for c in x)
                raise PreconditionError(
                    f"an exact dual unit vector of ({coords}) in l{format_scalar(p)} needs an "
                    "integer p and a rational norm; float coordinates give a float pairing matrix"
                )
            if n == 2:
                return tuple(c / nrm for c in x)
            return tuple(((c > 0) - (c < 0)) * abs(c) ** (n - 1) / nrm ** (n - 1) for c in x)

    return Gauge(space, exact, value, power, dual, row_map)


def norm_eval(space: NormSpace, x: Sequence[Scalar]) -> Scalar:
    """The norm of ``x`` after ``check_vector``; exact when the data is rational.

    Each call checks its argument and compiles the norm, and in an l1
    subspace the check is a solve: code that evaluates many sums of checked
    vectors builds ``gauge`` once instead.
    """
    check_vector(space, x)
    return gauge(space).value(x)


def dual_unit_vector(space: NormSpace, x: Sequence[Scalar]) -> Vec:
    """A functional f with ||f||* = 1 and <f, x> = ||x||, after ``check_vector``.

    Non-smooth norms break ties at the lowest attaining index.  For an
    exact ``x`` in an lp space with 1 < p < inf, f is exact when p is an
    integer and ||x|| is rational; otherwise f would be a float, so this
    raises ``PreconditionError``, as it does for the zero vector.
    """
    check_vector(space, x)
    return gauge(space).dual(x)


# ---------------------------------------------------------------------------
# JSON descriptors


def space_to_json(space: NormSpace) -> dict:
    if space.kind == "lp":
        if space.p == math.inf:
            return {"dim": space.dim, "kind": "linf"}
        return {"dim": space.dim, "kind": "lp", "p": format_scalar(space.p)}
    if space.kind == "slab":
        out = {
            "dim": space.dim,
            "kind": "slab",
            "functionals": [[format_scalar(c) for c in f] for f in space.functionals],
        }
        if space.cap is not None:
            out["cap"] = {
                "direction": [format_scalar(c) for c in space.cap[0]],
                "bound": format_scalar(space.cap[1]),
            }
        return out
    if space.kind == "l1sub":
        return {
            "dim": space.dim,
            "kind": "l1sub",
            "ambient": space.ambient,
            "basis": [[format_scalar(c) for c in b] for b in space.basis],
        }
    raise ValueError(space.kind)


def space_from_json(desc: dict) -> NormSpace:
    kind = desc["kind"]
    if kind == "linf":
        return linf_space(desc["dim"])
    if kind == "lp":
        p = desc.get("p", 2)
        if p in ("inf", "infinity"):
            p = math.inf
        else:
            p = parse_scalar(p)
        return lp_space(desc["dim"], p)
    if kind == "slab":
        cap = None
        if "cap" in desc and desc["cap"] is not None:
            cap = (
                tuple(parse_scalar(c) for c in desc["cap"]["direction"]),
                parse_scalar(desc["cap"]["bound"]),
            )
        return slab_space(
            [[parse_scalar(c) for c in f] for f in desc["functionals"]], cap=cap
        )
    if kind == "l1sub":
        return l1_subspace(
            desc["ambient"], [[parse_scalar(c) for c in b] for b in desc["basis"]]
        )
    raise ValueError(f"unknown space kind {kind!r}")
