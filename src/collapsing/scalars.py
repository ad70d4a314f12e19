"""Scalar backends: exact rationals and binary64 floats.

A computation runs in *exact mode* when every scalar involved is an ``int``
or ``fractions.Fraction``; float coordinates switch the computation to
binary64 with the tolerance below.  Mixing the two inside one family or
matrix is rejected up front, so every downstream comparison knows which
regime it is in.
"""

from __future__ import annotations

from fractions import Fraction
from math import isfinite
from typing import Iterable, Union

from .errors import BackendMixError, PreconditionError

Scalar = Union[int, Fraction, float]

# Single float-mode slack knob, shared by spaces, family and matrixform.
TOLERANCE = 1e-9


def unit_limit(exact: bool):
    """The largest value that counts as <= 1."""
    return 1 if exact else 1.0 + TOLERANCE


def unit_floor(exact: bool):
    """The smallest value that counts as >= 1."""
    return 1 if exact else 1.0 - TOLERANCE


# Continued-fraction snap used before exact LPs when inputs are floats.
SNAP_DENOMINATOR = 10**12


def is_exact_scalar(x: Scalar) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def is_exact(values: Iterable[Scalar]) -> bool:
    """True if every scalar is exact; raises on a mixed bag."""
    saw_exact = saw_float = False
    for v in values:
        if is_exact_scalar(v):
            saw_exact = True
        elif isinstance(v, float):
            saw_float = True
        else:
            raise TypeError(f"unsupported scalar {v!r}")
    if saw_exact and saw_float:
        raise BackendMixError("exact rationals and floats mixed in one computation")
    return not saw_float


def vectors_exact(vectors: Iterable[Iterable[Scalar]]) -> bool:
    return is_exact(c for v in vectors for c in v)


def snap_rational(x: Scalar) -> Fraction:
    """Rationalize a scalar; floats are snapped by continued fractions."""
    if is_exact_scalar(x):
        return Fraction(x)
    return Fraction(x).limit_denominator(SNAP_DENOMINATOR)


def _iroot(a: int, n: int) -> int:
    """floor(a ** (1/n)) for an integer a >= 0, by Newton's method from above."""
    if a < 2:
        return a
    x = 1 << -(-a.bit_length() // n)
    while True:
        y = ((n - 1) * x + a // x ** (n - 1)) // n
        if y >= x:
            return x
        x = y


def root_exact(x: Fraction, n: int) -> Fraction | None:
    """Exact n-th root (integer n >= 1) of a nonnegative rational, or None
    if it is irrational."""
    if x < 0:
        raise ValueError("root of a negative rational")
    num, den = x.numerator, x.denominator
    rn, rd = _iroot(num, n), _iroot(den, n)
    if rn**n == num and rd**n == den:
        return Fraction(rn, rd)
    return None


def parse_scalar(s):
    """Parse a JSON scalar: 'p/q' strings are exact, finite numbers stay native.

    A zero denominator, a boolean, NaN, an infinity or any other type raises
    ``PreconditionError``.
    """
    if isinstance(s, str):
        num, _, den = s.partition("/")
        if den and int(den) == 0:
            raise PreconditionError(f"zero denominator in scalar {s!r}")
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    if isinstance(s, int) and not isinstance(s, bool):
        return s
    if isinstance(s, float) and isfinite(s):
        return s
    raise PreconditionError(f"cannot parse scalar {s!r}")


def format_scalar(x: Scalar):
    """JSON form: exact integers as numbers, other rationals as 'p/q'."""
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return int(x)
        return f"{x.numerator}/{x.denominator}"
    return x
