"""Arithmetic in GF(q) for prime powers q, via a polynomial basis.

Elements are encoded as integers 0..q-1 whose base-p digits are the
coefficients of the representative polynomial.  The modulus is the
lexicographically smallest monic irreducible of the right degree, found by
a deterministic search and verified by trial division, so there is no
transcription risk; results are cached per q.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

from .errors import PreconditionError


def is_prime_power(q: int) -> tuple[int, int] | None:
    """(p, e) with q = p^e for prime p, else None."""
    if q < 2:
        return None
    n = q
    p = None
    for f in range(2, isqrt(q) + 1):
        if n % f == 0:
            p = f
            break
    if p is None:
        return (q, 1)
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return (p, e) if n == 1 else None


def _poly_mul_mod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    """Product of coefficient lists (low degree first) reduced mod (mod, p)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    deg_mod = len(mod) - 1
    # mod is monic: repeatedly cancel the leading coefficient
    for i in range(len(out) - 1, deg_mod - 1, -1):
        c = out[i]
        if c:
            for j in range(deg_mod + 1):
                out[i - deg_mod + j] = (out[i - deg_mod + j] - c * mod[j]) % p
    out = out[:deg_mod]
    return out + [0] * (deg_mod - len(out))


def _poly_divides(d: list[int], f: list[int], p: int) -> bool:
    """Does monic d divide f over F_p?"""
    rem = list(f)
    while len(rem) >= len(d):
        c = rem[-1]
        if c == 0:
            rem.pop()
            continue
        shift = len(rem) - len(d)
        for j in range(len(d)):
            rem[shift + j] = (rem[shift + j] - c * d[j]) % p
        rem.pop()
    return all(c == 0 for c in rem)


def _is_irreducible(f: list[int], p: int) -> bool:
    deg = len(f) - 1
    if f[0] == 0:  # divisible by x
        return deg == 1
    for ddeg in range(1, deg // 2 + 1):
        for code in range(p**ddeg):
            d = []
            c = code
            for _ in range(ddeg):
                d.append(c % p)
                c //= p
            d.append(1)  # monic
            if _poly_divides(d, f, p):
                return False
    return True


@lru_cache(maxsize=None)
def irreducible_poly(p: int, e: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree e over F_p (low degree first)."""
    if e == 1:
        return (0, 1)
    for code in range(p**e):
        f = []
        c = code
        for _ in range(e):
            f.append(c % p)
            c //= p
        f.append(1)
        if _is_irreducible(f, p):
            return tuple(f)
    raise PreconditionError(f"no irreducible of degree {e} over F_{p}")  # unreachable


class PrimePowerField:
    """GF(p^e) with elements 0..q-1 encoded by base-p digit vectors."""

    def __init__(self, q: int):
        pe = is_prime_power(q)
        if pe is None:
            raise PreconditionError(f"{q} is not a prime power")
        self.q = q
        self.p, self.e = pe
        self.modulus = list(irreducible_poly(self.p, self.e)) if self.e > 1 else None

    def elements(self) -> range:
        return range(self.q)

    def _decode(self, a: int) -> list[int]:
        digits = []
        for _ in range(self.e):
            digits.append(a % self.p)
            a //= self.p
        return digits

    def _encode(self, digits: list[int]) -> int:
        out = 0
        for d in reversed(digits):
            out = out * self.p + d
        return out

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        da, db = self._decode(a), self._decode(b)
        return self._encode([(x + y) % self.p for x, y in zip(da, db)])

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        da, db = self._decode(a), self._decode(b)
        return self._encode(_poly_mul_mod(da, db, self.modulus, self.p))

    def poly_eval(self, coeffs: list[int], x: int) -> int:
        """Evaluate sum coeffs[i] x^i (coefficients are field elements)."""
        acc = 0
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, x), c)
        return acc
