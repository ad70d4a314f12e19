"""Subset streams for the subset-sum scans: revolving door and seeded samples.

The revolving-door order (Nijenhuis and Wilf, *Combinatorial Algorithms*)
visits all k-subsets of [n] so that consecutive subsets differ by exactly
one element swapped in and one swapped out; a running vector sum then needs
one addition and one subtraction per step.
"""

from __future__ import annotations

import random
from typing import Iterator


def revolving_door(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """All k-subsets of range(n), consecutive ones differing by one swap."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")

    def gen(n: int, k: int, forward: bool) -> Iterator[tuple[int, ...]]:
        if k == 0:
            yield ()
            return
        if k == n:
            yield tuple(range(n))
            return
        if forward:
            yield from gen(n - 1, k, True)
            for s in gen(n - 1, k - 1, False):
                yield s + (n - 1,)
        else:
            for s in gen(n - 1, k - 1, True):
                yield s + (n - 1,)
            yield from gen(n - 1, k, False)

    return gen(n, k, True)


def sample_subsets(n: int, k: int, count: int, seed: int) -> Iterator[tuple[int, ...]]:
    """``count`` independent uniform k-subsets from a seeded generator."""
    rng = random.Random(seed)
    for _ in range(count):
        yield tuple(sorted(rng.sample(range(n), k)))
