"""Wall time rescaled to a fixed host speed.

On a shared 2-vCPU VM the same code runs at one of two speeds about 1.8x
apart, switching every few seconds, and the share of slow time changes
from minute to minute; CPU time follows wall time, so it does not help.
``timed`` therefore samples the host's speed while it times a region,
with a probe: a fixed exact-rational elimination that runs no
``collapsing`` code.  A change to the program moves the rescaled time as
it moves wall time, since the probe runs none of it; a change in the
host's speed does not.

Nothing here imports ``collapsing`` or numpy, so a fresh interpreter can
use it to time its own ``import collapsing``.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from fractions import Fraction

PROBE_N = 5  # size of the rational elimination one probe runs
PROBE_REPS = 7  # probes before and after each timed region; their median counts
TICK_CPU_S = 0.05  # CPU time between probes inside a timed region
REF_PROBE_S = 0.0006  # one probe's time on a 2-vCPU Xeon VM in its fast state


def probe_once() -> float:
    """Time a fixed exact-rational elimination."""
    t0 = time.perf_counter()
    rng = random.Random(7)
    n = PROBE_N
    a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        pivot = next(r for r in range(i, n) if a[r][i] != 0)
        a[i], a[pivot] = a[pivot], a[i]
        for r in range(i + 1, n):
            f = a[r][i] / a[i][i]
            a[r] = [x - f * y for x, y in zip(a[r], a[i])]
    sum(x * y for r in a for s in a for x, y in zip(r, s))
    return time.perf_counter() - t0


def timed(fn):
    """Run fn() while sampling the host's speed.

    Returns (fn's result, raw wall s, wall s at the reference speed, number
    of probes).  A median of PROBE_REPS probes is taken before and after,
    and a SIGPROF timer runs one probe per TICK_CPU_S of CPU time inside
    fn (the timer is not inherited by forked workers); the in-region
    probes' own time is taken out of the wall time.  A probe p measures
    the work the host does per unit of time as REF_PROBE_S / p, so the
    time at the reference speed is the wall time times their mean: the
    wall time the region would take on a host where a probe takes
    REF_PROBE_S."""
    inside = []

    def on_tick(signum, frame):
        inside.append(probe_once())

    before = statistics.median(probe_once() for _ in range(PROBE_REPS))
    previous = signal.signal(signal.SIGPROF, on_tick)
    signal.setitimer(signal.ITIMER_PROF, TICK_CPU_S, TICK_CPU_S)
    t0 = time.perf_counter()
    try:
        result = fn()
        wall = time.perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)
    wall -= sum(inside)
    after = statistics.median(probe_once() for _ in range(PROBE_REPS))
    probes = [before, *inside, after]
    return result, wall, wall * statistics.fmean(REF_PROBE_S / p for p in probes), len(probes)
