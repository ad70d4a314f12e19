"""The benchmark workloads: which CLI jobs a pass runs, and on what inputs.

A pass builds fresh inputs from (seed, pass index, slot) and returns its
jobs.  Every job is one ``collapsing`` CLI argv plus a check that compares
the job's exit code and stdout with ``reference``.  Inputs vary between
passes and seeds only in ways that leave the work the same: families are
re-drawn from the same generator with the same sizes, constructed families
are re-ordered, and oracle jobs change the exponent p, which only changes
the objective evaluated at each vertex.  So no two jobs of a run are
identical (nothing can be answered from a cache), yet every pass costs
about the same.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import reference as ref

LIFT_Q, LIFT_S, LIFT_K = 7, 1, 2
SEARCH_PAIRS = ((4, 2), (3, 5), (3, 4))  # (d, k); run once per run, in the first pass


@dataclass
class Job:
    slot: str  # the job's role in a pass; per-slot times are compared across passes
    argv: list
    check: Callable[[int, str], "str | None"]
    subsets: int = 0  # subset sums certified, from the job parameters

    @property
    def command(self) -> str:
        return self.argv[0]


@dataclass
class PassContext:
    seed: int
    index: int
    workdir: Path
    threads: int  # --threads for the partitioned scan job

    def rng(self, slot: str) -> random.Random:
        return random.Random(f"{self.seed}/{self.index}/{slot}")

    def write(self, slot: str, payload: dict) -> str:
        path = self.workdir / f"{slot}.json"
        with open(path, "w") as fh:
            json.dump(payload, fh)
        return str(path)


def _scalar(x):
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return x


def _family_json(space: dict, vectors) -> dict:
    return {"space": space, "vectors": [[_scalar(c) for c in v] for v in vectors]}


def _parse_vectors(desc: dict):
    return [[ref.parse_scalar(c) for c in v] for v in desc["vectors"]]


def _shuffled(items, rng: random.Random) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# Generators


def inflated_columns(m: int, k: int, rng: random.Random, balanced: bool = False):
    """The paper's converse construction: columns of a rational matrix whose
    rows pass the 1-D k-collapsing test (diagonal >= 1), read in the sup
    norm of R^m.  Every column has norm >= 1 and the family is k-collapsing;
    with ``balanced`` every row sums to zero, so the columns sum to zero."""
    rows = []
    for i in range(m):
        if balanced:
            cap = min(Fraction(m - 1, k), Fraction(m - 1, m - k), Fraction(3, 2))
            t = 1 + (cap - 1) * Fraction(rng.randint(0, 8), 8)
            c = -t / (m - 1)
        else:
            t = 1 + Fraction(rng.randint(0, 4), 8)
            lo, hi = Fraction(-1, k), Fraction(1 - t, k - 1)
            c = lo + (hi - lo) * Fraction(rng.randint(0, 8), 8)
        row = [c] * m
        row[i] = t
        rows.append(row)
    return [tuple(rows[i][j] for i in range(m)) for j in range(m)]


def lift_json() -> dict:
    """The lifted polynomial-code family (q=7, s=1, k=2): 49 vectors in a
    43-dimensional slab space."""
    from collapsing import constructions, family

    aos = constructions.polynomial_vectors(constructions.FiniteFieldParams(LIFT_Q, LIFT_S))
    _, fam = constructions.lift_almost_orthogonal(aos, LIFT_K)
    return family.family_to_json(fam)


def reordered(desc: dict, rng: random.Random, vectors: bool = True) -> dict:
    """The same slab family with its slab rows, and its vectors unless told
    otherwise, re-ordered."""
    space = dict(desc["space"], functionals=_shuffled(desc["space"]["functionals"], rng))
    return {"space": space,
            "vectors": _shuffled(desc["vectors"], rng) if vectors else desc["vectors"]}


def _lift_margin(desc: dict) -> Fraction:
    cols = ref.pairing_columns(ref.slab_rows(desc["space"]), _parse_vectors(desc))
    return ref.kscan_linear(cols, LIFT_K)[0]


def _linf(d: int) -> dict:
    return {"dim": d, "kind": "linf"}


# ---------------------------------------------------------------------------
# scan


def _verify_k(ctx, slot, space, vectors, k, verdict) -> Job:
    """verify --k on a generated family; ``verdict(vectors, k)`` is the
    reference (holds, witness, exact margin or None)."""
    path = ctx.write(slot, _family_json(space, vectors))

    def check(code, out):
        holds, witness, margin = verdict(vectors, k)
        return ref.check_report(code, out, holds, witness, margin=margin)

    return Job(slot, ["verify", "--family", path, "--k", str(k)], check, math.comb(len(vectors), k))


def _sup_verdict(vectors, k):
    margin, witness = ref.kscan_linear(vectors, k)
    return witness is None, witness, margin


def build_scan(ctx: PassContext) -> list:
    """Many subsets and cheap norms, on every scan path of family.py."""
    jobs = []
    lift = lift_json()
    for slot, threads in (("lift-t1", 1), ("lift-tN", ctx.threads)):
        desc = reordered(lift, ctx.rng(slot))
        path = ctx.write(slot, desc)

        def check(code, out, desc=desc):
            # The lift theorem: the family is k-collapsing.
            return ref.check_report(code, out, True, None, margin=_lift_margin(desc))

        argv = ["verify", "--family", path, "--k", str(LIFT_K), "--threads", str(threads)]
        jobs.append(Job(slot, argv, check, math.comb(LIFT_Q ** (LIFT_S + 1), LIFT_K)))

    m, k = 20, 5
    jobs.append(_verify_k(ctx, "sup-pass", _linf(m), inflated_columns(m, k, ctx.rng("sup-pass")),
                          k, _sup_verdict))

    # Signed basis of R^12 plus two repeated members: integer, fails, witness path.
    rng = ctx.rng("sup-fail")
    d = 12
    basis = [tuple(s * int(j == i) for j in range(d)) for i in range(d) for s in (1, -1)]
    jobs.append(_verify_k(ctx, "sup-fail", _linf(d), _shuffled(basis + rng.sample(basis, 2), rng),
                          5, _sup_verdict))

    rng = ctx.rng("l2-exact")
    vectors = [tuple(Fraction(rng.randint(-4, 4), 16) for _ in range(6)) for _ in range(20)]
    jobs.append(_verify_k(ctx, "l2-exact", {"dim": 6, "kind": "lp", "p": 2}, vectors, 4,
                          lambda v, k: (*ref.kscan_l2_exact(v, k), None)))

    rng = ctx.rng("binary64")
    vectors = [tuple(rng.uniform(-0.25, 0.25) for _ in range(8)) for _ in range(22)]
    jobs.append(_verify_k(ctx, "binary64", _linf(8), vectors, 5,
                          lambda v, k: (*ref.kscan_float_sup(v, k), None)))

    # Floats snapped to rationals with denominators up to 10^12.
    rng = ctx.rng("snap12")
    vectors = [tuple(Fraction(rng.uniform(-0.3, 0.3)).limit_denominator(10**12) for _ in range(6))
               for _ in range(20)]
    jobs.append(_verify_k(ctx, "snap12", _linf(6), vectors, 4, _sup_verdict))

    jobs.append(_full_l1sub(ctx))

    # Seeded sampling on a family far too large to scan: the construction
    # guarantees it holds, so every sampled sum has norm <= 1.
    rng = ctx.rng("sampled")
    m, k, budget = 28, 6, 1000
    vectors = inflated_columns(m, k, rng)
    path = ctx.write("sampled", _family_json(_linf(m), vectors))

    def check_sampled(code, out):
        return ref.check_report(code, out, True, None, margin_at_most=Fraction(1), sampled=True)

    argv = ["verify", "--family", path, "--k", str(k), "--budget", str(budget),
            "--seed", str(rng.randrange(2**31))]
    jobs.append(Job("sampled", argv, check_sampled, budget))
    return jobs


def _full_l1sub(ctx: PassContext) -> Job:
    """--condition full in a 4-dimensional subspace of l1^8: every norm call
    checks subspace membership with an exact linear solve."""
    rng = ctx.rng("full-l1sub")
    ambient, r, m = 8, 4, 10
    while True:
        basis = [tuple(rng.randint(-2, 2) for _ in range(ambient)) for _ in range(r)]
        if ref.rank_exact(basis) == r:
            break
    vectors = []
    for _ in range(m):
        coeffs = [Fraction(rng.randint(-3, 3), 60) for _ in range(r)]
        vectors.append(tuple(sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(ambient)))
    space = {"dim": r, "kind": "l1sub", "ambient": ambient, "basis": [list(b) for b in basis]}
    path = ctx.write("full-l1sub", _family_json(space, vectors))

    def check(code, out):
        margin, witness = ref.full_l1(vectors)
        return ref.check_report(code, out, witness is None, witness, margin=margin)

    return Job("full-l1sub", ["verify", "--family", path, "--condition", "full"], check, 2**m - 1)


# ---------------------------------------------------------------------------
# oracle


def build_oracle(ctx: PassContext) -> list:
    """Exact vertex enumeration; never reaches spaces or family."""
    # p >= 2 only changes the objective, so each pass gets its own p at the
    # same cost; p=1 rows of the grid repeat across passes inside the job.
    p = 2 + ctx.seed % 5 + ctx.index
    mmax = 8
    jobs = [
        Job("grid", ["oracle", "--grid", "--mmax", str(mmax), "--p-list", "1", str(p)],
            lambda code, out: ref.check_oracle_grid(code, out, mmax, (1, p)))
    ]
    # Unbalanced at the m=16 cap; balanced at m=12, k=6, where most of the
    # 1001 active sets are singular.
    for slot, m, k, balanced in (("m16", 16, 6, False), ("m12-balanced", 12, 6, True)):
        argv = ["oracle", "--m", str(m), "--k", str(k), "--p", str(p)]
        if balanced:
            argv.append("--balanced")
        jobs.append(Job(slot, argv, lambda code, out, m=m, k=k, b=balanced:
                        ref.check_oracle_single(code, out, m, k, p, b)))
    return jobs


# ---------------------------------------------------------------------------
# certify


def build_certify(ctx: PassContext) -> list:
    """Few subsets with costly norms or incremental checks, plus the LP,
    the pairing matrix and branch and bound."""
    from collapsing import constructions, spaces

    jobs = []
    d, k = 5, 3
    space = spaces.space_to_json(constructions.pk_polytope_norm(d, k))
    basis = [tuple(s * int(j == i) for j in range(d)) for i in range(d) for s in (1, -1)]
    path = ctx.write("pk-verify", _family_json(space, _shuffled(basis, ctx.rng("pk-verify"))))
    # Every k-subset sum of the signed basis is a vertex or inner point of
    # the layered-cube ball, and the single basis vectors are on its boundary.
    jobs.append(Job("pk-verify", ["verify", "--family", path, "--k", str(k)],
                    lambda code, out: ref.check_report(code, out, True, None, margin=Fraction(1)),
                    math.comb(2 * d, k)))

    # Only the slab rows are re-ordered: the simplex pivots of the weak
    # check follow the vector order, and its cost varies several-fold with it.
    lift = lift_json()
    path = ctx.write("weak-lift", reordered(lift, ctx.rng("weak-lift"), vectors=False))
    # Every lifted vector has last coordinate 1, so 0 is not in the hull.
    jobs.append(Job("weak-lift", ["verify", "--family", path, "--condition", "weak"],
                    lambda code, out: ref.check_report(code, out, False, None)))

    m = 20
    vectors = inflated_columns(m, 3, ctx.rng("weak-balanced"), balanced=True)
    path = ctx.write("weak-balanced", _family_json(_linf(m), vectors))
    # The family sums to zero, so 0 is the centroid: weakly balanced.
    jobs.append(Job("weak-balanced", ["verify", "--family", path, "--condition", "weak"],
                    lambda code, out: ref.check_report(code, out, True, None)))

    desc = reordered(lift, ctx.rng("gram-lift"))
    path = ctx.write("gram-lift", desc)
    jobs.append(Job("gram-lift", ["gram", "--family", path, "--normalize"],
                    lambda code, out: ref.check_gram(
                        code, out, ref.gram_reference(desc["space"], _parse_vectors(desc)))))

    if ctx.index == 0:
        for d, k in SEARCH_PAIRS:
            jobs.append(Job(f"search-d{d}k{k}", ["search", "--d", str(d), "--k", str(k)],
                            lambda code, out, d=d, k=k: ref.check_search(code, out, d, k)))
    return jobs


BUILDERS = {"scan": build_scan, "oracle": build_oracle, "certify": build_certify}
