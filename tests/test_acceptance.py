"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` (or via
``scripts/run_acceptance.py``) to see the per-criterion lines and timings.
Every tolerance is pinned here; exact-arithmetic checks compare with ``==``.
"""

import itertools
import math
import random
import time
from fractions import Fraction as F
from math import comb

import numpy as np
import pytest

from collapsing.bounds import best_bounds, gamma_k, table1
from collapsing.constructions import (
    FiniteFieldParams,
    coincidence_count,
    counterexample_tuple,
    fixture_X,
    fixture_Y,
    lift_almost_orthogonal,
    linf_cross,
    polynomial_vectors,
    unnormalized_self_inner,
)
from collapsing.family import (
    ScalarFamily,
    bnb_max_subfamily,
    check_k_collapsing,
    check_strong_balancing,
    make_family,
    normalisation_check,
    scalar_k_collapsing,
)
from collapsing.graphtools import (
    equitable_coloring,
    is_equitable,
    is_proper,
    max_degree,
    random_bounded_degree_graph,
)
from collapsing.linalg import dot
from collapsing.matrixform import (
    check_rows,
    family_from_matrix,
    gram_from_family,
    hadamard_power,
    hadamard_rank_bound,
    make_matrix,
    rank,
    rank_certificate,
    row_normalize,
    row_sums,
)
from collapsing.simplexopt import EXACT, max_pow_general, max_sq_balanced, vertex_oracle
from collapsing.spaces import linf_space, norm_eval


def report(number: int, label: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"\nACCEPTANCE {number:02d} PASS ({elapsed:6.2f}s / budget {budget:g}s) {label}")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


PRINTED = {
    2: (1.0, 4.0, 2.0, 1.02),
    3: (0.3541686, 2.178, 1.667, 1.0102),
    4: (0.1854203, 1.673, 1.5, 1.0061),
    5: (0.1149225, 1.448, 1.4, 1.0041),
    6: (0.0784510, 1.325, 1.334, 1.0029),
    7: (0.0570503, 1.249, 1.286, 1.0022),
    8: (0.0433914, 1.198, 1.25, 1.0017),
    9: (0.0341301, 1.162, 1.223, 1.0013),
}


def test_criterion_01_table_reproduction():
    t0 = time.perf_counter()
    rows = table1(2, 9)
    for row in rows:
        gamma, base, coloring, greedy = PRINTED[row.k]
        assert abs(gamma_k(row.k).gamma - gamma) < 1e-6
        assert row.rank_power_base == base
        assert row.coloring_base == coloring
        assert row.greedy_base == greedy
    report(1, "comparison-table digits match the printed values", t0, 1.0)


def test_criterion_02_gamma_bracket_and_monotonicity():
    t0 = time.perf_counter()
    e = math.e
    previous = None
    for k in range(2, 101):
        gv = gamma_k(k)
        assert e / k**2 < gv.gamma < e / (k**2 - e), k
        if previous is not None:
            assert gv.gamma < previous, k
        previous = gv.gamma
    report(2, "growth exponent inside its bracket and strictly decreasing", t0, 1.0)


def test_criterion_03_balanced_oracle_equivalence():
    t0 = time.perf_counter()
    for m in range(4, 13):
        for k in range(2, m - 1):
            res = vertex_oracle(m, k, 1, balanced=True)
            assert res.value == 1, (m, k, res.value)
            assert res.attaining_vertex == tuple([F(0)] * (m - 2) + [F(-1)]), (m, k)
            assert max_sq_balanced(m, k).value == 1
    report(3, "balanced maximum equals 1 with the signed-unit argmax", t0, 60.0)


def test_criterion_04_general_oracle_equivalence():
    t0 = time.perf_counter()
    for m in range(4, 13):
        for k in range(2, m - 1):
            for p in (1, 2, 3):
                if p >= 2 and 2 * k > m + 1:
                    continue
                closed = max_pow_general(m, k, p)
                oracle = vertex_oracle(m, k, p, balanced=False)
                if closed.exactness == EXACT:
                    assert 3 * k < 2 * m or p >= 2
                    assert closed.value == oracle.value, (m, k, p)
                else:
                    assert p == 1 and 3 * k >= 2 * m
                    assert oracle.value <= closed.value, (m, k, p)
    report(4, "closed forms equal the oracle (upper bound beyond 2m/3)", t0, 300.0)


def _block_matrix(d):
    rows = [[0] * (2 * d) for _ in range(2 * d)]
    for b in range(d):
        rows[2 * b][2 * b] = 1
        rows[2 * b][2 * b + 1] = -1
        rows[2 * b + 1][2 * b] = -1
        rows[2 * b + 1][2 * b + 1] = 1
    return make_matrix(rows)


def test_criterion_05_rank_certificates():
    t0 = time.perf_counter()
    for d in range(1, 9):
        cert = rank_certificate(_block_matrix(d))
        assert cert.rank_lower_bound == d == cert.rank
        assert cert.equality_case
    rng = random.Random(20260810)
    for trial in range(1000):
        m = rng.randint(1, 6)
        entries = [
            [F(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(m)]
            for _ in range(m)
        ]
        cert = rank_certificate(make_matrix(entries))
        assert cert.rank_lower_bound <= cert.rank, trial
    fl = np.random.default_rng(20260810)
    for trial in range(1000):
        m = int(fl.integers(1, 7))
        entries = [[float(x) for x in row] for row in fl.normal(size=(m, m))]
        cert = rank_certificate(make_matrix(entries))
        assert cert.rank_lower_bound <= cert.rank * (1 + 1e-9) + 1e-9, trial
    report(5, "trace/Frobenius rank bound: block matrices sharp, 2x1000 random ok", t0, 10.0)


def test_criterion_06_hadamard_power_bound():
    t0 = time.perf_counter()
    rng = random.Random(8128)
    for trial in range(200):
        d = rng.randint(1, 4)
        m = rng.randint(d + 1, 30)
        p = rng.randint(1, 3)
        rows = [[0] * m for _ in range(m)]
        for _ in range(d):
            u = [rng.randint(-3, 3) for _ in range(m)]
            v = [rng.randint(-3, 3) for _ in range(m)]
            for i in range(m):
                if u[i]:
                    for j in range(m):
                        rows[i][j] += u[i] * v[j]
        a = make_matrix(rows)
        ra = rank(a)
        assert ra <= d
        assert rank(hadamard_power(a, p)) <= hadamard_rank_bound(ra, p), trial
    report(6, "entrywise-power rank bound holds on 200 seeded matrices", t0, 30.0)


from conftest import inflated_family as _inflated_family


def test_criterion_07_row_normalisation_pipeline():
    t0 = time.perf_counter()
    cases = []
    for seed in range(17):
        rng = random.Random(1000 + seed)
        m = rng.randint(6, 10)
        k = rng.randint(2, 4)
        balanced = seed % 2 == 0
        cases.append((_inflated_family(m, k, seed, balanced), k))
    cases.append((linf_cross(3), 2))
    cases.append((linf_cross(5), 4))
    aos = polynomial_vectors(FiniteFieldParams(7, 1))
    _, lifted = lift_almost_orthogonal(aos, 2)
    cases.append((lifted, 2))
    assert len(cases) == 20
    for family, k in cases:
        assert family.is_exact()
        assert check_k_collapsing(family, k).holds
        assert all(norm_eval(family.space, v) >= 1 for v in family.vectors)
        balanced = check_strong_balancing(family).holds
        gram = gram_from_family(family)
        normalized = row_normalize(gram)
        assert rank(normalized) == rank(gram)
        rebuilt = family_from_matrix(normalized, rank(normalized))
        assert rebuilt.m == family.m
        assert all(norm_eval(rebuilt.space, v) == 1 for v in rebuilt.vectors)
        assert check_k_collapsing(rebuilt, k).holds
        if balanced:
            assert check_strong_balancing(rebuilt).holds
    report(7, "gram -> row-normalise -> rebuild preserves the conditions", t0, 60.0)


def test_criterion_08_polynomial_construction():
    t0 = time.perf_counter()
    for q in (2, 3, 4, 5, 7, 8, 9):
        for s in range(1, min(3, q - 1) + 1):
            aos = polynomial_vectors(FiniteFieldParams(q, s))
            assert aos.m == q ** (s + 1)
            assert len(set(aos.tables)) == aos.m  # distinct vectors
            for i in range(aos.m):
                assert unnormalized_self_inner(aos, i) == F(q * q, q - 1)
            lo, hi = F(-1, q - 1), F(s - 1, q - 1)
            if q <= 5:
                pairs = itertools.combinations(range(aos.m), 2)
            else:
                rng = random.Random(97 * q + s)
                pairs = (
                    tuple(sorted(rng.sample(range(aos.m), 2))) for _ in range(100_000)
                )
            raw_checked = 0
            for i, j in pairs:
                c = coincidence_count(aos, i, j)
                g = F(c - 1, q - 1)
                assert lo <= g <= hi, (q, s, i, j)
                if raw_checked < 200:  # cross-check against the raw inner product
                    assert aos.gram(i, j) == g
                    raw_checked += 1
    report(8, "polynomial vectors: counts, self-products and pairwise range", t0, 120.0)


def test_criterion_09_lift_end_to_end():
    t0 = time.perf_counter()
    aos = polynomial_vectors(FiniteFieldParams(7, 1))
    space, family = lift_almost_orthogonal(aos, 2)
    assert space.dim == 43
    assert family.m == 49
    assert family.is_exact()
    functionals = space.functionals[: family.m]
    for i in range(49):
        assert norm_eval(space, family.vectors[i]) == 1
        for j in range(49):
            if i != j:
                pairing = dot(family.vectors[i], functionals[j])
                assert F(-1, 2) <= pairing <= 0, (i, j)
    checked = 0
    for i, j in itertools.combinations(range(49), 2):
        total = tuple(a + b for a, b in zip(family.vectors[i], family.vectors[j]))
        assert norm_eval(space, total) <= 1, (i, j)
        checked += 1
    assert checked == comb(49, 2) == 1176
    report(9, "49 lifted vectors are 2-collapsing in a 43-dim slab ball", t0, 60.0)


def test_criterion_10_bound_consistency_grid():
    t0 = time.perf_counter()
    for k in range(2, 41):
        for d in range(2, 41):
            bb = best_bounds(k, d)
            assert bb.best_lower <= bb.best_upper, (k, d)
    known_exact = []
    for k in range(2, 41):
        known_exact.append((k, 2))
    for d in (3, 4, 5):
        for k in range(3, 41):
            known_exact.append((k, d))
    for k in list(range(3, 11)) + list(range(17, 41)):
        known_exact.append((k, 6))
    for k in range(3, 13):
        known_exact.append((k, 7))
    for k, d in known_exact:
        assert best_bounds(k, d).exact == max(k + 1, 2 * d), (k, d)
    for k in range(6, 18):
        bb = best_bounds(k, 10)
        assert bb.exact == 20, k
    report(10, "lower <= upper on the whole grid; known exact values agree", t0, 10.0)


def test_criterion_11_sharpness_fixtures():
    t0 = time.perf_counter()
    for d in range(2, 11):
        for eps in (F(1, 10), F(1, 100)):
            if not eps < F(1, d):
                continue
            family = fixture_X(d, eps)
            space = family.space
            assert all(norm_eval(space, v) == 1 for v in family.vectors)
            distances = [
                norm_eval(space, tuple(a - b for a, b in zip(u, v)))
                for u, v in itertools.combinations(family.vectors, 2)
            ]
            assert all(x == 1 + F(1, d) - eps for x in distances)
            total = [sum(col) for col in zip(*family.vectors)]
            centroid = tuple(F(c, d) for c in total)
            assert norm_eval(space, centroid) == F(1, d * d) + (1 - F(1, d)) * eps
        family = fixture_Y(d)
        space = family.space
        assert all(norm_eval(space, v) == 1 for v in family.vectors)
        for u, v in itertools.combinations(family.vectors, 2):
            assert norm_eval(space, tuple(a - b for a, b in zip(u, v))) == 1 + F(1, d)
        total = [sum(col) for col in zip(*family.vectors)]
        assert all(c == 0 for c in total)
    report(11, "both fixture families have their exact advertised geometry", t0, 10.0)


def test_criterion_12_equitable_coloring():
    t0 = time.perf_counter()
    for seed in range(100):
        k = 3 + seed % 6
        n = 20 + (seed * 17) % 101
        graph = random_bounded_degree_graph(n, k - 2, seed, density=0.85)
        assert max_degree(graph) <= k - 2
        coloring = equitable_coloring(graph, k)
        assert is_proper(graph, coloring.assignment), seed
        assert is_equitable(graph, coloring.assignment, k), seed
        sizes = sorted(coloring.class_sizes)
        assert sizes[-1] - sizes[0] <= 1
    report(12, "100 seeded graphs colored properly and equitably", t0, 30.0)


def test_criterion_13_sign_vector_search():
    t0 = time.perf_counter()
    expected = {(2, 2): 4, (2, 3): 4, (3, 2): 6, (3, 4): 6,
                (4, 2): 8, (3, 5): 6, (3, 6): 7, (4, 3): 8, (5, 2): 10}
    for (d, k), target in expected.items():
        candidates = [
            v for v in itertools.product((-1, 0, 1), repeat=d) if any(c != 0 for c in v)
        ]
        family = make_family(linf_space(d), candidates)
        chosen = bnb_max_subfamily(family, k)
        assert len(chosen) == target, (d, k)
        assert target == max(k + 1, 2 * d)  # the known extremal size
        sub = make_family(linf_space(d), [family.vectors[i - 1] for i in chosen])
        assert check_k_collapsing(sub, min(k, sub.m)).holds
        if k == 2:
            # size 2d forces the signed basis, up to order
            basis = set()
            for i in range(d):
                e = tuple(int(j == i) for j in range(d))
                basis.add(e)
                basis.add(tuple(-c for c in e))
            assert set(sub.vectors) == basis, (d, k)
    report(13, "sign-vector searches find the extremal sizes", t0, 120.0)


def test_criterion_14_scalar_normalisation_suite():
    t0 = time.perf_counter()
    rng = random.Random(41)
    accepted = 0
    while accepted < 10_000:
        m = rng.randint(4, 10)
        k = rng.randint(2, m - 2)
        numerators = [rng.randint(-12, 12) for _ in range(m)]
        if rng.random() < 0.3:
            numerators[0] = 8  # force an entry of absolute value exactly 1
        # cheap integer pre-filter on the scaled values (denominator 8)
        ordered = sorted(numerators)
        if max(abs(sum(ordered[-k:])), abs(sum(ordered[:k]))) > 8:
            continue
        values = tuple(F(n, 8) for n in numerators)
        assert scalar_k_collapsing(values, k)[0]
        ok, violations = normalisation_check(ScalarFamily(values), k)
        assert ok, (values, k, violations)
        accepted += 1
    for m in range(5, 13):
        family = counterexample_tuple(m)
        holds, margin, _ = scalar_k_collapsing(family.values, m - 1)
        assert holds and margin == 1
        big = sorted(v for v in family.values if v > 1)
        assert len(big) == 2
        assert abs(big[1]) > 2 - abs(big[0])  # the norm-cap conclusion fails
    report(14, "normalisation cap on 10k sampled families; k=m-1 failure shown", t0, 30.0)
