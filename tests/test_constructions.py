import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsing.constructions import (
    AlmostOrthogonalSet,
    FiniteFieldParams,
    coincidence_count,
    counterexample_tuple,
    fixture_X,
    fixture_Y,
    greedy_unit_vectors,
    lift_almost_orthogonal,
    linf_cross,
    pk_polytope_norm,
    polynomial_vectors,
    unnormalized_self_inner,
)
from collapsing.errors import PreconditionError
from collapsing.family import (
    check_full_collapsing,
    check_k_collapsing,
    check_strong_balancing,
    scalar_k_collapsing,
)
from collapsing.linalg import dot
from collapsing.lp import OPTIMAL, linprog_exact
from collapsing.spaces import dual_unit_vector, linf_space, norm_eval


class TestCross:
    def test_small(self):
        family = linf_cross(2)
        assert family.m == 4
        assert check_full_collapsing(family).holds

    def test_k_collapsing_and_balanced(self):
        family = linf_cross(3)
        assert check_k_collapsing(family, 4).holds
        assert check_strong_balancing(family).holds

    def test_sum_is_zero(self):
        family = linf_cross(5)
        total = [sum(col) for col in zip(*family.vectors)]
        assert all(c == 0 for c in total)


def layered_cube_vertices(d, k):
    """The signed 0/1 vectors with at most k nonzero entries."""
    vertices = []
    for size in range(1, min(k, d) + 1):
        for subset in itertools.combinations(range(d), size):
            for signs in itertools.product((1, -1), repeat=size):
                v = [0] * d
                for pos, sign in zip(subset, signs):
                    v[pos] = sign
                vertices.append(tuple(v))
    return vertices


def vertex_gauge(vertices, x):
    """min sum(lam) subject to V lam = x, lam >= 0: the gauge of conv(V)."""
    a_eq = [[v[i] for v in vertices] for i in range(len(x))]
    res = linprog_exact([1] * len(vertices), a_eq=a_eq, b_eq=list(x))
    assert res.status == OPTIMAL
    return res.objective


class TestLayeredCubeGauge:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_vertex_hull_gauge(self, data):
        d = data.draw(st.integers(1, 4))
        k = data.draw(st.integers(2, d + 1))
        coord = st.fractions(min_value=F(-3), max_value=F(3), max_denominator=6)
        x = tuple(data.draw(st.lists(coord, min_size=d, max_size=d)))
        space = pk_polytope_norm(d, k)
        vertices = layered_cube_vertices(d, k)
        nrm = norm_eval(space, x)
        assert nrm == vertex_gauge(vertices, x)
        if nrm != 0:
            f = dual_unit_vector(space, x)
            assert dot(f, x) == nrm
            assert max(abs(dot(f, v)) for v in vertices) == 1

    def test_full_diagonal_vertex(self):
        space = pk_polytope_norm(3, 3)
        assert norm_eval(space, (1, 1, 1)) == 1

    def test_partial_diagonal(self):
        space = pk_polytope_norm(3, 2)
        assert norm_eval(space, (1, 1, 1)) == F(3, 2)

    def test_matches_sup_norm_when_k_geq_d(self):
        import random

        rng = random.Random(5)
        space = pk_polytope_norm(3, 5)
        sup = linf_space(3)
        for _ in range(100):
            x = tuple(F(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(3))
            assert norm_eval(space, x) == norm_eval(sup, x)

    def test_signed_basis_collapsing_in_gauge(self):
        from collapsing.family import make_family

        d, k = 3, 2
        space = pk_polytope_norm(d, k)
        vectors = []
        for i in range(d):
            e = tuple(int(j == i) for j in range(d))
            vectors.extend([e, tuple(-c for c in e)])
        family = make_family(space, vectors)
        for kk in range(1, k + 1):
            assert check_k_collapsing(family, kk).holds


class TestGreedy:
    def test_reproducible_and_valid(self):
        a = greedy_unit_vectors(30, 0.25, seed=11, max_trials=3000)
        b = greedy_unit_vectors(30, 0.25, seed=11, max_trials=3000)
        assert a.coords == b.coords
        assert a.m >= 2
        assert a.strict
        for i in range(a.m):
            assert abs(dot(a.coords[i], a.coords[i]) - 1) < 1e-12
            for j in range(i + 1, a.m):
                assert abs(dot(a.coords[i], a.coords[j])) < 0.25

    def test_loose_bound_accepts_everything(self):
        a = greedy_unit_vectors(6, 1.0, seed=2, max_trials=300)
        for i in range(a.m):
            for j in range(i + 1, a.m):
                assert abs(dot(a.coords[i], a.coords[j])) < 1.0

    def test_planar_packing_is_small(self):
        a = greedy_unit_vectors(2, 0.1, seed=3, max_trials=3000)
        assert a.m <= 4
        for i in range(a.m):
            for j in range(i + 1, a.m):
                assert abs(dot(a.coords[i], a.coords[j])) < 0.1

    def test_mid_dimensional_run(self):
        a = greedy_unit_vectors(50, 0.2, seed=1, max_trials=20_000)
        assert a.m >= 2
        for i in range(a.m):
            for j in range(i + 1, a.m):
                assert abs(dot(a.coords[i], a.coords[j])) < 0.2


class TestPolynomialVectors:
    def test_q3_gram_values(self):
        aos = polynomial_vectors(FiniteFieldParams(3, 1))
        assert aos.m == 9
        grams = {aos.gram(i, j) for i in range(9) for j in range(9) if i != j}
        assert grams == {F(-1, 2), F(0)}

    def test_q2_degenerate_interval(self):
        aos = polynomial_vectors(FiniteFieldParams(2, 1))
        assert aos.m == 4
        assert aos.dim == 2
        grams = {aos.gram(i, j) for i in range(4) for j in range(4) if i != j}
        assert grams <= {F(-1), F(0)}

    def test_q4_prime_power_field(self):
        aos = polynomial_vectors(FiniteFieldParams(4, 2))
        assert aos.m == 64
        for i in range(0, 64, 7):
            for j in range(i + 1, 64, 5):
                assert F(-1, 3) <= aos.gram(i, j) <= F(1, 3)

    def test_unit_self_gram_and_raw_inner(self):
        for q, s in [(3, 1), (4, 1), (5, 2)]:
            aos = polynomial_vectors(FiniteFieldParams(q, s))
            for i in range(0, aos.m, max(1, aos.m // 6)):
                assert aos.gram(i, i) == 1
                assert unnormalized_self_inner(aos, i) == F(q * q, q - 1)

    def test_rows_sum_to_zero(self):
        aos = polynomial_vectors(FiniteFieldParams(5, 1))
        q = 5
        for v in aos.coords[:8]:
            for r in range(q):
                assert sum(v[r * q : (r + 1) * q]) == 0

    def test_gram_matches_coincidence_formula(self):
        aos = polynomial_vectors(FiniteFieldParams(7, 1))
        for i in range(0, aos.m, 6):
            for j in range(0, aos.m, 7):
                if i != j:
                    c = coincidence_count(aos, i, j)
                    assert aos.gram(i, j) == F(c - 1, 6)

    def test_distinctness_guard(self):
        with pytest.raises(PreconditionError):
            FiniteFieldParams(3, 3)  # s must stay below q


class TestLift:
    def test_orthogonal_pair_exact(self):
        aos = AlmostOrthogonalSet(
            dim=2,
            coords=((1, 0), (0, 1)),
            scale_sq=F(1),
            bound=F(0),
            strict=True,
        )
        space, family = lift_almost_orthogonal(aos, 2)
        assert space.dim == 3
        assert all(norm_eval(space, v) == 1 for v in family.vectors)
        assert check_k_collapsing(family, 2).holds

    def test_bound_guard(self):
        aos = polynomial_vectors(FiniteFieldParams(3, 1))  # bound 1/2
        with pytest.raises(PreconditionError):
            lift_almost_orthogonal(aos, 2)  # needs bound <= 1/5

    def test_polynomial_lift(self):
        # the smallest prime power whose bound 1/(q-1) fits k=2 is q=7
        aos = polynomial_vectors(FiniteFieldParams(7, 1))
        space, family = lift_almost_orthogonal(aos, 2)
        assert space.dim == 7 * 7 - 7 + 1
        assert family.m == 49
        ys = space.functionals[: family.m]
        for i in range(0, family.m, 5):
            assert dot(family.vectors[i], ys[i]) == 1
            assert norm_eval(space, family.vectors[i]) == 1
        for i in range(0, 49, 6):
            for j in range(0, 49, 7):
                if i != j:
                    p = dot(family.vectors[i], ys[j])
                    assert F(-1, 2) <= p <= 0
        # sampled pair sums stay inside the ball (the full scan is in the
        # acceptance suite)
        report = check_k_collapsing(family, 2, budget=150, seed=5)
        assert report.holds and report.sampled

    def test_float_lift_from_greedy(self):
        aos = greedy_unit_vectors(12, 1 / 7, seed=9, max_trials=4000)
        space, family = lift_almost_orthogonal(aos, 3)  # bound 1/7 <= 1/7
        assert space.dim == 13
        for v in family.vectors:
            assert abs(norm_eval(space, v) - 1.0) < 1e-9
        assert check_k_collapsing(family, 3).holds

    def test_strictly_bounded_grams_give_strict_sums(self):
        aos = greedy_unit_vectors(12, 0.11, seed=4, max_trials=4000)  # < 1/7
        assert aos.strict
        space, family = lift_almost_orthogonal(aos, 3)
        for i, j, l in itertools.combinations(range(family.m), 3):
            total = tuple(
                a + b + c
                for a, b, c in zip(family.vectors[i], family.vectors[j], family.vectors[l])
            )
            assert norm_eval(space, total) < 1.0

    def test_hyperplane_case_gets_cap(self):
        # a single vector: functionals span far less than the full space
        aos = AlmostOrthogonalSet(
            dim=2, coords=((1, 0),), scale_sq=F(1), bound=F(0), strict=True
        )
        space, family = lift_almost_orthogonal(aos, 2)
        assert space.cap is not None or len(space.functionals) > 1
        assert norm_eval(space, family.vectors[0]) == 1


class TestFixtures:
    def test_X_exact_values(self):
        for d, eps in [(2, F(1, 10)), (4, F(1, 100)), (7, F(1, 50))]:
            family = fixture_X(d, eps)
            space = family.space
            assert all(norm_eval(space, v) == 1 for v in family.vectors)
            diffs = [
                norm_eval(space, tuple(a - b for a, b in zip(u, v)))
                for u, v in itertools.combinations(family.vectors, 2)
            ]
            assert all(x == 1 + F(1, d) - eps for x in diffs)
            total = [sum(col) for col in zip(*family.vectors)]
            centroid = tuple(F(c, d) for c in total)
            assert norm_eval(space, centroid) == F(1, d * d) + (1 - F(1, d)) * eps

    def test_X_epsilon_guard(self):
        with pytest.raises(PreconditionError):
            fixture_X(4, F(1, 2))

    def test_Y_exact_values(self):
        for d in (2, 3, 6):
            family = fixture_Y(d)
            space = family.space
            assert family.m == d + 1
            assert all(norm_eval(space, v) == 1 for v in family.vectors)
            for u, v in itertools.combinations(family.vectors, 2):
                diff = tuple(a - b for a, b in zip(u, v))
                assert norm_eval(space, diff) == 1 + F(1, d)
            assert check_strong_balancing(family).holds


class TestLargeEntryTuple:
    def test_values_and_collapsing(self):
        fam = counterexample_tuple(6)
        assert fam.m == 6
        holds, margin, _ = scalar_k_collapsing(fam.values, 5)
        assert holds and margin == 1
        assert sum(1 for v in fam.values if v > 1) == 2

    def test_violates_norm_cap_conclusion(self):
        # two entries both above 1: |a_j| > 2 - |a_i| with |a_i| >= 1
        for m in range(5, 13):
            fam = counterexample_tuple(m)
            assert scalar_k_collapsing(fam.values, m - 1)[0]
            big = [v for v in fam.values if abs(v) >= 1]
            assert len(big) == 2
            a, b = big
            assert abs(b) > 2 - abs(a)

    def test_guard(self):
        with pytest.raises(PreconditionError):
            counterexample_tuple(4)
