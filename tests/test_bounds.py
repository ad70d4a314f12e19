import math
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsing.errors import PreconditionError
from collapsing.bounds import (
    best_bounds,
    binom_stirling_upper,
    gamma_k,
    is_prime_power,
    largest_prime_power,
    lb_greedy,
    lb_polynomial,
    lb_trivial,
    table1,
    ub_asymptotic,
    ub_balanced,
    ub_euclidean,
    ub_hadamard,
    ub_hadamard_best,
    ub_near_euclidean,
    ub_rank_power,
    ub_rank_sharp,
    ub_smalldim,
    ub_volume_coloring,
)

PRINTED_GAMMA = {
    2: 1.0,
    3: 0.3541686,
    4: 0.1854203,
    5: 0.1149225,
    6: 0.0784510,
    7: 0.0570503,
    8: 0.0433914,
    9: 0.0341301,
}


class TestGamma:
    def test_printed_values(self):
        for k, v in PRINTED_GAMMA.items():
            assert abs(gamma_k(k).gamma - v) < 1e-7

    def test_defining_equation(self):
        for k in (2, 3, 7, 20, 100):
            g = gamma_k(k).gamma
            assert abs((1 + g) ** (1 / g) * (1 + 1 / g) - k * k) < 1e-10

    def test_bracket_and_monotonicity(self):
        prev = None
        for k in range(2, 101):
            gv = gamma_k(k)
            lo, hi = gv.bracket
            assert lo < gv.gamma < hi
            if prev is not None:
                assert gv.gamma < prev
            prev = gv.gamma


class TestTable:
    def test_printed_digits(self):
        expected = {
            2: (4.0, 2.0, 1.02),
            3: (2.178, 1.667, 1.0102),
            4: (1.673, 1.5, 1.0061),
            5: (1.448, 1.4, 1.0041),
            6: (1.325, 1.334, 1.0029),
            7: (1.249, 1.286, 1.0022),
            8: (1.198, 1.25, 1.0017),
            9: (1.162, 1.223, 1.0013),
        }
        for row in table1():
            a, b, c = expected[row.k]
            assert row.rank_power_base == a
            assert row.coloring_base == b
            assert row.greedy_base == c
            assert abs(row.gamma - PRINTED_GAMMA[row.k]) < 1e-7


class TestUpperBounds:
    def test_balanced_exact(self):
        assert ub_balanced(2, 3).value_int == 6
        assert ub_balanced(7, 3).value_int == 8
        assert ub_balanced(2, 2).value_int == 4

    def test_rank_power(self):
        r = ub_rank_power(2, 4)
        assert abs(r.value - 1.33 * 2**10) < 1e-6
        r = ub_rank_power(3, 3)
        assert abs(r.value - 1.33 * 3 ** (6 * gamma_k(3).gamma + 2)) < 1e-9
        r = ub_rank_power(2, 9)
        assert "refined" in r.note
        assert abs(r.value - (2 / 3) * 2**20) < 1e-6

    def test_rank_sharp_cases(self):
        assert ub_rank_sharp(4, 9).value_int == 23          # 162/7 floored
        mid = ub_rank_sharp(6, 10)
        assert mid.kind == "exact" and mid.value_int == 20
        assert ub_rank_sharp(19, 10).value_int == 21
        assert not ub_rank_sharp(2, 5).applicable

    def test_rank_sharp_case2_window_d10(self):
        for k in range(6, 18):
            assert ub_rank_sharp(k, 10).kind == "exact"
            assert ub_rank_sharp(k, 10).value_int == 20
        assert ub_rank_sharp(5, 10).kind != "exact"
        assert ub_rank_sharp(18, 10).kind != "exact"

    def test_smalldim(self):
        assert ub_smalldim(6, 4).kind == "exact"
        assert ub_smalldim(6, 4).value_int == 8
        assert not ub_smalldim(11, 6).applicable
        r = ub_smalldim(2, 3)
        assert r.kind == "upper" and r.value_int == 9
        assert ub_smalldim(17, 6).kind == "exact"
        assert ub_smalldim(41, 7).kind == "exact"
        assert not ub_smalldim(13, 7).applicable
        assert not ub_smalldim(2, 4).applicable

    def test_volume_coloring(self):
        assert ub_volume_coloring(2, 2).value_int == 9
        assert ub_volume_coloring(2, 4).value_int == 33
        assert ub_volume_coloring(6, 4).value_int == 23

    def test_near_euclidean(self):
        assert ub_near_euclidean(4, dist=1).value_int == 5  # k+1
        assert ub_near_euclidean(5, dist_sq=1.5).value_int == 6
        thr = ub_near_euclidean(3, dist_sq=F(5, 4))
        assert thr.kind == "exact" and thr.value_int == 4
        assert not ub_near_euclidean(2, dist_sq=3.0).applicable

    def test_euclidean_lambda(self):
        assert ub_euclidean(3, lam=1).value_int == 4
        assert ub_euclidean(4, lam_sq=2).value_int == 7
        with pytest.raises(PreconditionError):
            ub_euclidean(2, lam_sq=2)  # lambda must stay below sqrt(k)

    def test_hadamard(self):
        assert ub_hadamard(4, 4, 1).value_int == 10
        assert ub_hadamard(3, 8, 2).value_int == 129
        assert not ub_hadamard(2, 8, 2).applicable
        best = ub_hadamard_best(4, 4)
        assert best.applicable
        assert best.value_int <= 10

    def test_stirling_upper(self):
        assert binom_stirling_upper(4, 2) > 6
        assert abs(binom_stirling_upper(4, 2) - 16 / math.sqrt(2 * math.pi)) < 1e-12
        assert binom_stirling_upper(10, 5) > 252
        assert binom_stirling_upper(2, 1) > 2

    @given(st.integers(2, 40), st.data())
    @settings(max_examples=80, deadline=None)
    def test_stirling_strictly_dominates(self, n, data):
        k = data.draw(st.integers(1, n - 1))
        assert binom_stirling_upper(n, k) > comb(n, k)


class TestLowerBounds:
    def test_trivial(self):
        assert lb_trivial(2, 5).value_int == 10
        assert lb_trivial(9, 2).value_int == 10
        assert lb_trivial(3, 3).value_int == 6

    def test_greedy_flagged(self):
        r = lb_greedy(2, 100)
        assert r.value_int == 7
        assert r.asymptotic
        assert lb_greedy(3, 100).value_int == int((1 + 1 / 98) ** 100)
        assert lb_greedy(2, 4).value_int == 1  # dominated at small d

    def test_polynomial(self):
        assert lb_polynomial(3, 91).value_int == 729
        assert not lb_polynomial(2, 7).applicable
        assert lb_polynomial(2, 43).value_int == 343

    def test_past_binary64(self):
        # The float power overflows: its floor cannot come from the float.
        r = lb_greedy(2, 40000)
        assert not r.applicable and "exceeds binary64" in r.note
        # q^(c+2) stays exact; only its float form is dropped.
        r = lb_polynomial(2, 400000)
        q, c = (int(part.split("=")[1]) for part in r.note.split(", "))
        assert r.value is None and r.value_int == q ** (c + 2) > 2 ** 1024

    def test_prime_power_helpers(self):
        assert is_prime_power(8) == (2, 3)
        assert is_prime_power(9) == (3, 2)
        assert is_prime_power(12) is None
        assert largest_prime_power(43) == 7
        assert largest_prime_power(91) == 9


class TestAsymptotic:
    def test_never_finite(self):
        for r in ub_asymptotic(10**6, 2) + ub_asymptotic(2, 2):
            assert r.asymptotic
            assert r.value is None


class TestBestBounds:
    def test_exact_cases(self):
        assert best_bounds(6, 4).exact == 8
        assert best_bounds(2, 2).exact == 4
        assert best_bounds(6, 10).exact == 20

    def test_flagged_results_not_aggregated(self):
        bb = best_bounds(2, 30)
        flagged_names = {r.name for r in bb.flagged}
        assert "greedy-spherical" in flagged_names
        assert bb.best_lower == max(r.value_int for r in bb.lower_results if r.applicable)

    def test_consistency_full_grid(self):
        for k in range(2, 41):
            for d in range(2, 41):
                bb = best_bounds(k, d)
                assert bb.best_lower <= bb.best_upper

    def test_balanced_quantity_is_tight(self):
        # the balanced upper bound coincides with the trivial lower bound
        for k in range(2, 20):
            for d in range(2, 20):
                assert ub_balanced(k, d).value_int == lb_trivial(k, d).value_int

    def test_middle_range_selection_is_stable(self):
        # integer case selection agrees with the float endpoints away from
        # the boundary and never flips under a 1e-9 perturbation
        for k in range(3, 41):
            for d in range(2, 41):
                lo = -2 * d + math.sqrt(6 * d * d + 3 * d + 1)
                hi = 2 * d - math.sqrt(d / 2)
                selected = ub_rank_sharp(k, d).kind == "exact"
                if lo + 1e-6 < k < hi - 1e-6:
                    assert selected, (k, d)
                if k < lo - 1e-6 or k > hi + 1e-6:
                    assert not selected, (k, d)
