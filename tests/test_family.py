import itertools
import json
import random
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import collapsing.family as family_module
from collapsing.cli import main
from collapsing.constructions import (
    FiniteFieldParams,
    fixture_X,
    fixture_Y,
    lift_almost_orthogonal,
    linf_cross,
    pk_polytope_norm,
    polynomial_vectors,
)
from collapsing.errors import InvariantError, PreconditionError
from collapsing.family import (
    ConditionReport,
    ScalarFamily,
    bnb_max_subfamily,
    check_full_collapsing,
    check_k_collapsing,
    check_strong_balancing,
    check_weak_balancing,
    diameter_centroid_check,
    family_from_json,
    family_to_json,
    far_partner_check,
    make_family,
    normalisation_check,
    scalar_k_collapsing,
)
from collapsing.spaces import l1_subspace, linf_space, lp_space, norm_eval, slab_space
from collapsing.subsets import sample_subsets


def sign_vectors(d):
    return [v for v in itertools.product((-1, 0, 1), repeat=d) if any(v)]


def drawn_family(data, m):
    """A family of m drawn vectors in a drawn space (sup norm, a slab space
    with a cap, the same slab space with float data, or an l1 subspace),
    with the space's norm as a plain formula.  The float data are halves,
    so every float sum and pairing the scans take is exact."""
    kind = data.draw(st.sampled_from(("linf", "slab", "slab-float", "l1sub")))
    coeff = st.integers(-2, 2)
    if kind == "linf":
        d = data.draw(st.integers(1, 3))
        vectors = [tuple(data.draw(coeff) for _ in range(d)) for _ in range(m)]
        return make_family(linf_space(d), vectors), lambda x: max(abs(c) for c in x)
    halves = [F(data.draw(coeff), 2) for _ in range(2 * m)]
    pairs = list(zip(halves[::2], halves[1::2]))
    if kind == "slab-float":
        pairs = [(float(a), float(b)) for a, b in pairs]
    if kind != "l1sub":
        # rows (1, 0) and (1, 1), cap |x_1 - x_2| <= 2
        space = slab_space([(1, 0), (1, 1)], cap=((1, -1), 2))
        return make_family(space, pairs), lambda x: max(
            abs(x[0]), abs(x[0] + x[1]), abs(x[0] - x[1]) / 2
        )
    basis = ((1, 0, 1, -1), (0, 1, -1, 1))
    vectors = [tuple(a * u + b * v for u, v in zip(*basis)) for a, b in pairs]
    return make_family(l1_subspace(4, basis), vectors), lambda x: sum(abs(c) for c in x)


def _bnb_reference(candidates, k):
    """The branch and bound as one depth-first loop that keeps every j-subset
    sum (j < k) of its chosen prefix and tests each candidate against the
    (k-1)-subset sums, with the plain remaining-count bound and no cap."""
    value = candidates.gauge().value
    order = sorted(
        range(candidates.m),
        key=lambda i: (-value(candidates.vectors[i]), candidates.vectors[i]),
    )
    vectors = [candidates.vectors[i] for i in order]
    n = len(vectors)
    sums = [[(0,) * len(vectors[0])]] + [[] for _ in range(k - 1)]
    best, stack = [], []

    def extend(start):
        nonlocal best
        if len(stack) > len(best):
            best = stack.copy()
        for c in range(start, n):
            if len(stack) + (n - c) <= len(best):
                break
            v = vectors[c]
            if any(value([a + b for a, b in zip(s, v)]) > 1 for s in sums[k - 1]):
                continue
            saved = [len(s) for s in sums]
            for j in range(k - 1, 0, -1):
                sums[j] += [tuple(a + b for a, b in zip(s, v)) for s in sums[j - 1]]
            stack.append(c)
            extend(c + 1)
            stack.pop()
            for j in range(1, k):
                del sums[j][saved[j]:]

    extend(0)
    return tuple(sorted(order[i] + 1 for i in best))


def brute_force(vectors, norm, subsets):
    """Worst norm and lex smallest violating 1-based subset, one sum at a time."""
    sums = {
        idx: norm([sum(F(vectors[i][c]) for i in idx) for c in range(len(vectors[0]))])
        for idx in subsets
    }
    violators = [tuple(i + 1 for i in idx) for idx, s in sums.items() if s > 1]
    return max(sums.values()), min(violators, default=None)


class TestKCollapsing:
    def test_cross_family_all_k(self):
        for d in (2, 3, 4):
            family = linf_cross(d)
            for k in range(1, 2 * d + 1):
                assert check_k_collapsing(family, k).holds

    def test_duplicate_vector_violates(self):
        family = make_family(linf_space(2), [(1, 0), (1, 0)])
        report = check_k_collapsing(family, 2)
        assert not report.holds
        assert report.witness == (1, 2)
        assert report.margin == 2

    def test_witness_is_lex_smallest(self):
        family = make_family(linf_space(1), [(1,), (1,), (1,)])
        report = check_k_collapsing(family, 2)
        assert report.witness == (1, 2)

    def test_budget_requires_seed(self):
        family = linf_cross(5)
        with pytest.raises(PreconditionError):
            check_k_collapsing(family, 5, budget=10)

    def test_budget_below_one_rejected(self):
        family = make_family(linf_space(1), [(1,), (1,), (1,)])
        for budget in (0, -1):
            with pytest.raises(PreconditionError):
                check_k_collapsing(family, 2, budget=budget, seed=1)

    def test_sampled_mode_flags_report(self):
        family = linf_cross(5)
        report = check_k_collapsing(family, 5, budget=10, seed=3)
        assert report.sampled
        assert report.holds

    def test_lift_margins_in_row_coordinates(self):
        _, family = lift_almost_orthogonal(polynomial_vectors(FiniteFieldParams(q=7, s=1)), 2)
        report = check_k_collapsing(family, 2)
        assert (report.holds, report.margin, report.witness) == (True, F(11, 12), None)
        report = check_k_collapsing(family, 3)
        assert (report.holds, report.margin, report.witness) == (False, F(11, 8), (1, 2, 3))

    # ``verify --threads`` is a no-op kept for old command lines: the scan
    # runs in one process whatever the value.
    SLAB_FAMILY = {
        "space": {"dim": 2, "kind": "slab", "functionals": [[1, 0], [1, 1]],
                  "cap": {"direction": [1, -1], "bound": 2}},
        "vectors": [["1/2", 0], [0, "1/2"], ["1/2", "-1"], [-1, "1/2"], ["1/2", "1/2"]],
    }

    @staticmethod
    def verify_outputs(tmp_path, capsys, monkeypatch, threads):
        import multiprocessing

        def no_pool(*args, **kwargs):
            pytest.fail("verify started a process pool")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        path = tmp_path / "slab.json"
        path.write_text(json.dumps(TestKCollapsing.SLAB_FAMILY))
        outputs = []
        for t in threads:
            code = main(["verify", "--family", str(path), "--k", "2", "--threads", t])
            outputs.append((code, capsys.readouterr().out))
        return outputs

    def test_parallel_scan_matches_serial(self, tmp_path, capsys, monkeypatch):
        serial, parallel = self.verify_outputs(tmp_path, capsys, monkeypatch, ("1", "2"))
        assert serial == parallel
        assert serial[0] == 1
        assert json.loads(serial[1])["witness"] is not None

    def test_threads_clamped_to_cpu_count(self, tmp_path, capsys, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        serial, wide = self.verify_outputs(tmp_path, capsys, monkeypatch, ("1", "8"))
        assert serial == wide

    def test_k_out_of_range(self):
        family = linf_cross(2)
        with pytest.raises(PreconditionError):
            check_k_collapsing(family, 5)

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_scan_matches_brute_force(self, data):
        m = data.draw(st.integers(2, 7))
        k = data.draw(st.integers(1, m))
        family, norm = drawn_family(data, m)
        report = check_k_collapsing(family, k)
        worst, witness = brute_force(family.vectors, norm, itertools.combinations(range(m), k))
        assert report.margin == worst
        assert report.witness == witness
        assert report.holds == (witness is None)
        assert not report.sampled

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_sampled_scan_matches_brute_force(self, data):
        m = data.draw(st.integers(3, 7))
        k = data.draw(st.integers(1, m - 1))
        budget = data.draw(st.integers(1, comb(m, k) - 1))
        seed = data.draw(st.integers(0, 2**31 - 1))
        family, norm = drawn_family(data, m)
        report = check_k_collapsing(family, k, budget=budget, seed=seed)
        worst, witness = brute_force(family.vectors, norm, sample_subsets(m, k, budget, seed))
        assert report.sampled
        assert report.margin == worst
        assert report.witness == witness
        assert report.holds == (witness is None)

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_full_scan_matches_brute_force(self, data):
        m = data.draw(st.integers(1, 6))
        family, norm = drawn_family(data, m)
        report = check_full_collapsing(family)
        subsets = itertools.chain.from_iterable(
            itertools.combinations(range(m), size) for size in range(1, m + 1)
        )
        worst, witness = brute_force(family.vectors, norm, subsets)
        assert report.margin == worst
        assert report.witness == witness
        assert report.holds == (witness is None)


class TestExactLp:
    """Exact lp norms with an integer 1 < p < inf are compared through their
    exact p-th power sum |c|^p, never through a rounded root."""

    @pytest.mark.parametrize("p", [2, 3])
    def test_tiny_excess_is_caught(self, p):
        # (1/2, 1e-10) + (1/2, 0) = (1, 1e-10) has norm just above 1.
        family = make_family(lp_space(2, p), [(F(1, 2), F(1, 10**10)), (F(1, 2), 0)])
        for report in (check_k_collapsing(family, 2), check_full_collapsing(family)):
            assert not report.holds
            assert report.witness == (1, 2)
            assert report.margin == 1 + F(1, 10 ** (10 * p))
            assert report.to_json()["margin_pow"] == p
        report = check_strong_balancing(family)
        assert (report.holds, report.margin, report.margin_pow) == (
            False, 1 + F(1, 10 ** (10 * p)), p)

    def test_non_integer_p_rejected_in_exact_mode(self):
        family = make_family(lp_space(2, F(5, 2)), [(1, 0), (0, 1)])
        for check in (lambda f: check_k_collapsing(f, 1), check_full_collapsing,
                      check_strong_balancing):
            with pytest.raises(PreconditionError):
                check(family)

    def test_other_reports_carry_no_power(self):
        exact = check_k_collapsing(make_family(lp_space(2, 1), [(1, 0), (0, 1)]), 2)
        floats = check_k_collapsing(make_family(lp_space(2, 2), [(0.5, 0.0), (0.0, 0.5)]), 2)
        for report in (exact, floats):
            assert report.margin_pow is None
            assert "margin_pow" not in report.to_json()
        assert isinstance(floats.margin, float)

    def test_exact_report_with_float_margin_is_invariant_breach(self):
        with pytest.raises(InvariantError):
            ConditionReport(condition="k-collapsing", holds=True, margin=0.5, k=2)
        ConditionReport(condition="k-collapsing", holds=True, margin=0.5, k=2, exact=False)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_pth_power_brute_force(self, data):
        p = data.draw(st.sampled_from((2, 3, 4)))
        d = data.draw(st.integers(1, 3))
        m = data.draw(st.integers(1, 6))
        k = data.draw(st.integers(1, m))
        coeff = st.fractions(min_value=F(-1), max_value=F(1), max_denominator=4)
        vectors = [tuple(data.draw(coeff) for _ in range(d)) for _ in range(m)]
        family = make_family(lp_space(d, p), vectors)

        def power(x):
            return sum(abs(c) ** p for c in x)

        report = check_k_collapsing(family, k)
        worst, witness = brute_force(vectors, power, itertools.combinations(range(m), k))
        assert (report.margin, report.witness, report.holds) == (worst, witness, witness is None)
        full = check_full_collapsing(family)
        subsets = itertools.chain.from_iterable(
            itertools.combinations(range(m), size) for size in range(1, m + 1)
        )
        worst, witness = brute_force(vectors, power, subsets)
        assert (full.margin, full.witness, full.holds) == (worst, witness, witness is None)
        strong = check_strong_balancing(family)
        total = brute_force(vectors, power, [tuple(range(m))])[0]
        assert (strong.margin, strong.holds) == (total, total == 0)
        for rep in (report, full, strong):
            assert rep.exact and rep.margin_pow == p
            assert not isinstance(rep.margin, float)


class TestFullCollapsing:
    def test_pair_in_padded_line(self):
        family = make_family(linf_space(2), [(1, 0), (-1, 0)])
        assert check_full_collapsing(family).holds

    def test_cross_families(self):
        for d in (2, 3, 5):
            assert check_full_collapsing(linf_cross(d)).holds

    def test_three_vector_violation(self):
        family = make_family(
            linf_space(2), [(1, 0), (0, 1), (F(9, 10), F(9, 10))]
        )
        report = check_full_collapsing(family)
        assert not report.holds
        assert report.witness == (1, 2, 3)

    def test_guard(self):
        family = make_family(linf_space(1), [(0,)] * 25)
        with pytest.raises(PreconditionError):
            check_full_collapsing(family)


class TestBalancing:
    def test_strong_cross(self):
        assert check_strong_balancing(linf_cross(3)).holds

    def test_strong_fails(self):
        family = make_family(linf_space(2), [(1, 0), (1, 0)])
        assert not check_strong_balancing(family).holds

    def test_strong_fixture_Y(self):
        for d in (2, 3, 4):
            assert check_strong_balancing(fixture_Y(d)).holds

    def test_weak_segment_through_origin(self):
        family = make_family(linf_space(2), [(1, 0), (-1, 0)])
        assert check_weak_balancing(family).holds

    def test_weak_two_independent(self):
        family = make_family(linf_space(2), [(1, 0), (0, 1)])
        assert not check_weak_balancing(family).holds

    def test_weak_origin_on_boundary_edge(self):
        family = make_family(linf_space(2), [(1, 0), (-1, 0), (0, 1)])
        assert not check_weak_balancing(family).holds

    def test_weak_triangle_containing_origin(self):
        family = make_family(
            linf_space(2), [(1, 0), (-1, 1), (-1, -1)]
        )
        assert check_weak_balancing(family).holds

    def test_weak_lift_pinned(self):
        # Every lifted vector ends in 1, so the LP is infeasible: margin 0.
        _, family = lift_almost_orthogonal(polynomial_vectors(FiniteFieldParams(q=7, s=1)), 2)
        report = check_weak_balancing(family)
        assert (report.holds, report.margin) == (False, 0)

    def test_weak_balanced_sup_pinned(self):
        # The converse construction with zero row sums (m = 20, k = 3): each
        # row is t on the diagonal and -t/(m-1) elsewhere, for a seeded t,
        # so the columns sum to zero and the best minimum weight is 1/m.
        m, k = 20, 3
        rng = random.Random(2012)
        cap = min(F(m - 1, k), F(m - 1, m - k), F(3, 2))
        rows = []
        for i in range(m):
            t = 1 + (cap - 1) * F(rng.randint(0, 8), 8)
            rows.append([t if j == i else -t / (m - 1) for j in range(m)])
        family = make_family(linf_space(m), [tuple(col) for col in zip(*rows)])
        report = check_weak_balancing(family)
        assert (report.holds, report.margin) == (True, F(1, 20))


class TestScalarChecks:
    def test_simple(self):
        assert scalar_k_collapsing([1, -1, 0, 0], 2)[0]

    def test_fast_path_margin(self):
        holds, margin, witness = scalar_k_collapsing((F(3, 2), 1, 1), 2, want_witness=True)
        assert not holds
        assert margin == F(5, 2)
        assert witness == (1, 2)

    @given(st.lists(st.fractions(min_value=F(-2), max_value=F(2), max_denominator=4),
                    min_size=2, max_size=7), st.data())
    @settings(max_examples=150, deadline=None)
    def test_fast_path_matches_enumeration(self, values, data):
        k = data.draw(st.integers(1, len(values)))
        brute = max(
            abs(sum(c)) for c in itertools.combinations(values, k)
        )
        holds, margin, _ = scalar_k_collapsing(values, k)
        assert margin == brute
        assert holds == (brute <= 1)


class TestNormalisation:
    def test_trivial_case(self):
        ok, violations = normalisation_check(ScalarFamily((1, -1, 0, 0)), 2)
        assert ok and not violations

    def test_range_guard(self):
        with pytest.raises(PreconditionError):
            normalisation_check(ScalarFamily((1, -1, 0)), 2)

    def test_non_collapsing_rejected(self):
        with pytest.raises(PreconditionError):
            normalisation_check(ScalarFamily((2, 2, 0, 0, 0)), 2)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_random_collapsing_families_satisfy_conclusion(self, data):
        m = data.draw(st.integers(4, 8))
        k = data.draw(st.integers(2, m - 2))
        values = tuple(
            data.draw(
                st.lists(
                    st.fractions(min_value=F(-3, 2), max_value=F(3, 2), max_denominator=6),
                    min_size=m, max_size=m,
                )
            )
        )
        if not scalar_k_collapsing(values, k)[0]:
            return  # rejection sampling
        ok, violations = normalisation_check(ScalarFamily(values), k)
        assert ok, violations


class TestFarPartner:
    def test_antipodal_pair(self):
        family = make_family(lp_space(2, 2), [(1, 0), (-1, 0)])
        assert far_partner_check(family, [1, 2])

    def test_cross_pairs(self):
        family = linf_cross(3)
        for pair in itertools.combinations(range(1, 7), 2):
            assert far_partner_check(family, pair)

    def test_simplex_directions(self):
        # three unit vectors at mutual angle 120 degrees: all distances sqrt(3)
        import math

        family = make_family(
            lp_space(2, 2),
            [
                (1.0, 0.0),
                (-0.5, math.sqrt(3) / 2),
                (-0.5, -math.sqrt(3) / 2),
            ],
        )
        assert far_partner_check(family, [1, 2, 3])

    def test_precondition_reported(self):
        family = make_family(linf_space(2), [(F(1, 2), 0), (0, 1)])
        with pytest.raises(PreconditionError):
            far_partner_check(family, [1, 2])

    def test_balanced_unit_fixture_full_subset(self):
        # d+1 unit vectors summing to zero: the whole family qualifies
        for d in (2, 3, 4):
            family = fixture_Y(d)
            assert far_partner_check(family, range(1, d + 2))


class TestDiameterCentroid:
    def test_exact_l2_reports_powers(self):
        # An exact l2 diameter or centroid norm is irrational in general.
        family = make_family(lp_space(2, 2), [(1, 0), (F(3, 5), F(4, 5))])
        report = diameter_centroid_check(family)
        assert report.power == 2
        # the norms themselves are sqrt(4/5), below 1 + 1/2 and above 1/4
        assert (report.diameter, report.centroid_norm) == (F(4, 5), F(4, 5))
        assert not any(isinstance(v, float) for v in (report.diameter, report.centroid_norm))
        assert report.hypothesis_holds and report.conclusion_holds


    def test_fixture_X_exact_values(self):
        report = diameter_centroid_check(fixture_X(4, F(1, 100)))
        assert report.diameter == 1 + F(1, 4) - F(1, 100)
        assert report.centroid_norm == F(1, 16) + F(3, 4) * F(1, 100)
        assert report.hypothesis_holds and report.conclusion_holds

    def test_fixture_Y_hypothesis_fails(self):
        report = diameter_centroid_check(fixture_Y(3))
        assert report.diameter == F(4, 3)
        assert not report.hypothesis_holds
        assert report.centroid_norm == 0

    def test_single_vector(self):
        family = make_family(linf_space(3), [(1, 0, 0)])
        report = diameter_centroid_check(family)
        assert report.diameter == 0
        assert report.centroid_norm == 1
        assert report.conclusion_holds


class TestBranchAndBound:
    def test_sign_vectors_d2(self):
        family = make_family(linf_space(2), sign_vectors(2))
        assert len(bnb_max_subfamily(family, 2)) == 4

    def test_repeated_vector(self):
        family = make_family(linf_space(1), [(1,), (1,), (1,)])
        assert len(bnb_max_subfamily(family, 2)) == 1

    @pytest.mark.parametrize("p", [2, 3])
    def test_exact_lp_tiny_excess_keeps_one_vector(self, p):
        # (1/2, 1e-10) + (1/2, 0) has lp norm just above 1; a rounded root reads 1.
        family = make_family(lp_space(2, p), [(F(1, 2), F(1, 10**10)), (F(1, 2), 0)])
        assert len(bnb_max_subfamily(family, 2)) == 1

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, data):
        """The size of the largest k-collapsing sub-multiset over all index
        subsets, with each norm as a plain formula (an lp norm compared
        through its exact p-th power)."""
        kind = data.draw(st.sampled_from(("linf", "slab", "l1", "lp2", "lp3")))
        m = data.draw(st.integers(1, 7))
        k = data.draw(st.integers(1, m))
        if kind == "linf":
            d = data.draw(st.integers(1, 3))
            coeff = st.integers(-1, 1)
            space, norm = linf_space(d), lambda x: max(abs(c) for c in x)
        else:
            d = 2
            coeff = st.integers(-2, 2).map(lambda c: F(c, 2))
            if kind == "slab":
                space = slab_space([(1, 0), (1, 1)], cap=((1, -1), 2))
                norm = lambda x: max(abs(x[0]), abs(x[0] + x[1]), abs(x[0] - x[1]) / 2)  # noqa: E731
            elif kind == "l1":
                space, norm = lp_space(d, 1), lambda x: sum(abs(c) for c in x)
            else:
                p = int(kind[2:])
                space, norm = lp_space(d, p), lambda x: sum(abs(c) ** p for c in x)
        vectors = [tuple(data.draw(coeff) for _ in range(d)) for _ in range(m)]

        def collapsing(idx):
            return all(
                norm([sum(vectors[i][c] for i in sub) for c in range(d)]) <= 1
                for sub in itertools.combinations(idx, k)
            )

        chosen = bnb_max_subfamily(make_family(space, vectors), k)
        largest = max(
            size
            for size in range(m + 1)
            if any(collapsing(idx) for idx in itertools.combinations(range(m), size))
        )
        assert len(chosen) == largest
        assert collapsing([i - 1 for i in chosen])

    def test_float_rejected(self):
        family = make_family(linf_space(2), [(1.0, 0.0)])
        with pytest.raises(PreconditionError):
            bnb_max_subfamily(family, 2)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_rejected(self, k):
        family = make_family(linf_space(2), sign_vectors(2))
        with pytest.raises(PreconditionError, match="k must be at least 1"):
            bnb_max_subfamily(family, k)

    def test_work_cap(self, monkeypatch):
        # The sign vectors of l_inf^2 at k = 2 take 43 steps (nodes and
        # candidate tests).
        family = make_family(linf_space(2), sign_vectors(2))
        monkeypatch.setattr(family_module, "BNB_MAX_WORK", 43)
        assert len(bnb_max_subfamily(family, 2)) == 4
        monkeypatch.setattr(family_module, "BNB_MAX_WORK", 42)
        with pytest.raises(PreconditionError, match="capped at 42 steps"):
            bnb_max_subfamily(family, 2)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_row_intervals_choose_what_subset_sums_choose(self, data):
        """Forward checking in row coordinates picks the very tuple that the
        plain loop over (k-1)-subset sums picks, on sup, capped slab and
        layered-cube families with entries in thirds and halves."""
        kind = data.draw(st.sampled_from(("linf", "slab", "layered-cube")))
        m = data.draw(st.integers(1, 8))
        k = data.draw(st.integers(1, m + 1))
        coeff = st.sampled_from((-1, 0, 1, F(1, 2), F(-1, 2), F(1, 3), F(-2, 3), F(3, 2)))
        if kind == "linf":
            space = linf_space(data.draw(st.integers(1, 3)))
        elif kind == "slab":
            space = slab_space([(1, 0), (1, 1)], cap=((1, -1), 2))
        else:
            space = pk_polytope_norm(data.draw(st.integers(2, 3)), data.draw(st.integers(2, 3)))
        vectors = [tuple(data.draw(coeff) for _ in range(space.dim)) for _ in range(m)]
        family = make_family(space, vectors)
        assert bnb_max_subfamily(family, k) == _bnb_reference(family, k)


class TestComplementMonotonicity:
    def test_balanced_families_collapse_complementarily(self):
        # balanced + k-collapsing implies (m-k)-collapsing
        for d in (2, 3):
            family = linf_cross(d)
            m = family.m
            for k in range(1, m):
                if check_k_collapsing(family, k).holds:
                    assert check_k_collapsing(family, m - k).holds

    def test_random_balanced_families(self):
        from conftest import inflated_family

        for seed in range(12):
            m = 6 + seed % 4
            k = 2 + seed % 3
            family = inflated_family(m, k, 500 + seed, balanced=True)
            assert check_strong_balancing(family).holds
            assert check_k_collapsing(family, k).holds
            assert check_k_collapsing(family, m - k).holds


def test_l1_subspace_outsider_rejected_when_the_family_is_built():
    space = l1_subspace(3, [(1, -1, 0)])
    make_family(space, [(1, -1, 0), (-2, 2, 0)])
    with pytest.raises(PreconditionError):
        make_family(space, [(1, -1, 0), (1, 1, 0)])


def test_family_json_roundtrip():
    family = fixture_X(3, F(1, 10))
    again = family_from_json(family_to_json(family))
    assert again == family


class TestEuclideanConsistency:
    @given(st.integers(0, 10_000))
    @settings(max_examples=80, deadline=None)
    def test_lambda_cap_never_violated(self, seed):
        # norms >= 1 with all k-subset sums of norm <= lambda force
        # m <= (k^2 - lambda^2)/(k - lambda^2) in an inner product space
        import math
        import random

        import numpy as np

        from collapsing.bounds import ub_euclidean

        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 5))
        m = int(rng.integers(2, 7))
        k = int(rng.integers(2, max(3, m + 1)))
        if k > m:
            return
        vecs = rng.normal(size=(m, d))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)  # unit norms
        lam = max(
            float(np.linalg.norm(vecs[list(idx)].sum(axis=0)))
            for idx in itertools.combinations(range(m), k)
        )
        if lam**2 >= k - 1e-9 or lam == 0:
            return
        cap = ub_euclidean(k, lam_sq=lam**2 * (1 + 1e-12))
        assert m <= cap.value + 1e-6


def test_sup_norm_consistency_bound():
    # norms >= 1, k-collapsing, m > k+1 forces m <= 2d in the sup norm;
    # at m = 2d only the signed basis works
    family = linf_cross(3)
    assert family.m == 6
    assert check_k_collapsing(family, 2).holds
    vectors = set(family.vectors)
    expected = set()
    for i in range(3):
        e = tuple(int(j == i) for j in range(3))
        expected.add(e)
        expected.add(tuple(-c for c in e))
    assert vectors == expected


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_sup_norm_size_cap_probe(data):
    # no sampled sup-norm family may beat the max(k+1, 2d) cap
    d = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(2, 8))
    k = data.draw(st.integers(2, m))
    vectors = [
        tuple(data.draw(st.integers(-2, 2)) for _ in range(d)) for _ in range(m)
    ]
    family = make_family(linf_space(d), vectors)
    if any(norm_eval(family.space, v) < 1 for v in vectors):
        return
    if m > k + 1 and check_k_collapsing(family, k).holds:
        assert m <= 2 * d
