import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsing.constructions import linf_cross
from collapsing.errors import PreconditionError
from collapsing.family import make_family
from collapsing.graphtools import (
    bm_pipeline_check,
    equitable_coloring,
    is_equitable,
    is_proper,
    make_graph,
    max_degree,
    partition_inequality,
    proximity_graph,
    random_bounded_degree_graph,
)
from collapsing.spaces import linf_space, lp_space


class TestProximity:
    def test_cross_family_is_spread_out(self):
        g = proximity_graph(linf_cross(4), 1)
        assert len(g.edges) == 0

    def test_duplicates_are_joined(self):
        fam = make_family(linf_space(2), [(1, 0), (1, 0)])
        g = proximity_graph(fam, 1)
        assert g.edges == frozenset({(0, 1)})

    def test_epsilon_threshold_variant(self):
        fam = make_family(linf_space(2), [(1, 0), (F(3, 2), 0), (3, 0)])
        g = proximity_graph(fam, F(3, 4))
        assert g.edges == frozenset({(0, 1)})

    def test_exact_l2_distance_just_below_threshold(self):
        # |(3/5, 4/5 - 1e-20)|^2 = 1 - 1.6e-20 + 1e-40; a rounded root reads 1.
        fam = make_family(lp_space(2, 2), [(F(3, 5), F(4, 5) - F(1, 10**20)), (0, 0)])
        assert proximity_graph(fam, 1).edges == frozenset({(0, 1)})

    def test_collapsing_family_degree_bound(self):
        # k-collapsing with norms >= 1 forces max degree <= k-2
        for d in (2, 3, 4):
            fam = linf_cross(d)
            for k in range(2, 2 * d + 1):
                g = proximity_graph(fam, 1)
                assert max_degree(g) <= k - 2


class TestMaxDegree:
    def test_empty(self):
        assert max_degree(make_graph(4, [])) == 0

    def test_star(self):
        assert max_degree(make_graph(5, [(0, i) for i in range(1, 5)])) == 4

    def test_matches_brute_count(self):
        rng = random.Random(4)
        edges = {(i, j) for i in range(10) for j in range(i + 1, 10) if rng.random() < 0.5}
        g = make_graph(10, edges)
        degree = [0] * 10
        for i, j in edges:
            degree[i] += 1
            degree[j] += 1
        assert max_degree(g) == max(degree)


class TestEquitableColoring:
    def test_empty_graph_sizes(self):
        col = equitable_coloring(make_graph(7, []), 3)
        assert sorted(col.class_sizes) == [2, 2, 3]

    def test_cycle(self):
        c6 = make_graph(6, [(i, (i + 1) % 6) for i in range(6)])
        col = equitable_coloring(c6, 3)
        assert is_equitable(c6, col.assignment, 3)
        assert sorted(col.class_sizes) == [2, 2, 2]

    def test_precondition_refused(self):
        star = make_graph(5, [(0, i) for i in range(1, 5)])
        with pytest.raises(PreconditionError):
            equitable_coloring(star, 4)  # k must exceed the max degree

    def test_bipartite_trap(self):
        # complete bipartite K_{4,4} with k=6: greedy piles one side up
        edges = [(i, 4 + j) for i in range(4) for j in range(4)]
        g = make_graph(8, edges)
        col = equitable_coloring(g, 6)
        assert is_equitable(g, col.assignment, 6)

    @given(st.integers(0, 10_000), st.integers(3, 8), st.integers(5, 60))
    @settings(max_examples=120, deadline=None)
    def test_random_graphs(self, seed, k, n):
        g = random_bounded_degree_graph(n, k - 2, seed, density=0.8)
        col = equitable_coloring(g, k)
        assert is_proper(g, col.assignment)
        assert is_equitable(g, col.assignment, k)


class TestPipeline:
    def test_cross_family(self):
        report = bm_pipeline_check(linf_cross(4), 6)
        assert report.collapsing_ok and report.norms_ok
        assert report.degree_ok and report.coloring_ok
        assert report.remainder == 8 - 6 * (8 // 6)
        assert report.inequality_holds

    def test_non_tight_triple(self):
        # the inequality admits (m, k, d) = (19, 6, 4) even though
        # 19 > k (1 + 2/k)^d: the slack is genuine
        lhs, rhs, holds = partition_inequality(19, 6, 4)
        assert holds
        assert 19 > 6 * (4 / 3) ** 4

    def test_degree_stage_failure_reported(self):
        fam = make_family(linf_space(2), [(1, 0), (1, 0)])
        report = bm_pipeline_check(fam, 2)
        assert not report.degree_ok
        assert report.class_sizes is None

    def test_exactness_of_comparison(self):
        # boundary case where floats would waffle: compare exactly
        lhs, rhs, holds = partition_inequality(8, 2, 2)
        assert holds == ((8 // 2) ** 2 * 2 ** (2 * 2) <= 4 ** (2 * 2))
