from fractions import Fraction as F
from itertools import combinations

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsing.errors import PreconditionError
from collapsing.family import scalar_k_collapsing
from collapsing.linalg import solve_square
from collapsing.simplexopt import (
    EXACT,
    UPPER_BOUND_ONLY,
    _constraints,
    _vertices,
    max_pow_general,
    max_sq_balanced,
    vertex_oracle,
)


class TestBalancedClosedForm:
    def test_value_is_one(self):
        for m, k in [(5, 2), (6, 4), (10, 3)]:
            res = max_sq_balanced(m, k)
            assert res.value == 1
            assert res.exactness == EXACT
            assert res.attaining_vertex == tuple([F(0)] * (m - 2) + [F(-1)])

    def test_range_guard(self):
        with pytest.raises(PreconditionError):
            max_sq_balanced(4, 3)


class TestGeneralClosedForm:
    def test_k2_flat_regime(self):
        assert max_pow_general(9, 2, 1).value == 2  # (m-1)/4

    def test_k3_spike_regime(self):
        assert max_pow_general(14, 3, 1).value == F(13, 9)

    def test_power_two(self):
        assert max_pow_general(10, 4, 2).value == 1

    def test_upper_bound_regime_tagged(self):
        res = max_pow_general(9, 6, 1)
        assert res.exactness == UPPER_BOUND_ONLY
        assert res.attaining_vertex is None
        assert res.relaxation_t is not None

    def test_p2_range_guard(self):
        with pytest.raises(PreconditionError):
            max_pow_general(10, 6, 2)


class TestOracle:
    def test_balanced_small(self):
        res = vertex_oracle(5, 2, 1, balanced=True)
        assert res.value == 1
        assert res.attaining_vertex == (0, 0, 0, -1)

    def test_matches_closed_form(self):
        assert vertex_oracle(8, 3, 1).value == max_pow_general(8, 3, 1).value == 1

    def test_upper_bound_dominates_oracle(self):
        oracle = vertex_oracle(9, 6, 1)
        closed = max_pow_general(9, 6, 1)
        assert oracle.value <= closed.value

    def test_guard(self):
        with pytest.raises(PreconditionError):
            vertex_oracle(17, 3, 1)

    def test_balanced_symmetric_in_k(self):
        for m in (6, 7, 8):
            values = {k: vertex_oracle(m, k, 1, balanced=True).value for k in range(2, m - 1)}
            for k in range(2, m - 1):
                assert values[k] == values[m - k if 2 <= m - k <= m - 2 else k]

    def test_attaining_vertex_is_collapsing_tuple(self):
        # appending 1 to the argmax must give a genuinely k-collapsing family
        for m, k, p, balanced in [(7, 2, 1, False), (8, 3, 1, False), (9, 4, 2, False),
                                  (7, 3, 1, True), (9, 5, 1, True)]:
            res = vertex_oracle(m, k, p, balanced=balanced)
            values = res.attaining_vertex + (F(1),)
            assert scalar_k_collapsing(values, k)[0], (m, k, p, balanced)
            if balanced:
                assert sum(values) == 0

    def test_small_grid_equivalence(self):
        for m in range(4, 9):
            for k in range(2, m - 1):
                closed = max_pow_general(m, k, 1)
                oracle = vertex_oracle(m, k, 1)
                if closed.exactness == EXACT:
                    assert closed.value == oracle.value, (m, k)
                else:
                    assert oracle.value <= closed.value, (m, k)

    def test_vertex_descending(self):
        res = vertex_oracle(9, 3, 1)
        v = res.attaining_vertex
        assert all(a >= b for a, b in zip(v, v[1:]))


class TestConstraintSet:
    """The oracle's linear description must coincide with the genuine
    condition on sorted tuples -- this is what makes it an oracle."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_rows_equal_condition_general(self, data):
        m = data.draw(st.integers(4, 9))
        k = data.draw(st.integers(2, m - 2))
        alphas = tuple(
            sorted(
                data.draw(
                    st.lists(
                        st.fractions(min_value=F(-3, 2), max_value=F(3, 2), max_denominator=6),
                        min_size=m - 1,
                        max_size=m - 1,
                    )
                ),
                reverse=True,
            )
        )
        ineqs, _ = _constraints(m, k, balanced=False)
        satisfies = all(
            sum(c * x for c, x in zip(row, alphas)) <= b for row, b in ineqs
        )
        genuine = scalar_k_collapsing(alphas + (F(1),), k)[0]
        assert satisfies == genuine

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_condition_balanced(self, data):
        m = data.draw(st.integers(4, 9))
        k = data.draw(st.integers(2, m - 2))
        raw = data.draw(
            st.lists(
                st.fractions(min_value=F(-3, 2), max_value=F(3, 2), max_denominator=6),
                min_size=m - 2,
                max_size=m - 2,
            )
        )
        last = F(-1) - sum(raw)  # force the balance equality
        alphas = tuple(sorted(raw + [last], reverse=True))
        ineqs, eqs = _constraints(m, k, balanced=True)
        assert all(sum(c * x for c, x in zip(row, alphas)) == b for row, b in eqs)
        satisfies = all(
            sum(c * x for c, x in zip(row, alphas)) <= b for row, b in ineqs
        )
        genuine = scalar_k_collapsing(alphas + (F(1),), k)[0]
        assert satisfies == genuine


class TestClosedFormVertices:
    def test_vertex_evaluates_to_value_and_is_feasible(self):
        cases = [(9, 2, 1), (14, 3, 1), (10, 4, 2), (8, 3, 1), (12, 2, 3)]
        for m, k, p in cases:
            res = max_pow_general(m, k, p)
            assert res.exactness == EXACT
            v = res.attaining_vertex
            assert sum(x ** (2 * p) for x in v) == res.value
            assert scalar_k_collapsing(v + (F(1),), k)[0], (m, k, p)
        for m, k in [(6, 2), (9, 4), (12, 10)]:
            res = max_sq_balanced(m, k)
            v = res.attaining_vertex
            assert sum(x * x for x in v) == res.value == 1
            assert scalar_k_collapsing(v + (F(1),), k)[0]
            assert sum(v) + 1 == 0


def reference_vertices(m: int, k: int, balanced: bool) -> set:
    """The n x n active-set loop: every choice of n - #eq inequalities of
    ``_constraints``, with the equalities, solved as one n x n system."""
    ineqs, eqs = _constraints(m, k, balanced)
    vertices = set()
    for active in combinations(range(len(ineqs)), m - 1 - len(eqs)):
        rows = [eq[0] for eq in eqs] + [ineqs[i][0] for i in active]
        rhs = [eq[1] for eq in eqs] + [ineqs[i][1] for i in active]
        sol = solve_square(rows, rhs)
        if sol is not None and all(
            sum(c * x for c, x in zip(row, sol)) <= b for row, b in ineqs
        ):
            vertices.add(tuple(sol))
    return vertices


class TestBlockOracle:
    """The block-coordinate enumeration against the n x n reference loop."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_full_active_set_loop(self, data):
        m = data.draw(st.integers(4, 10))
        balanced = data.draw(st.booleans())
        p = data.draw(st.sampled_from([1, 2, 3]))
        k_max = m - 2 if balanced or p == 1 else (m + 1) // 2
        k = data.draw(st.integers(2, k_max))
        reference = reference_vertices(m, k, balanced)
        assert _vertices(m, k, balanced) == reference
        # Ties go to the smallest vertex in tuple order.
        best = max(sorted(reference), key=lambda v: sum(x ** (2 * p) for x in v))
        res = vertex_oracle(m, k, p, balanced=balanced)
        assert res.attaining_vertex == best
        assert res.value == sum(x ** (2 * p) for x in best)

    def test_bases_solved(self):
        # One solve per basis: C(n+3, n-#eq), as many as the n x n loop.
        for m, k, balanced, bases in [(12, 5, True, 1001), (16, 6, False, 816)]:
            with patch("collapsing.simplexopt.solve_square", wraps=solve_square) as spy:
                vertex_oracle(m, k, 1, balanced=balanced)
            assert spy.call_count == bases
            assert all(len(call.args[0]) <= 5 for call in spy.call_args_list)
