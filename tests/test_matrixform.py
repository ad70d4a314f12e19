import math
import random
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsing import linalg, spaces
from collapsing.constructions import linf_cross, pk_polytope_norm
from collapsing.errors import PreconditionError
from collapsing.family import check_k_collapsing, check_strong_balancing, make_family
from collapsing.matrixform import (
    check_rows,
    family_from_matrix,
    gram_from_family,
    hadamard_power,
    hadamard_rank_bound,
    make_matrix,
    matrix_from_json,
    matrix_to_json,
    rank,
    rank_certificate,
    row_normalize,
    row_sums,
)
from collapsing.spaces import lp_space, linf_space, norm_eval


def block_matrix(d):
    rows = [[0] * (2 * d) for _ in range(2 * d)]
    for b in range(d):
        rows[2 * b][2 * b] = 1
        rows[2 * b][2 * b + 1] = -1
        rows[2 * b + 1][2 * b] = -1
        rows[2 * b + 1][2 * b + 1] = 1
    return make_matrix(rows)


class TestGram:
    def test_cross_family_gives_block_matrix(self):
        for d in (2, 3, 4):
            a = gram_from_family(linf_cross(d))
            assert a.entries == block_matrix(d).entries

    def test_single_vector(self):
        fam = make_family(linf_space(2), [(1, 0)])
        assert gram_from_family(fam).entries == ((1,),)

    def test_planted_simplex_directions(self):
        fam = make_family(
            lp_space(2, 2),
            [(1.0, 0.0), (-0.5, math.sqrt(3) / 2), (-0.5, -math.sqrt(3) / 2)],
        )
        a = gram_from_family(fam)
        for i in range(3):
            for j in range(3):
                expected = 1.0 if i == j else -0.5
                assert abs(a.entries[i][j] - expected) < 1e-9
        assert rank(a) == 2

    def test_zero_vector_rejected(self):
        fam = make_family(linf_space(2), [(0, 0)])
        with pytest.raises(PreconditionError):
            gram_from_family(fam)

    def test_one_norm_evaluation_per_vector(self):
        # The slab norm is one pass of inner products <f, x>, one per row f,
        # and the dual reads its attaining row from that same pass; a dual
        # that evaluated the norm first and then searched the rows again
        # would call ``dot`` more often.
        space = pk_polytope_norm(4, 2)
        fam = make_family(space, linf_cross(4).vectors)
        calls = []

        def profile(frame, event, arg):
            if (event == "call" and frame.f_code is linalg.dot.__code__
                    and frame.f_back.f_code.co_filename == spaces.__file__):
                calls.append(event)

        outer = sys.getprofile()
        sys.setprofile(profile)
        try:
            gram_from_family(fam)
        finally:
            sys.setprofile(outer)
        assert len(calls) == fam.m * len(spaces._slab_rows(space))


class TestFamilyFromMatrix:
    def test_block_matrix_roundtrip(self):
        d = 3
        a = block_matrix(d)
        fam = family_from_matrix(a, d)
        assert fam.m == 2 * d
        assert all(norm_eval(fam.space, v) == 1 for v in fam.vectors)
        for k in range(1, 2 * d + 1):
            assert check_k_collapsing(fam, k).holds
        assert check_strong_balancing(fam).holds

    def test_identity_single(self):
        fam = family_from_matrix(make_matrix([[1]]), 2)
        assert fam.m == 1
        assert norm_eval(fam.space, fam.vectors[0]) == 1

    def test_rank_guard(self):
        with pytest.raises(PreconditionError):
            family_from_matrix(make_matrix([[1, 0], [0, 1]]), 1)


class TestRowNormalize:
    def test_sub_unit_diagonal_rejected(self):
        with pytest.raises(PreconditionError):
            row_normalize(make_matrix([[F(1, 2), 0], [0, 1]]))

    def test_basic(self):
        a = make_matrix([[2, 1], [-1, 1]])
        out = row_normalize(a)
        assert out.entries == ((1, F(1, 2)), (-1, 1))

    def test_identity_fixed_point(self):
        a = make_matrix([[1, 0], [0, 1]])
        assert row_normalize(a).entries == a.entries

    def test_off_diagonal_verified(self):
        with pytest.raises(PreconditionError):
            row_normalize(make_matrix([[1, 2], [0, 1]]))

    def test_preserves_rank_and_row_properties(self):
        a = make_matrix([[F(3, 2), -F(1, 2), -F(1, 2)],
                         [-F(1, 2), 1, -F(1, 2)],
                         [-F(1, 2), -F(1, 2), 1]])
        out = row_normalize(a)
        assert rank(out) == rank(a)
        assert all(v == 1 for v in (out.entries[i][i] for i in range(3)))
        assert check_rows(a, 2) == check_rows(out, 2)
        assert all(s == 0 for s in row_sums(out)) == all(s == 0 for s in row_sums(a))


class TestRank:
    def test_block(self):
        for d in (1, 2, 4):
            assert rank(block_matrix(d)) == d

    def test_zero(self):
        assert rank(make_matrix([[0, 0], [0, 0]])) == 0

    @given(st.integers(1, 3), st.data())
    @settings(max_examples=40, deadline=None)
    def test_outer_product_sums(self, r, data):
        m = data.draw(st.integers(r + 1, 6))
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        rows = [[0] * m for _ in range(m)]
        for _ in range(r):
            u = [rng.randint(-3, 3) for _ in range(m)]
            v = [rng.randint(-3, 3) for _ in range(m)]
            for i in range(m):
                for j in range(m):
                    rows[i][j] += u[i] * v[j]
        assert rank(make_matrix(rows)) <= r


class TestRankCertificate:
    def test_block_certificate(self):
        for d in range(1, 6):
            cert = rank_certificate(block_matrix(d))
            assert cert.trace == 2 * d
            assert cert.frobenius_sq == 4 * d
            assert cert.rank_lower_bound == d
            assert cert.rank == d
            assert cert.equality_case

    def test_identity(self):
        cert = rank_certificate(make_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert cert.rank_lower_bound == 3 == cert.rank
        assert cert.equality_case

    def test_non_normal(self):
        cert = rank_certificate(make_matrix([[1, 1], [0, 1]]))
        assert cert.trace == 2
        assert cert.frobenius_sq == 3
        assert cert.rank_lower_bound == F(4, 3)
        assert cert.rank == 2
        assert not cert.equality_case

    def test_symmetric_unequal_eigenvalues_not_equality(self):
        cert = rank_certificate(make_matrix([[2, 0], [0, 1]]))
        assert not cert.equality_case
        assert cert.rank_lower_bound == F(9, 5)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_star_inequality_random_exact(self, data):
        m = data.draw(st.integers(1, 5))
        entries = [
            [data.draw(st.fractions(min_value=F(-3), max_value=F(3), max_denominator=4))
             for _ in range(m)]
            for _ in range(m)
        ]
        cert = rank_certificate(make_matrix(entries))
        assert cert.rank_lower_bound <= cert.rank

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_star_inequality_random_float(self, data):
        m = data.draw(st.integers(1, 5))
        rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
        entries = [[float(x) for x in row] for row in rng.normal(size=(m, m))]
        cert = rank_certificate(make_matrix(entries))
        assert cert.rank_lower_bound <= cert.rank + 1e-9 * max(1, cert.rank)


class TestHadamard:
    def test_identity_power(self):
        ident = make_matrix([[1, 0], [0, 1]])
        assert hadamard_power(ident, 3).entries == ident.entries

    def test_all_ones(self):
        ones = make_matrix([[1] * 3] * 3)
        assert rank(hadamard_power(ones, 5)) == 1

    def test_bound_formula(self):
        assert hadamard_rank_bound(2, 2) == 3
        assert hadamard_rank_bound(1, 7) == 1

    @given(st.integers(1, 3), st.integers(1, 3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_rank_bound_random(self, r, p, data):
        m = data.draw(st.integers(r + 1, 8))
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        rows = [[0] * m for _ in range(m)]
        for _ in range(r):
            u = [rng.randint(-2, 2) for _ in range(m)]
            v = [rng.randint(-2, 2) for _ in range(m)]
            for i in range(m):
                for j in range(m):
                    rows[i][j] += u[i] * v[j]
        a = make_matrix(rows)
        ra = rank(a)
        assert rank(hadamard_power(a, p)) <= hadamard_rank_bound(ra, p)


class TestCheckRows:
    def test_block(self):
        assert check_rows(block_matrix(3), 2)

    def test_identity(self):
        assert check_rows(make_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 2)

    def test_all_ones_fails(self):
        assert not check_rows(make_matrix([[1] * 3] * 3), 2)


class TestPipelineRoundTrip:
    def test_unit_diagonal_matrix_roundtrip(self):
        # unit diagonal, small off-diagonal, rows 2-collapsing and zero-sum
        a = make_matrix(
            [
                [1, -F(1, 3), -F(1, 3), -F(1, 3)],
                [-F(1, 3), 1, -F(1, 3), -F(1, 3)],
                [-F(1, 3), -F(1, 3), 1, -F(1, 3)],
                [-F(1, 3), -F(1, 3), -F(1, 3), 1],
            ]
        )
        assert check_rows(a, 2)
        assert all(s == 0 for s in row_sums(a))
        fam = family_from_matrix(a, rank(a))
        assert all(norm_eval(fam.space, v) == 1 for v in fam.vectors)
        assert check_k_collapsing(fam, 2).holds
        assert check_strong_balancing(fam).holds


def test_matrix_json_roundtrip():
    a = make_matrix([[F(1, 2), 1], [0, 2]])
    assert matrix_from_json(matrix_to_json(a)).entries == a.entries
