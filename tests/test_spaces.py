import dataclasses
import math
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsing import matrixform
from collapsing.errors import DimensionMismatchError, PreconditionError
from collapsing.family import make_family
from collapsing.linalg import dot, nullspace
from collapsing.lp import OPTIMAL, linprog_exact
from collapsing.scalars import root_exact
from collapsing.spaces import (
    _slab_rows,
    dual_unit_vector,
    gauge,
    l1_subspace,
    linf_space,
    lp_space,
    norm_eval,
    slab_space,
    space_from_json,
    space_to_json,
)

rational = st.fractions(min_value=F(-4), max_value=F(4), max_denominator=5)


def dual_norm_eval(space, f):
    """Norm of the functional ``f`` under the standard pairing: the reference
    for ``dual_unit_vector``'s ||f||* = 1.  Slab and l1-subspace duals are
    exact LPs and take rational data only."""
    if space.kind == "lp":
        p = space.p
        q = 1 if p == math.inf else math.inf if p == 1 else 2 if p == 2 else p / (p - 1)
        return norm_eval(lp_space(space.dim, q), f)
    f = [F(c) for c in f]
    if space.kind == "slab":
        # The dual ball is the hull of the +-rows: minimise the total
        # |coefficient| of a decomposition f = sum (c+_j - c-_j) row_j.
        rows = [[F(c) for c in row] for row in _slab_rows(space)]
        a_eq = [[row[i] for row in rows] + [-row[i] for row in rows] for i in range(space.dim)]
        res = linprog_exact([F(1)] * (2 * len(rows)), a_eq=a_eq, b_eq=f)
    else:
        # ||f restricted to X||* = min over w in the annihilator of X of ||f + w||_inf;
        # variables: w's coefficients (free) and t >= 0, minimise t.
        ann = nullspace([[F(c) for c in b] for b in space.basis])
        a_ub, b_ub = [], []
        for i in range(space.ambient):
            row_w = [a[i] for a in ann]
            a_ub += [row_w + [F(-1)], [-c for c in row_w] + [F(-1)]]
            b_ub += [-f[i], f[i]]
        res = linprog_exact([F(0)] * len(ann) + [F(1)], a_ub=a_ub, b_ub=b_ub,
                            nonneg=[False] * len(ann) + [True])
    assert res.status == OPTIMAL
    return res.objective


class TestNormEval:
    def test_sup_norm(self):
        assert norm_eval(linf_space(2), (1, -1)) == 1

    def test_euclidean_pythagorean(self):
        assert norm_eval(lp_space(2, 2), (3, 4)) == 5

    def test_slab_gauge(self):
        space = slab_space([(1, 0), (0, 1)])
        assert norm_eval(space, (F(1, 2), -2)) == 2

    def test_slab_gauge_brute_force_boundary(self):
        # scale x onto the boundary: x / norm must have unit gauge
        space = slab_space([(1, 0), (0, 1), (1, 1)])
        x = (F(3), F(-2))
        nrm = norm_eval(space, x)
        scaled = tuple(c / nrm for c in x)
        assert norm_eval(space, scaled) == 1

    def test_l1_subspace_norm(self):
        space = l1_subspace(3, [(1, -1, 0), (0, 0, 1)])
        assert norm_eval(space, (2, -2, 3)) == 7

    def test_l1_subspace_rejects_outsiders(self):
        space = l1_subspace(3, [(1, -1, 0)])
        with pytest.raises(PreconditionError):
            norm_eval(space, (1, 1, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            norm_eval(linf_space(2), (1, 2, 3))

    def test_lp_general(self):
        assert abs(norm_eval(lp_space(2, 3), (1.0, 1.0)) - 2 ** (1 / 3)) < 1e-12


class TestDualUnitVector:
    def test_euclidean_self_dual(self):
        assert dual_unit_vector(lp_space(2, 2), (3, 4)) == (F(3, 5), F(4, 5))

    def test_l1_sign_functional(self):
        f = dual_unit_vector(lp_space(2, 1), (1, -2))
        assert f == (1, -1)
        assert dot(f, (1, -2)) == 3
        assert dual_norm_eval(lp_space(2, 1), f) == 1

    def test_sup_lowest_index_tie_break(self):
        assert dual_unit_vector(linf_space(2), (2, 2)) == (1, 0)

    def test_zero_vector_rejected(self):
        with pytest.raises(PreconditionError):
            dual_unit_vector(linf_space(2), (0, 0))

    def test_exact_lp_rational_norm_stays_exact(self):
        # ||(3, 4, 5)||_3 = 6, since 27 + 64 + 125 = 216.
        nrm = norm_eval(lp_space(3, 3), (3, 4, 5))
        assert nrm == 6 and isinstance(nrm, F)
        f = dual_unit_vector(lp_space(3, 3), (3, 4, 5))
        assert f == (F(1, 4), F(4, 9), F(25, 36))
        assert all(isinstance(c, F) for c in f)
        assert dot(f, (3, 4, 5)) == 6
        assert dual_unit_vector(lp_space(2, 3), (1, 0)) == (1, 0)

    @pytest.mark.parametrize("p", [2, 3, F(5, 2)])
    def test_exact_lp_irrational_norm_rejected(self, p):
        with pytest.raises(PreconditionError, match=r"\(1, 1\)"):
            dual_unit_vector(lp_space(2, p), (1, 1))

    def test_slab_dual_vector(self):
        space = slab_space([(1, 0), (0, 1)])
        f = dual_unit_vector(space, (F(1, 2), -2))
        assert dot(f, (F(1, 2), -2)) == 2
        assert dual_norm_eval(space, f) == 1


class TestDualNormEval:
    def test_l1_dual_is_sup(self):
        assert dual_norm_eval(lp_space(2, 1), (1, -1)) == 1

    def test_euclidean_dual(self):
        assert dual_norm_eval(lp_space(2, 2), (3, 4)) == 5

    def test_slab_decomposition(self):
        space = slab_space([(1, 0), (0, 1)])
        assert dual_norm_eval(space, (2, 3)) == 5

    def test_slab_crosscheck_by_boundary_sampling(self):
        space = slab_space([(1, 0), (0, 1)])
        f = (2, 3)
        # sup of <f, x> over unit-ball corners of the square
        corners = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        assert max(dot(f, c) for c in corners) == dual_norm_eval(space, f)


SPACES = [
    lp_space(2, 1),
    lp_space(3, 1),
    linf_space(2),
    linf_space(3),
    slab_space([(1, 0), (0, 1)]),
    slab_space([(1, 0), (1, 1), (0, 1)]),
]


@given(st.integers(0, len(SPACES) - 1), st.data())
@settings(max_examples=150, deadline=None)
def test_duality_identities(space_index, data):
    space = SPACES[space_index]
    x = tuple(
        data.draw(st.lists(rational, min_size=space.dim, max_size=space.dim))
    )
    if all(c == 0 for c in x):
        return
    f = dual_unit_vector(space, x)
    assert dot(f, x) == norm_eval(space, x)
    assert dual_norm_eval(space, f) == 1


@given(st.integers(0, len(SPACES) - 1), st.data())
@settings(max_examples=150, deadline=None)
def test_pairing_inequality(space_index, data):
    space = SPACES[space_index]
    draw_vec = st.lists(rational, min_size=space.dim, max_size=space.dim)
    f = tuple(data.draw(draw_vec))
    x = tuple(data.draw(draw_vec))
    assert abs(dot(f, x)) <= dual_norm_eval(space, f) * norm_eval(space, x)


@given(st.integers(0, len(SPACES) - 1), st.data())
@settings(max_examples=150, deadline=None)
def test_norm_axioms(space_index, data):
    space = SPACES[space_index]
    draw_vec = st.lists(rational, min_size=space.dim, max_size=space.dim)
    x = tuple(data.draw(draw_vec))
    y = tuple(data.draw(draw_vec))
    t = data.draw(rational)
    nx, ny = norm_eval(space, x), norm_eval(space, y)
    assert (nx == 0) == all(c == 0 for c in x)
    assert norm_eval(space, tuple(a + b for a, b in zip(x, y))) <= nx + ny
    assert norm_eval(space, tuple(t * c for c in x)) == abs(t) * nx


# The hexagon conv{+-e1, +-e2, +-(1, 1)} as the intersection of its three
# facet slabs.
HEXAGON = slab_space([(1, 0), (0, 1), (-1, 1)])

LP_SPACES = [
    HEXAGON,
    l1_subspace(3, [(1, -1, 0), (1, 1, 1)]),
]


@given(st.integers(0, 1), st.data())
@settings(max_examples=40, deadline=None)
def test_lp_backed_spaces_norm_axioms(space_index, data):
    space = LP_SPACES[space_index]
    small = st.fractions(min_value=F(-2), max_value=F(2), max_denominator=3)
    if space.kind == "l1sub":
        # draw inside the subspace
        def draw_vec():
            c = (data.draw(small), data.draw(small))
            return tuple(
                c[0] * b0 + c[1] * b1 for b0, b1 in zip(space.basis[0], space.basis[1])
            )
    else:
        def draw_vec():
            return tuple(data.draw(small) for _ in range(space.dim))

    x, y = draw_vec(), draw_vec()
    t = data.draw(small)
    nx, ny = norm_eval(space, x), norm_eval(space, y)
    assert (nx == 0) == all(c == 0 for c in x)
    assert norm_eval(space, tuple(a + b for a, b in zip(x, y))) <= nx + ny
    assert norm_eval(space, tuple(t * c for c in x)) == abs(t) * nx
    if nx != 0:
        f = dual_unit_vector(space, x)
        assert dot(f, x) == nx
        assert dual_norm_eval(space, f) == 1


def test_euclidean_float_duality_within_tolerance():
    space = lp_space(3, 2)
    x = (1.0, 2.0, 2.5)
    f = dual_unit_vector(space, x)
    assert abs(dot(f, x) - norm_eval(space, x)) < 1e-9 * norm_eval(space, x)
    assert abs(dual_norm_eval(space, f) - 1.0) < 1e-9


def test_slab_requires_spanning():
    with pytest.raises(PreconditionError):
        slab_space([(1, 0, 0), (0, 1, 0)])
    # a cap completing the span is accepted
    slab_space([(1, 0, 0), (0, 1, 0)], cap=((0, 0, 1), 2))


def test_hexagon_slab_gauge_and_dual():
    assert norm_eval(HEXAGON, (1, 1)) == 1
    assert norm_eval(HEXAGON, (1, -1)) == 2
    y = dual_unit_vector(HEXAGON, (1, -1))
    assert dot(y, (1, -1)) == 2
    assert dual_norm_eval(HEXAGON, y) == 1


def test_json_roundtrip():
    spaces = [
        linf_space(4),
        lp_space(3, 2),
        slab_space([(1, 0), (0, 1)], cap=((1, 1), F(3, 2))),
        l1_subspace(3, [(1, -1, 0), (0, 0, 1)]),
    ]
    for s in spaces:
        assert space_from_json(space_to_json(s)) == s


# One space of every compiled kind: (space, float coordinates).
COMPILED = [
    (linf_space(3), False),
    (lp_space(3, 1), False),
    (slab_space([(1, 0, 0), (1, 1, 0), (0, 1, 0)], cap=((1, 1, 1), 2)), False),
    (l1_subspace(3, [(1, -1, 0), (1, 1, 1)]), False),
    (lp_space(3, 2), False),
    (lp_space(3, 3), False),
    (lp_space(3, 2), True),
]


def reference_dual(space, x):
    """The dual unit vector by its textbook formula, ties to the lowest index."""
    if space.kind == "slab" or space.p == math.inf:
        rows = _slab_rows(space) if space.kind == "slab" else [
            tuple(int(i == j) for i in range(space.dim)) for j in range(space.dim)]
        pairs = [dot(f, x) for f in rows]
        top = max(abs(v) for v in pairs)
        j = min(i for i, v in enumerate(pairs) if abs(v) == top)
        return tuple((1 if pairs[j] > 0 else -1) * c for c in rows[j])
    if space.kind == "l1sub" or space.p == 1:
        return tuple((c > 0) - (c < 0) for c in x)
    p, nrm = space.p, norm_eval(space, x)
    return tuple(((c > 0) - (c < 0)) * abs(c) ** (p - 1) / nrm ** (p - 1) for c in x)


def draw_member(data, space, floats):
    if floats:
        # No subnormal coordinates: their squares underflow to a zero norm.
        coord = st.just(0.0) | st.floats(1e-3, 4) | st.floats(-4, -1e-3)
        return tuple(data.draw(coord) for _ in range(space.dim))
    if space.kind == "l1sub":
        a, b = data.draw(st.integers(-2, 2)), data.draw(st.integers(-2, 2))
        return tuple(a * u + b * v for u, v in zip(*space.basis))
    # (1, 2, 2) and (3, 4, 5) have rational l2 and l3 norms.
    rational_norm = st.sampled_from([(1, 2, 2), (-2, 1, 2), (3, 4, 5), (-5, 3, 4), (0, 0, -1)])
    return data.draw(rational_norm | st.tuples(*[st.integers(-2, 2)] * space.dim))


@given(st.integers(0, len(COMPILED) - 1), st.data())
@settings(max_examples=150, deadline=None)
def test_compiled_gauge_matches_norm_eval_and_gram_matches_dual(space_index, data):
    space, floats = COMPILED[space_index]
    drawn = [draw_member(data, space, floats) for _ in range(data.draw(st.integers(1, 4)))]
    vectors = [v for v in drawn if any(c != 0 for c in v)]
    if not vectors:
        return
    family = make_family(space, vectors)
    g = family.gauge()
    for x in vectors:
        nrm = norm_eval(space, x)
        if g.power is None:
            assert g.value(x) == nrm
        else:
            assert g.value(x) == sum(abs(c) ** g.power for c in x)
            assert g.value(x) == nrm ** g.power or isinstance(nrm, float)
    rational = floats or space.kind != "lp" or space.p in (1, math.inf) or all(
        root_exact(F(sum(abs(c) ** space.p for c in x)), space.p) is not None for x in vectors)
    if not rational:
        with pytest.raises(PreconditionError):
            matrixform.gram_from_family(family)
        return
    seen = []

    def recording_gauge(space, exact=False):
        compiled = gauge(space, exact)
        return dataclasses.replace(compiled, dual=lambda x: seen.append(compiled.dual(x)) or seen[-1])

    with mock.patch.object(matrixform, "gauge", recording_gauge):
        a = matrixform.gram_from_family(family)
    assert seen == [dual_unit_vector(space, x) for x in vectors]
    assert seen == [reference_dual(space, x) for x in vectors]
    assert a.entries == tuple(tuple(dot(f, x) for x in vectors) for f in seen)
