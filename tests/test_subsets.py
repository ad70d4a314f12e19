import itertools
from math import comb

from hypothesis import given, settings
from hypothesis import strategies as st

from collapsing.subsets import revolving_door, sample_subsets


@given(st.integers(0, 9), st.data())
@settings(max_examples=60, deadline=None)
def test_revolving_door_visits_everything_once(n, data):
    k = data.draw(st.integers(0, n))
    seq = list(revolving_door(n, k))
    assert len(seq) == comb(n, k)
    assert set(seq) == set(itertools.combinations(range(n), k))


@given(st.integers(2, 10), st.data())
@settings(max_examples=60, deadline=None)
def test_revolving_door_single_swap(n, data):
    k = data.draw(st.integers(1, n - 1))
    seq = list(revolving_door(n, k))
    for a, b in zip(seq, seq[1:]):
        assert len(set(a) ^ set(b)) == 2


def test_sampler_is_deterministic():
    a = list(sample_subsets(10, 3, 20, seed=7))
    b = list(sample_subsets(10, 3, 20, seed=7))
    assert a == b
    assert all(len(s) == 3 and s == tuple(sorted(s)) for s in a)
