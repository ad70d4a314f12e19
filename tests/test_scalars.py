from fractions import Fraction as F

from hypothesis import given
from hypothesis import strategies as st

from collapsing.scalars import root_exact


@given(st.fractions(min_value=0, max_value=10**6, max_denominator=10**6), st.integers(1, 7))
def test_root_exact_inverts_powers(r, n):
    assert root_exact(r**n, n) == r
    if n > 1 and r:
        # 2 r^n is not an n-th power of a rational.
        assert root_exact(2 * r**n, n) is None


def test_root_exact_of_large_powers():
    big = F(3**200 + 1, 7**90)
    assert root_exact(big**5, 5) == big
    assert root_exact(big**5 + 1, 5) is None
