"""Differential property tests on random curves: each fast route against
its independent reference, on models beyond the catalog."""

from fractions import Fraction
from math import gcd

from hypothesis import assume, given, settings, strategies as st

from lattes_lab.elliptic import Curve, count_points
from lattes_lab.galois import coprime_verdicts
from lattes_lab.intmath import primes_upto

PRIMES = [p for p in primes_upto(3000) if p >= 5]

coefficients = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6))


@st.composite
def curves(draw) -> Curve:
    ainvs = [draw(coefficients) for _ in range(5)]
    try:
        return Curve(*ainvs)
    except ValueError:  # singular
        assume(False)


# k = 0, +-1 and signed products of primes from {2, 3, 5, 7, 11}: every
# mix of root-tested ell (2, 3, 5) and ell that take a_p (7, 11)
KS = (0, 1, -1, 2, -3, 5, 7, 11, -6, 10, 14, 15, 22, 25, -35, 77, 2310)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    curve=curves(),
    # primes on both sides of p = 2000, where frobenius_trace turns from the
    # character sum to Shanks-Mestre; p = 5 is where psi_5 takes no root test
    low=st.lists(st.sampled_from([p for p in PRIMES if p < 2000]), min_size=1, max_size=6),
    high=st.lists(st.sampled_from([p for p in PRIMES if p > 2000]), min_size=1, max_size=3),
    with_5=st.booleans(),
)
def test_coprime_verdicts_match_count_points(curve, low, high, with_5):
    primes = sorted(set(low + high + [5] * with_5))
    good = [p for p in primes if curve.has_good_reduction(p)]
    big_a = [(p + 1) ** 2 - count_points(curve, p)[1] ** 2 for p in good]
    for k in KS:
        assert coprime_verdicts(curve, k, good) == [gcd(a, k) == 1 for a in big_a], k
