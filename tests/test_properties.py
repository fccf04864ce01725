"""Differential property tests on random curves: each fast route against
its independent reference, on models beyond the catalog."""

import random
from fractions import Fraction
from math import gcd

from hypothesis import assume, given, settings, strategies as st

from lattes_lab import polyrat
from lattes_lab.elliptic import Curve, count_points
from lattes_lab.galois import coprime_verdicts
from lattes_lab.intmath import primes_upto
from lattes_lab.polyrat import GF, INFINITY, QQ, Poly, RatMap

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


# -- polynomial kernels against their plain references ---------------------------

KERNELS = settings(max_examples=80, derandomize=True, database=None, deadline=None)


def schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def horner(cs, x, p):
    acc = 0
    for c in reversed(cs):
        acc = (acc * x + c) % p
    return acc


def list_euclid(a, b, p):
    while b:
        a = polyrat._fp_mod(a, b, p)
        a, b = b, a
    return a


# signed coefficients from one bit to a few kilobits, with zeros in runs
signed = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(2**64), 2**64), st.integers(-(2**3000), 2**3000))
# lengths on both sides of the Kronecker cutoff
int_lists = st.lists(signed, min_size=1, max_size=3 * polyrat._KRONECKER_MIN)


@KERNELS
@given(a=int_lists, b=int_lists)
def test_kronecker_multiply_matches_schoolbook(a, b):
    assert polyrat._int_mul(a, b) == schoolbook(a, b)
    assert polyrat._int_mul(b, a) == schoolbook(a, b)


def test_kronecker_multiply_at_the_slot_limits():
    # equal-sign coefficients of full bit length add up without cancelling,
    # so the carry bits of the slot width are needed; every bit length mod 8
    n = 3 * polyrat._KRONECKER_MIN
    for ba in range(1, 17):
        for bb in range(1, 9):
            for sign in (1, -1):
                a, b = [2**ba - 1] * n, [sign * (2**bb - 1)] * (n - 5)
                assert polyrat._int_mul(a, b) == schoolbook(a, b), (ba, bb, sign)


@KERNELS
@given(
    a=st.lists(st.fractions(max_denominator=50), min_size=1, max_size=40),
    b=st.lists(st.fractions(max_denominator=50), min_size=1, max_size=40),
)
def test_rational_multiply_matches_fraction_schoolbook(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    assert polyrat._qq_mul(a, b) == out


SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 31]


@KERNELS
@given(
    p=st.sampled_from(SMALL_PRIMES),
    num=st.lists(st.integers(0, 10**6), max_size=90),
    den=st.lists(st.integers(0, 10**6), min_size=1, max_size=90),
)
def test_folded_horner_matches_plain_horner(p, num, den):
    # degrees up to 89 at p <= 31: most pairs fold, some more than once
    F = GF(p)
    n, d = Poly(F, num), Poly(F, den)
    assume(not d.is_zero)
    nv, dv = polyrat._horner_pair(n, d, p)
    assert nv.tolist() == [horner(n.coeffs, x, p) for x in range(p)]
    assert dv.tolist() == [horner(d.coeffs, x, p) for x in range(p)]
    # the value at infinity comes from the unfolded degrees
    f = RatMap(n, d)
    fn, fd = f.num.coeffs, f.den.coeffs
    want = [
        INFINITY if horner(fd, x, p) == 0 else horner(fn, x, p) * pow(horner(fd, x, p), -1, p) % p
        for x in range(p)
    ]
    if len(fn) > len(fd):
        want.append(INFINITY)
    else:
        want.append(fn[-1] * pow(fd[-1], -1, p) % p if len(fn) == len(fd) else 0)
    assert f.value_table() == want


EUCLID_PRIMES = [3, 1009, 65537, 2147483629, 2147483647]


@KERNELS
@given(
    p=st.sampled_from(EUCLID_PRIMES),
    seed=st.integers(0, 2**32),
    da=st.integers(polyrat._ROW_EUCLID_MIN, 160),
    db=st.integers(polyrat._ROW_EUCLID_MIN - 1, 160),
    dg=st.integers(0, 40),
)
def test_row_euclid_matches_list_euclid(p, seed, da, db, dg):
    # random pairs are almost always coprime, so a common factor of degree
    # dg is planted in half of them
    rng = random.Random(seed)

    def poly(deg):
        return [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]

    a, b = poly(da), poly(db)
    if seed % 2:
        g = poly(dg)
        a = [c % p for c in schoolbook(a, g)]
        b = [c % p for c in schoolbook(b, g)]
    common, rest = polyrat._fp_gcd(a, b, p)
    assert rest == [] and common == list_euclid(a, b, p)
    if seed % 2:
        assert len(common) > dg


@KERNELS
@given(
    p=st.sampled_from([2, 3, 5, 7, 13, 101, 1009]),
    cs=st.lists(st.integers(-(2**80), 2**80), min_size=1, max_size=60),
)
def test_roots_mod_p_match_evaluation_at_each_x(p, cs):
    assert polyrat._roots_mod_p(cs, p) == [x for x in range(p) if horner(cs, x, p) == 0]


@KERNELS
@given(
    roots=st.lists(st.fractions(max_denominator=10**12).filter(lambda r: abs(r) < 10**15), min_size=1, max_size=4),
    cofactor=st.lists(st.integers(-(2**40), 2**40), min_size=1, max_size=8),
)
def test_rational_roots_find_planted_roots_and_only_roots(roots, cofactor):
    # the probe-prime rejection and the integer certificate against Fraction
    # evaluation: every planted root is found, and every root found is exact
    assume(cofactor[-1])
    f = Poly(QQ, [Fraction(c) for c in cofactor])
    for r in roots:
        f = f * Poly(QQ, [-r, Fraction(1)])
    found = polyrat.rational_roots(f)
    assert set(roots) <= found
    for r in found:
        assert sum((c * r**i for i, c in enumerate(f.coeffs)), Fraction(0)) == 0
