import math
import random
import time
from bisect import bisect_right
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from lattes_lab import intmath
from lattes_lab.exceptionality import _congruence_recipe
from lattes_lab.intmath import (
    _merge_classes,
    binary_power,
    check_int64_modulus,
    factorize,
    is_prime,
    kronecker,
    prime_flags,
    primes_in_classes,
    prime_divisors,
    primes_between,
    primes_upto,
    sqrt_mod,
    squarefree_part_known,
)


def trial_division_prime(n: int) -> bool:
    n = abs(n)
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_examples():
    assert is_prime(2)
    assert is_prime(3089)  # trial division to sqrt(3089) confirms
    assert not is_prime(405)  # 405 = 81 * 5
    assert not is_prime(1) and not is_prime(0)
    assert is_prime(-7)


def test_is_prime_against_trial_division():
    for n in range(0, 4000):
        assert is_prime(n) == trial_division_prime(n), n
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(1, 10**7)
        assert is_prime(n) == trial_division_prime(n), n


def test_is_prime_large_semiprime():
    p, q = 1000003, 1000033
    assert is_prime(p) and is_prime(q)
    assert not is_prime(p * q)


def twelve_witness_prime(n: int) -> bool:
    """The strong-pseudoprime test on the first 12 primes, proven for
    n < 3.3 * 10^24: the reference for the smaller witness sets."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


TIER_BOUNDS = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383, 341550071728321)


def test_is_prime_agrees_with_the_sieve_to_a_million():
    sieve = set(primes_upto(10**6))
    assert [n for n in range(10**6 + 1) if is_prime(n)] == sorted(sieve)


def test_is_prime_at_the_witness_tier_bounds():
    for bound in TIER_BOUNDS:
        for n in range(bound - 2, bound + 3):
            assert is_prime(n) == twelve_witness_prime(n), n


def test_is_prime_rejects_the_strong_pseudoprimes_behind_the_tiers():
    # each is a strong pseudoprime to every base of the tier below it
    for n in TIER_BOUNDS + (3825123056546413051,):
        assert not is_prime(n), n
        assert not twelve_witness_prime(n), n


def test_is_prime_on_random_40_bit_odd_numbers():
    rng = random.Random(40)
    for _ in range(20000):
        n = rng.randrange(1 << 39, 1 << 40) | 1
        assert is_prime(n) == twelve_witness_prime(n), n


def test_primes_between_against_the_sieve():
    primes = primes_upto(20000)
    rng = random.Random(9)
    windows = [(0, 2), (0, 3), (2, 3), (3, 3), (-5, 12), (1024, 2048), (19990, 20001)]
    windows += [tuple(sorted(rng.sample(range(0, 20001), 2))) for _ in range(200)]
    for lo, hi in windows:
        assert primes_between(lo, hi) == [p for p in primes if lo <= p < hi], (lo, hi)


# segments that start or end near 0, 1, 2 and the 2**20 window edge, of
# lengths from 0 to 3 * 256
SPAN = 256


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    anchor=st.sampled_from((0, 1, 2, intmath._SIEVE_WINDOW)),
    shift=st.integers(-3, 3),
    length=st.one_of(
        st.sampled_from((0, 1, 2, 3, SPAN - 1, SPAN, SPAN + 1)),
        st.integers(-2, 3 * SPAN),
    ),
    ends_at_anchor=st.booleans(),
)
def test_primes_between_matches_an_is_prime_filter(anchor, shift, length, ends_at_anchor):
    lo = anchor + shift - length if ends_at_anchor else anchor + shift
    hi = lo + length
    want = [n for n in range(lo, hi) if n >= 2 and is_prime(n)]
    assert primes_between(lo, hi) == want
    # _non_primes splits its members at the window edge
    members = set(range(max(lo, 0), hi))
    assert intmath._non_primes(members) == members - set(want)


def test_primes_between_reads_long_segments_with_numpy(monkeypatch):
    # numpy reads every segment, the short ones too, and compress none; the
    # segment asked for is read last, after the sieve's own primes
    read, compressed = [], []
    real_read, real_compress = intmath.np.flatnonzero, intmath.compress
    monkeypatch.setattr(intmath.np, "flatnonzero", lambda seg: read.append(len(seg)) or real_read(seg))
    monkeypatch.setattr(intmath, "compress", lambda r, seg: compressed.append(len(seg)) or real_compress(r, seg))
    for lo in (2, 10**5):
        for n in (1, 2, 30, SPAN - 1, SPAN, 1000):
            read.clear()
            assert primes_between(lo, lo + n) == [m for m in range(lo, lo + n) if is_prime(m)]
            assert read[-1] == n, (lo, n, read)
    assert compressed == []


def test_prime_flags_against_trial_division():
    for limit in (-3, 0, 1, 2, 3, 4, 97, 1000):
        flags = prime_flags(limit)
        assert len(flags) == max(limit + 1, 0)
        assert [n for n, f in enumerate(flags) if f] == [
            n for n in range(limit + 1) if trial_division_prime(n)
        ], limit
        assert set(flags) <= {0, 1}


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.integers(-10**6, 10**6), st.integers(0, 10**4), st.integers(2, 10**6))
def test_binary_power_is_pow_with_one_op_per_square_and_per_set_bit(x, n, m):
    calls = []

    def mul(a, b):
        calls.append((a, b))
        return a * b % m

    assert binary_power(x, n, mul, 1) == pow(x, n, m)
    assert len(calls) == max(n.bit_length() - 1, 0) + bin(n).count("1")
    if n == 0:
        assert calls == []


def test_kronecker_examples():
    assert kronecker(-11, 5) == 1
    assert kronecker(-1, 7) == -1
    assert kronecker(123456, 1) == 1
    assert kronecker(0, 1) == 1
    with pytest.raises(ValueError):
        kronecker(3, 0)


def test_kronecker_is_legendre_for_odd_primes():
    for p in primes_upto(200):
        if p == 2:
            continue
        squares = {pow(x, 2, p) for x in range(1, p)}
        for a in range(1, p):
            expected = 1 if a in squares else -1
            assert kronecker(a, p) == expected, (a, p)
        assert kronecker(p, p) == 0


def test_kronecker_multiplicative_in_top_argument():
    rng = random.Random(11)
    primes = [p for p in primes_upto(500) if p > 2]
    for _ in range(500):
        p = rng.choice(primes)
        a, b = rng.randrange(1, 300), rng.randrange(1, 300)
        if (a * b) % p == 0:
            continue
        assert kronecker(a, p) * kronecker(b, p) == kronecker(a * b, p)


def test_sqrt_mod_examples():
    assert sqrt_mod(4, 7) == 2
    assert sqrt_mod(2, 7) == 3  # 3^2 = 9 = 2 (mod 7)
    assert sqrt_mod(3, 7) is None  # squares mod 7 are {0, 1, 2, 4}
    assert sqrt_mod(0, 13) == 0
    with pytest.raises(ValueError):
        sqrt_mod(3, 15)


def test_sqrt_mod_brute_force_and_tie_break():
    for p in primes_upto(120):
        if p == 2:
            continue
        for a in range(p):
            roots = [r for r in range(p) if (r * r - a) % p == 0]
            got = sqrt_mod(a, p)
            if roots:
                assert got == min(roots)
                assert got <= p // 2 or got * 2 == p  # smaller root
            else:
                assert got is None


def test_sqrt_mod_iff_kronecker():
    # exhaustive for small p, a deterministic residue sample up to 10^4
    for p in primes_upto(1500):
        if p == 2:
            continue
        limit = p if p < 300 else 40
        for a in range(1, limit):
            assert (sqrt_mod(a, p) is not None) == (kronecker(a, p) == 1)
    rng = random.Random(17)
    for p in primes_upto(10000):
        if p <= 1500:
            continue
        for a in [1, 2, 3, 5, p - 1] + [rng.randrange(1, p) for _ in range(8)]:
            assert (sqrt_mod(a, p) is not None) == (kronecker(a, p) == 1), (a, p)


def test_primes_in_classes_against_sieve_filter():
    # the walk against a filter of one sieve, for every kind of class set:
    # period 1, prime and composite periods up to 163 * 47, classes sharing
    # a factor with the period (which hold at most that prime), residues
    # outside [0, period) and no residue at all; the limits run from -3 to 3,
    # across the first window's end and across the window edges at 2**20
    # (where windows stop doubling) and 2**21
    top = 2**21 + 1
    sieved = primes_upto(top)
    rng = random.Random(18)
    periods = (1, 2, 3, 7, 11, 12, 30, 385, 2 * 3 * 5 * 7 * 11, 163 * 47)
    small = list(range(-3, 4)) + [1023, 1024, 1025]
    edges = [2**20 - 1, 2**20, 2**20 + 1, 2**21 - 1, 2**21, top]
    cases = []
    for period in periods:
        every = list(range(period))
        shared = [r for r in every if r and math.gcd(r, period) > 1]
        cases += [
            (period, []),
            (period, every),
            (period, rng.sample(every, min(3, period)) + rng.sample(shared, min(2, len(shared)))),
            (period, [r - period for r in rng.sample(every, min(2, period))] + prime_divisors(period)),
        ]
    for i, (period, residues) in enumerate(cases):
        admitted = {r % period for r in residues}
        want = [p for p in sieved if p % period in admitted]
        for limit in small + [edges[i % len(edges)]]:
            got = list(primes_in_classes(period, residues, limit))
            assert got == want[: bisect_right(want, limit)], (period, residues, limit)


def test_primes_in_congruence_examples():
    # two classes merge to one by the Chinese remainder theorem, also where
    # their moduli share a factor; two that disagree mod the gcd raise
    assert _merge_classes(3, 4, 1, 3) == (7, 12)
    assert list(primes_in_classes(12, [7], 50)) == [7, 19, 31, 43]
    assert _merge_classes(5, 7, -2, 35) == (33, 35)
    assert _merge_classes(-1, 6, 3, 4) == (11, 12)
    assert _merge_classes(5, 8, 0, 1) == (5, 8)
    with pytest.raises(ArithmeticError):
        _merge_classes(0, 2, 1, 2)
    with pytest.raises(ArithmeticError):
        _merge_classes(1, 6, 0, 4)


def _stated_congruences(D, k):
    # the congruence rows of the strategy table as the paper states them, as
    # (residue, modulus) pairs; None where the row searches prime elements
    # or admits no such k
    odd = k % 2 == 1
    if D in (-4, -16) and odd:
        return [(3, 4), (1, k)]
    if D == -8 and odd:
        return [(5, 8), (1, k)]
    if D in (-7, -28) and odd:
        return [(5, 7), (-2, k)]
    if D in (-12, -3, -27) and math.gcd(k, 6) == 1:
        return [(2, 3), (1, k)]
    if D == -11 and odd and k % 3 == 0:
        others = [ell for ell in range(5, k + 1) if k % ell == 0 and is_prime(ell) and ell != 11]
        return [(1, 3), (2, 11)] + [(1, ell) for ell in others]
    return None


def test_primes_in_congruence_against_sieve_filter():
    # each congruence row of the strategy table walks the one class its
    # recipe merges: for every admissible k <= 50, its primes below 10^4
    # are the sieve's primes that meet the row's stated congruences
    sieved = primes_upto(10**4)
    rows = 0
    for D in (-3, -4, -7, -8, -11, -12, -16, -19, -27, -28, -43, -67, -163):
        for k in range(2, 51):
            stated = _stated_congruences(D, k)
            try:
                recipe = _congruence_recipe(D, k)
            except ValueError:
                assert stated is None, (D, k)
                continue
            assert (recipe is None) == (stated is None), (D, k)
            if recipe is not None:
                want = [p for p in sieved if all((p - r) % m == 0 for r, m in stated)]
                assert list(primes_in_classes(recipe[1], [recipe[0]], 10**4)) == want, (D, k)
                rows += 1
    # 24 odd k for each of -4, -16, -8, -7, -28; 16 k prime to 6 for each
    # of -12, -3, -27; the 8 odd multiples of 3 for -11
    assert rows == 5 * 24 + 3 * 16 + 8


def test_factorize_against_products():
    assert factorize(1) == {}
    assert factorize(-360) == {2: 3, 3: 2, 5: 1}
    assert factorize(2**6 * 7**2 * 10007) == {2: 6, 7: 2, 10007: 1}
    with pytest.raises(ValueError):
        factorize(0)
    for n in range(1, 3000):
        f = factorize(n)
        assert list(f) == sorted(f) and all(trial_division_prime(q) for q in f)
        prod = 1
        for q, e in f.items():
            prod *= q**e
        assert prod == n
        assert prime_divisors(n) == list(f)
        assert squarefree_part_known(n) == all(n % (q * q) for q in range(2, isqrt(n) + 1))
    assert not squarefree_part_known(0)


def test_factorize_has_a_bounded_cost():
    # trial division stops at 10**6; the cofactor left is prime below 10**12
    # or by is_prime, and any other is refused at once, not searched
    assert factorize(999983 * 1000003) == {999983: 1, 1000003: 1}
    assert factorize(2 * 3 * (10**12 + 39)) == {2: 1, 3: 1, 10**12 + 39: 1}
    start = time.perf_counter()
    assert factorize(2**61 - 1) == {2**61 - 1: 1}
    with pytest.raises(ValueError, match="1000000016000000063"):
        factorize(1000000007 * 1000000009)
    assert time.perf_counter() - start < 2


def test_factorize_splits_a_prime_power_cofactor():
    # a cofactor r^e with r prime and above the trial bound splits by exact
    # integer roots; a product of two such primes, or its square, is refused
    q = 10**6 + 3
    assert factorize(q**2) == {q: 2}
    assert factorize(q**3) == {q: 3}
    assert factorize(q**4) == {q: 4}
    assert factorize(2 * 3 * 5 * 7 * q**2) == {2: 1, 3: 1, 5: 1, 7: 1, q: 2}
    assert factorize((2**61 - 1) ** 5) == {2**61 - 1: 5}
    assert not squarefree_part_known(2 * 3 * 5 * 7 * q**2)
    for n in (q * (10**6 + 33), (q * (10**6 + 33)) ** 2):
        with pytest.raises(ValueError, match=f"cannot factorize {n}: its cofactor {n} is composite"):
            factorize(n)


def test_integer_root_is_the_exact_floor():
    rng = random.Random(29)
    for _ in range(500):
        n, e = rng.randrange(10 ** rng.randrange(1, 80)), rng.randrange(1, 12)
        r = intmath._integer_root(n, e)
        assert r**e <= n < (r + 1) ** e, (n, e)
    q = 10**6 + 3
    assert intmath._integer_root(q**9, 9) == q and intmath._integer_root(q**9 - 1, 9) == q - 1


def test_check_int64_modulus():
    check_int64_modulus(2**31 - 1)
    for p in (2**31, 2147483659):
        with pytest.raises(ValueError, match="2\\*\\*31"):
            check_int64_modulus(p)
