"""Differential property tests on random curves: each fast route against
its independent reference, on models beyond the catalog."""

import random
from fractions import Fraction
from math import gcd

from hypothesis import assume, given, settings, strategies as st

from lattes_lab import elliptic, polyrat
from lattes_lab.elliptic import Curve, count_points, frobenius_trace
from lattes_lab.galois import coprime_verdicts
from lattes_lab.intmath import primes_upto
from lattes_lab.polyrat import GF, INFINITY, QQ, Poly, RatMap, format_poly

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


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    curve=curves(),
    primes=st.lists(st.sampled_from([p for p in primes_upto(10**4) if p > elliptic._BSGS_FROM]), min_size=1, max_size=4),
)
def test_shanks_mestre_matches_the_character_sum(curve, primes):
    # above the crossover frobenius_trace takes baby-step giant-step
    for p in primes:
        if curve.has_good_reduction(p):
            assert frobenius_trace(curve, p) == count_points(curve, p)[1], p


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
        a = polyrat._fp_divmod(a, b, p)[1]
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
    while out and out[-1] == 0:
        out.pop()
    assert list((Poly(QQ, a) * Poly(QQ, b)).coeffs) == out


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


# -- the stored form of Poly against Fraction-list arithmetic ---------------------


class FieldLists:
    """Coefficient lists of field elements, constant term first, with the
    plain per-coefficient arithmetic: Fractions over QQ (p None), residues
    mod p over GF(p)."""

    def __init__(self, p):
        self.p = p

    def norm(self, c):
        return Fraction(c) if self.p is None else c % self.p

    def div(self, a, b):
        return Fraction(a) / b if self.p is None else a * pow(b, -1, self.p) % self.p

    def trim(self, cs):
        cs = [self.norm(c) for c in cs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cs

    def add(self, a, b, sign=1):
        out = list(a) + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] += sign * c
        return self.trim(out)

    def mul(self, a, b):
        if not a or not b:
            return []
        return self.trim(schoolbook(a, b))

    def divmod(self, a, b):
        a, b = self.trim(a), self.trim(b)
        q = [0] * max(len(a) - len(b) + 1, 0)
        for i in range(len(a) - len(b), -1, -1):
            c = q[i] = self.div(a[i + len(b) - 1], b[-1])
            for j, bj in enumerate(b):
                a[i + j] = self.norm(a[i + j] - c * bj)
        return self.trim(q), self.trim(a)

    def eval(self, a, x):
        acc = self.norm(0)
        for c in reversed(a):
            acc = self.norm(acc * x + c)
        return acc

    def monic(self, a):
        return [self.div(c, a[-1]) for c in a] if a else []

    def derivative(self, a):
        return self.trim([i * c for i, c in enumerate(a)][1:])

    def format(self, a):
        terms = []
        for i in range(len(a) - 1, -1, -1):
            c, xpow = a[i], "x" if i == 1 else f"x^{i}"
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif c == 1:
                terms.append(xpow)
            elif c == -1:
                terms.append("-" + xpow)
            else:
                terms.append(f"({c}){xpow}" if "/" in str(c) else f"{c}{xpow}")
        if not terms:
            return "0"
        return terms[0] + "".join(" - " + t[1:] if t[0] == "-" else " + " + t for t in terms[1:])


@st.composite
def field_lists(draw, n):
    p = draw(st.one_of(st.none(), st.sampled_from([2, 3, 5, 7, 13, 31])))
    elems = st.fractions(max_denominator=50) if p is None else st.integers(-(10**6), 10**6)
    return (p, *(draw(st.lists(elems, max_size=12)) for _ in range(n)))


@KERNELS
@given(inputs=field_lists(3))
def test_poly_arithmetic_matches_field_element_lists(inputs):
    p, a, b, xs = inputs
    R, F = FieldLists(p), QQ if p is None else GF(p)

    def check(h, want):
        # the stored form: reduced integers over a positive denominator over
        # QQ, residues over 1 over GF(p); and the same Poly as the reference
        if p is None:
            assert h.den > 0 and gcd(h.den, *h.ints) == 1
        else:
            assert h.den == 1 and all(0 <= c < p for c in h.ints)
        assert not h.ints or h.ints[-1] != 0
        assert list(h.coeffs) == want and h == Poly(F, want)
        assert all(type(c) is (Fraction if p is None else int) for c in h.coeffs)

    f, g = Poly(F, a), Poly(F, b)
    a, b = R.trim(a), R.trim(b)
    check(f, a)
    check(g, b)
    check(f + g, R.add(a, b))
    check(f - g, R.add(a, b, -1))
    check(-f, R.add([], a, -1))
    check(f * g, R.mul(a, b))
    if b:
        q, r = divmod(f, g)
        want_q, want_r = R.divmod(a, b)
        check(q, want_q)
        check(r, want_r)
    for x in xs:
        x = R.norm(x)
        assert f(x) == R.eval(a, x)
    check(f.monic(), R.monic(a))
    check(f.derivative(), R.derivative(a))
    assert format_poly(f) == R.format(a)


@KERNELS
@given(
    inputs=field_lists(1),
    ints=st.lists(st.integers(-(10**6), 10**6), max_size=12),
    zeros=st.integers(0, 3),
    k=st.integers(2, 60),
)
def test_equal_polys_have_one_stored_form_and_hash(inputs, ints, zeros, k):
    p, a = inputs
    F = QQ if p is None else GF(p)
    # integers given as ints, with trailing zeros, and as Fractions
    f, g = Poly(F, ints + [0] * zeros), Poly(F, [Fraction(c) for c in ints])
    assert f == g and hash(f) == hash(g)
    # the same elements reached through a scaling by k and by 1/k
    if p is None or k % p:
        f, g = Poly(F, a), Poly(F, [k * c for c in a]).scale(Fraction(1, k))
        assert f == g and hash(f) == hash(g)
