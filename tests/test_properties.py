"""Differential property tests on random curves: each fast route against
its independent reference, on models beyond the catalog."""

import contextlib
import decimal
import random
import sys
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lattes_lab import elliptic, galois, polyrat
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
# mix of root-tested ell (2, 3) and ell that take a_p (5, 7, 11)
KS = (0, 1, -1, 2, -3, 5, 7, 11, -6, 10, 14, 15, 22, 25, -35, 77, 2310)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    curve=curves(),
    # primes on both sides of p = 230, where the a_p route turns from the
    # character sum to Shanks-Mestre; p = 5 is where psi_5 loses its leading term
    low=st.lists(st.sampled_from([p for p in PRIMES if p < elliptic._MESTRE_FROM]), min_size=1, max_size=6),
    high=st.lists(st.sampled_from([p for p in PRIMES if p >= elliptic._MESTRE_FROM]), min_size=1, max_size=3),
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
    primes=st.lists(st.sampled_from([p for p in primes_upto(10**4) if p >= elliptic._MESTRE_FROM]), min_size=1, max_size=4),
)
def test_shanks_mestre_matches_the_character_sum(curve, primes):
    # from the crossover on frobenius_trace takes baby-step giant-step
    for p in primes:
        if curve.has_good_reduction(p):
            assert frobenius_trace(curve, p) == count_points(curve, p)[1], p


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(
    curve=curves(),
    # one chunk of mixed sizes on both sides of the crossover, in any order
    # and with repeats
    primes=st.lists(st.sampled_from([p for p in primes_upto(3 * 10**4) if p >= 5]), min_size=1, max_size=8),
)
def test_batch_traces_match_the_scalar_route_and_the_character_sum(curve, primes):
    good = [p for p in primes if curve.has_good_reduction(p)]
    traces = elliptic._frobenius_traces(curve, good)
    assert traces == [count_points(curve, p)[1] for p in good]
    assert traces == [frobenius_trace(curve, p) for p in good]


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
int_lists = st.lists(
    st.one_of(st.lists(signed, min_size=1, max_size=8), st.integers(1, 20).map(lambda k: [0] * k)), min_size=1
).map(lambda parts: sum(parts, [])[: 3 * polyrat._KRONECKER_MIN])

# thresholds that send every product down one route of _int_mul; "sizes" is
# the module's own choice from the operand sizes
ROUTES = {
    "sizes": {},
    "schoolbook": {"_KRONECKER_MIN": 10**9},
    "two-point": {"_KRONECKER_MIN": 1, "_DECIMAL_MIN_BITS": 10**18},
    "decimal": {"_KRONECKER_MIN": 1, "_DECIMAL_MIN_BITS": 0},
}


@contextlib.contextmanager
def route(name):
    """Run the body with _int_mul's thresholds set for one route; a forced
    Kronecker route must then have been taken."""
    taken = []
    with pytest.MonkeyPatch.context() as mp:
        for attr, value in ROUTES[name].items():
            mp.setattr(polyrat, attr, value)
        for attr in ("_two_point_mul", "_decimal_mul"):
            kernel = getattr(polyrat, attr)
            mp.setattr(polyrat, attr, lambda *args, kernel=kernel, attr=attr: taken.append(attr) or kernel(*args))
        yield
    if name in ("two-point", "decimal"):
        assert set(taken) == {f"_{name.replace('-', '_')}_mul"}
    elif name == "schoolbook":
        assert not taken


@KERNELS
@given(a=int_lists, b=int_lists)
def test_kronecker_multiply_matches_schoolbook(a, b):
    # odd and even lengths on both sides of the Kronecker cutoff, every route
    for name in ROUTES:
        with route(name):
            assert polyrat._int_mul(a, b) == schoolbook(a, b), name
            assert polyrat._int_mul(b, a) == schoolbook(a, b), name
            # a square passes one list twice and packs it once
            assert polyrat._int_mul(a, a) == schoolbook(a, a), name


@pytest.mark.parametrize("name", ROUTES)
def test_short_products_on_every_route(name):
    # product lengths 1 and 2 and the other short shapes, signed
    rng = random.Random(name)
    with route(name):
        for n in range(1, 5):
            for m in range(1, 5):
                for bits in (1, 9, 70):
                    a = [rng.randint(-(2**bits), 2**bits) for _ in range(n)]
                    b = [rng.randint(-(2**bits), 2**bits) for _ in range(m)]
                    assert polyrat._int_mul(a, b) == schoolbook(a, b), (n, m, bits)
                    assert polyrat._int_mul(a, a) == schoolbook(a, a), (n, bits)


def test_kronecker_multiply_at_the_slot_limits():
    # equal-sign coefficients of full bit length add up without cancelling,
    # so the carry bits of the slot width are needed; every bit length mod 8,
    # every route
    n = 3 * polyrat._KRONECKER_MIN
    for name in ROUTES:
        with route(name):
            for ba in range(1, 17):
                for bb in range(1, 9):
                    for sign in (1, -1):
                        a, b = [2**ba - 1] * n, [sign * (2**bb - 1)] * (n - 5)
                        assert polyrat._int_mul(a, b) == schoolbook(a, b), (name, ba, bb, sign)
                a = [-(2**ba - 1)] * n
                assert polyrat._int_mul(a, a) == schoolbook(a, a), (name, ba)


@pytest.mark.parametrize("shift", [-2, -1, 0, 1, 2])
def test_decimal_multiply_around_the_str_digit_limit(shift):
    # slots of w decimal digits just below and just above the digits that
    # int() reads, each filled to its bound by equal-sign coefficients; the
    # limit itself is left as it is
    limit = sys.get_int_max_str_digits() or 4300
    # the largest coefficient bits whose slot is limit + shift digits wide
    bits = ((limit + shift) * 100000 - 1) // 30103 - 1
    n = 3
    ba = (bits - n.bit_length()) // 2
    a, b = [2**ba - 1] * n, [-(2 ** (bits - n.bit_length() - ba) - 1)] * n
    with route("decimal"):
        assert polyrat._int_mul(a, b) == schoolbook(a, b)
        assert polyrat._int_mul(a, a) == schoolbook(a, a)
        assert polyrat._int_mul(b, b) == schoolbook(b, b)


def test_decimal_multiply_leaves_the_decimal_context_alone():
    ctx = decimal.getcontext()
    before = repr(ctx), dict(ctx.traps), dict(ctx.flags)
    a = [(-1) ** i * 3**300 for i in range(40)]
    with route("decimal"):
        assert polyrat._int_mul(a, a[:-3]) == schoolbook(a, a[:-3])
    assert decimal.getcontext() is ctx
    assert (repr(ctx), dict(ctx.traps), dict(ctx.flags)) == before


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


def per_coefficient_horner(cs, p):
    # the kernel that blocked Horner and the power table replaced: the same
    # fold, then one multiply, add and reduction over all x per coefficient
    if len(cs) > p:
        folded = cs[:p].copy()
        for j in range(p, len(cs), p - 1):
            block = cs[j : j + p - 1]
            folded[1 : 1 + len(block)] += block
        cs = folded % p
    xs = np.arange(p, dtype=np.int64)
    acc = np.empty((cs.shape[1], p), dtype=np.int64)
    acc[:] = cs[-1][:, None]
    for c in cs[-2::-1, :, None]:
        acc *= xs
        acc += c
        acc %= p
    return acc


@pytest.mark.parametrize("p", [2, 3, 1009, 65537])
def test_blocked_horner_matches_the_per_coefficient_loop(p):
    # B^2 coefficients fill B blocks; B^2 + 1 leave a partial top block, and
    # so do most other lengths.  p and 3p fold once and several times.  At
    # p = 65537 the power table's budget caps B at 15, and the lengths p
    # and 3p are left out: each costs p^2 multiply-adds a row (over 10 s a
    # call on a 2-CPU VM).  The kernel is called directly, so p = 2 and 3,
    # which _horner_rows sends to the power table, run it too.
    rng = np.random.default_rng(p)
    b = polyrat._horner_block(p, p)
    lengths = {1, 2, 9, 10, 25, 26, b * b, b * b + 1}
    if p < 65537:
        lengths |= {p, 3 * p}
    else:
        assert b == polyrat._horner_block(b * b + 1, p) == polyrat._HORNER_TABLE_ELEMS // p == 15
    for n in sorted(lengths):
        for rows in (1, 2):
            cs = rng.integers(0, p, size=(n, rows), dtype=np.int64)
            got = polyrat._blocked_horner_rows(polyrat._fold_exponents(cs, p), p)
            assert np.array_equal(got, per_coefficient_horner(cs, p)), (n, rows)


# every prime below the power table's limit and the first two above it
TABLE_PRIMES = primes_upto(polyrat._POWER_TABLE_BELOW)
ABOVE_TABLE = [257, 263]


@pytest.mark.parametrize("kernel", ["_power_table_rows", "_blocked_horner_rows"])
def test_value_kernels_match_the_per_coefficient_loop(kernel):
    # each kernel called directly, not through _horner_rows: the power table
    # on every prime it serves, blocked Horner on those and on the first
    # two primes above the limit, where _horner_rows sends every row to it.
    # All coefficients p-1 at the largest prime below the limit give the
    # largest sums the float32 product ever adds.
    rng = np.random.default_rng(29)
    run = getattr(polyrat, kernel)
    primes = TABLE_PRIMES + (ABOVE_TABLE if kernel == "_blocked_horner_rows" else [])
    for p in primes:
        for n in sorted({1, 2, p - 1, p, 3 * p}):
            for rows in (1, 2):
                cs = rng.integers(0, p, size=(n, rows), dtype=np.int64)
                got = run(polyrat._fold_exponents(cs, p), p)
                assert np.array_equal(got, per_coefficient_horner(cs, p)), (p, n, rows)
    p = TABLE_PRIMES[-1]
    assert p == 251 and p * (p - 1) ** 2 < 2**24
    cs = np.full((p, 2), p - 1, dtype=np.int64)
    assert np.array_equal(run(cs, p), per_coefficient_horner(cs, p))


def test_power_table_holds_powers_and_inverses():
    for p in TABLE_PRIMES:
        table, inv = polyrat._power_table(p)
        assert table.shape == (p, p) and not table.flags.writeable and not inv.flags.writeable
        assert all(x * int(inv[x]) % p == 1 for x in range(1, p)), p
        assert table.tolist() == [[pow(x, j, p) for x in range(p)] for j in range(p)], p


def test_the_prime_alone_selects_the_power_table():
    # the table cache fills only below the limit: a value table at 251 adds
    # its prime, one at 257 and the root search of rational_roots (p >=
    # 1009) add none, and each gives the per-coefficient values
    polyrat._power_table.cache_clear()
    cs = np.arange(1, 40, dtype=np.int64).reshape(-1, 1)
    for p in ABOVE_TABLE + [1009]:
        assert np.array_equal(polyrat._horner_rows(cs % p, p), per_coefficient_horner(cs % p, p))
    assert polyrat._roots_mod_p([-6, 11, -6, 1], 1009) == [1, 2, 3]
    assert polyrat.rational_roots(Poly(QQ, [-6, 11, -6, 1])) == {1, 2, 3}
    assert polyrat._power_table.cache_info().currsize == 0
    assert np.array_equal(polyrat._horner_rows(cs, 251), per_coefficient_horner(cs, 251))
    f = RatMap(Poly(GF(251), [1, 0, 1]), Poly(GF(251), [0, 1]))
    f.value_table()
    assert polyrat._power_table.cache_info().currsize == 1


def test_horner_block_size_rule(monkeypatch):
    big = 2**31 - 1
    assert polyrat._horner_block(1, 2) == polyrat._horner_block(1, big) == 1
    assert polyrat._horner_block(10**4, 1009) == 100  # isqrt(n - 1) + 1
    # the power table stays within its element budget: B = 1 at p = 10^6
    assert polyrat._horner_block(10**6, 10**6) * 10**6 <= polyrat._HORNER_TABLE_ELEMS
    # a block's sum plus acc * y, (B + 1) products, fits in int64 unreduced
    for p in (2, 3, 1009, 65537, 10**6 + 3, big):
        for n in (1, 2, 10**3, 10**9):
            b = polyrat._horner_block(n, p)
            assert b >= 1 and (b + 1) * (p - 1) ** 2 < 2**63
            assert b == 1 or b * p <= polyrat._HORNER_TABLE_ELEMS
    # the int64 bound holds by itself, whatever the budget, and is tight
    monkeypatch.setattr(polyrat, "_HORNER_TABLE_ELEMS", 2**80)
    assert polyrat._horner_block(10**9, big) == 1
    assert polyrat._horner_block(10**9, 2**30 + 3) == 6
    for p in (3, 1009, 65537, 10**6 + 3, 2**30 + 3, big):
        b = polyrat._horner_block(10**12, p)
        assert b >= 1 and (b + 1) * (p - 1) ** 2 < 2**63, p
        assert b == 10**6 or (b + 2) * (p - 1) ** 2 >= 2**63, p


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


def share_root_case(rng, p, m, kind):
    # (f, g) mod p, f of degree m and g of m coefficients: "common" plants a
    # factor of degree >= 1 (g may lose its top degrees), "zero" has g = 0,
    # "drop" gives g a zero lead, and "random" pairs are almost always
    # coprime; small p also drop degrees further down the sequence
    def poly(deg):
        return [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]

    f = poly(m)
    if kind == "common":
        h = poly(rng.randint(1, m - 1))
        f = [c % p for c in schoolbook(h, poly(m - len(h) + 1))]
        g = [c % p for c in schoolbook(h, poly(rng.randint(0, m - len(h))))]
    elif kind == "zero":
        g = []
    elif kind == "drop":
        g = poly(rng.randint(0, m - 2))
    else:
        g = [rng.randrange(p) for _ in range(m)]
    return f, g + [0] * (m - len(g))


@KERNELS
@given(
    seed=st.integers(0, 2**32),
    m=st.integers(2, 14),
    kinds=st.lists(st.sampled_from(["common", "zero", "drop", "random"]), min_size=1, max_size=12),
)
def test_share_root_matches_fp_gcd(seed, m, kinds):
    # one batched remainder sequence over columns mod different primes
    # against Euclid on lists, column by column
    rng = random.Random(seed)
    ps = [rng.choice([5, 7, 11, 101, 65537, 2147483629, 2147483647]) for _ in kinds]
    cases = [share_root_case(rng, p, m, kind) for p, kind in zip(ps, kinds)]
    f = np.array([c[0] for c in cases], dtype=np.int64).T
    g = np.array([c[1] for c in cases], dtype=np.int64).T
    expected = []
    for (a, b), p in zip(cases, ps):
        while b and not b[-1]:
            b = b[:-1]
        expected.append(not b or len(polyrat._fp_gcd(a, b, p)[0]) > 1)
    got = galois._share_root(f, g, np.array(ps, dtype=np.int64))
    assert got.tolist() == expected
    for kind, share in zip(kinds, got):
        assert share or kind not in ("common", "zero")


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


# the digits str converts (sys.get_int_max_str_digits() is 0 when unlimited)
_STR_DIGITS = sys.get_int_max_str_digits() or 4300


@KERNELS
@given(
    n=st.integers(-(10**_STR_DIGITS) + 1, 10**_STR_DIGITS - 1),
    low=st.integers(0, 10**_STR_DIGITS - 1),
)
def test_int_printer_is_str_below_the_limit_and_exact_past_it(n, low):
    assert polyrat._int_str(n) == str(n)
    # past the limit: |n| 10^L + low has the digits of |n| and then low's,
    # padded to L digits, each part below the limit
    if n:
        big = n * 10**_STR_DIGITS + (low if n > 0 else -low)
        assert polyrat._int_str(big) == f"{n}{low:0{_STR_DIGITS}d}"


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
