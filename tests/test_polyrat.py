import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from lattes_lab import polyrat
from lattes_lab.elliptic import Curve, lattes_map
from lattes_lab.intmath import check_int64_modulus
from lattes_lab.polyrat import (
    GF,
    INFINITY,
    Poly,
    QQ,
    RatMap,
    format_poly,
    format_ratmap,
    poly_gcd,
    rational_roots,
)


def P(*coeffs):
    return Poly(QQ, coeffs)


def test_arithmetic_examples():
    # (x^2 + 1)(x - 1) = x^3 - x^2 + x - 1
    assert P(1, 0, 1) * P(-1, 1) == P(-1, 1, -1, 1)
    assert poly_gcd(P(-1, 0, 1), P(1, -2, 1)) == P(-1, 1)  # shared root 1, monic
    F5 = GF(5)
    q, r = divmod(Poly(F5, [0, 0, 0, 1]), Poly(F5, [-2, 1]))
    assert q == Poly(F5, [4, 2, 1]) and r == Poly(F5, [3])  # 2^3 = 8 = 3 (mod 5)


def test_divmod_identity_random():
    rng = random.Random(5)
    for field in (QQ, GF(13)):
        for _ in range(200):
            f = Poly(field, [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 8))])
            g = Poly(field, [rng.randrange(-9, 10) for _ in range(rng.randrange(1, 5))])
            if g.is_zero:
                continue
            q, r = divmod(f, g)
            assert q * g + r == f
            assert r.is_zero or r.degree < g.degree


def test_gcd_divides_both_random():
    rng = random.Random(6)
    for _ in range(120):
        f = P(*[rng.randrange(-5, 6) for _ in range(rng.randrange(1, 7))])
        g = P(*[rng.randrange(-5, 6) for _ in range(rng.randrange(1, 7))])
        if f.is_zero or g.is_zero:
            continue
        d = poly_gcd(f, g)
        assert (f % d).is_zero and (g % d).is_zero
        assert d.leading == 1


def test_zero_division():
    with pytest.raises(ZeroDivisionError):
        divmod(P(1, 1), Poly.zero(QQ))
    with pytest.raises(ZeroDivisionError):
        RatMap(P(1), Poly.zero(QQ))


def test_powers_and_values_match_the_repeated_product():
    rng = random.Random(25)
    for field in (QQ, GF(13)):
        for _ in range(20):
            f = Poly(field, [Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))
                             for _ in range(rng.randrange(1, 5))])
            product = Poly.one(field)
            for n in range(7):
                assert f**n == product, (f, n)
                product = product * f
            x = rng.randrange(-20, 21)
            expected = sum(c * Fraction(x) ** i for i, c in enumerate(f.coeffs))
            assert f(x) == field.coerce(expected)
    with pytest.raises(ValueError, match="negative"):
        P(1, 1) ** -1


def test_derivative_and_eval():
    f = P(1, -4, 0, 2)  # 2x^3 - 4x + 1
    assert f.derivative() == P(-4, 0, 6)
    assert f(Fraction(1, 2)) == Fraction(-3, 4)


def test_ratmap_canonical_form():
    # (x^2 - 1)/(x - 1) cancels to x + 1
    f = RatMap(P(-1, 0, 1), P(-1, 1))
    assert f.num == P(1, 1) and f.den == P(1)
    # over QQ: integer coefficients, joint content 1, positive leading
    # denominator coefficient
    g = RatMap(P(0, 2), P(4))
    assert g.num == P(0, 1) and g.den == P(2)
    h = RatMap(P(0, Fraction(1, 3)), P(Fraction(-1, 2)))
    assert h.num == P(0, -2) and h.den == P(3)


def test_ratmap_canonical_form_is_unique():
    # scaling both sides by one rational c, or multiplying in a common
    # factor, must not change the canonical pair
    rng = random.Random(14)

    def rand_poly(maxlen):
        n = rng.randrange(1, maxlen)
        return P(*[Fraction(rng.randrange(-30, 31), rng.randrange(1, 12)) for _ in range(n)])

    for _ in range(300):
        num, den, common = rand_poly(6), rand_poly(6), rand_poly(4)
        if num.is_zero or den.is_zero or common.is_zero:
            continue
        c = Fraction(rng.choice((-1, 1)) * rng.randrange(1, 10**6), rng.randrange(1, 10**6))
        want = RatMap(num, den)
        assert RatMap(num.scale(c), den.scale(c)) == want
        assert RatMap(num * common, den * common) == want
        cs = want.num.coeffs + want.den.coeffs
        assert all(v.denominator == 1 for v in cs)
        assert math.gcd(*(v.numerator for v in cs)) == 1 and want.den.leading > 0


def test_eval_proj():
    F11 = GF(11)
    ident = RatMap(Poly.x(F11), Poly.one(F11))
    assert ident.eval_proj(5) == 5
    assert ident.eval_proj(INFINITY) is INFINITY
    # pole and point at infinity
    f = RatMap(Poly(F11, [1]), Poly(F11, [-3, 1]))  # 1/(x-3)
    assert f.eval_proj(3) is INFINITY
    assert f.eval_proj(INFINITY) == 0
    affine = RatMap(Poly(GF(3), [1, 1]), Poly.one(GF(3)))
    ok, table = affine.is_bijection()
    assert ok and table == [1, 2, 0, INFINITY]


def test_eval_proj_composition_property():
    rng = random.Random(9)
    for p in (5, 7, 11, 13, 17, 31, 47):
        F = GF(p)
        for _ in range(25):
            f = _random_map(F, rng)
            g = _random_map(F, rng)
            h = f.compose(g)
            for x in list(range(p)) + [INFINITY]:
                assert h.eval_proj(x) == f.eval_proj(g.eval_proj(x))


def _random_map(F, rng):
    while True:
        num = Poly(F, [rng.randrange(F.p) for _ in range(rng.randrange(1, 5))])
        den = Poly(F, [rng.randrange(F.p) for _ in range(rng.randrange(1, 5))])
        if num.is_zero or den.is_zero:
            continue
        m = RatMap(num, den)
        # degenerate constants make the composition 0/0-prone; skip them
        if m.num.degree > 0 or m.den.degree > 0:
            return m


def test_is_bijection_matches_multiset_oracle():
    rng = random.Random(10)
    for p in (5, 7, 11):
        F = GF(p)
        for _ in range(40):
            m = _random_map(F, rng)
            values = [m.eval_proj(x) for x in range(p)] + [m.eval_proj(INFINITY)]
            keyed = [p if v is INFINITY else v for v in values]
            expected = len(set(keyed)) == p + 1
            got, cert = m.is_bijection()
            assert got == expected
            assert m.value_table() == values
            if not got:
                x1, x2 = cert
                assert m.eval_proj(x1) == m.eval_proj(x2) and x1 != x2


def test_reduce_mod_p():
    ident = RatMap(Poly.x(QQ), Poly.one(QQ))
    assert ident.reduce_mod_p(7).num == Poly(GF(7), [0, 1])
    bad = RatMap(Poly(QQ, [0, Fraction(1, 5)]), Poly.one(QQ))
    with pytest.raises(ZeroDivisionError):
        bad.reduce_mod_p(5)
    # factors may appear and cancel after reduction
    f = RatMap(P(-1, 0, 1), P(6, 1))  # (x^2-1)/(x+6): x+6 = x-1 mod 7
    red = f.reduce_mod_p(7)
    assert red.num == Poly(GF(7), [1, 1]) and red.den == Poly(GF(7), [1])
    # a numerator that vanishes mod p gives the eager zero map
    zero = RatMap(P(7, 0, 14), P(1, 1)).reduce_mod_p(7)
    assert zero == RatMap(Poly.zero(GF(7)), Poly.one(GF(7)))
    assert zero.value_table() == [0] * 8


def test_reduced_maps_cancel_at_a_shared_root():
    # (x^2-1)/(x+6) mod 7 is (x-1)(x+1)/(x-1): the shared F_7-root 1 reads
    # 0/0, and each evaluation must cancel there and agree with the eager map
    F = GF(7)
    f = RatMap(P(-1, 0, 1), P(6, 1))
    eager = RatMap(Poly(F, [-1, 0, 1]), Poly(F, [6, 1]))
    assert eager == RatMap(Poly(F, [1, 1]), Poly.one(F))
    assert f.reduce_mod_p(7).value_table() == eager.value_table() == [1, 2, 3, 4, 5, 6, 0, INFINITY]
    assert f.reduce_mod_p(7).is_bijection() == eager.is_bijection()
    assert f.reduce_mod_p(7).eval_proj(1) == eager.eval_proj(1) == 2


def test_reduced_maps_evaluate_before_cancelling(monkeypatch):
    # (x^2+8)/(x^2+1) is coprime over QQ, but mod 7 both sides are x^2+1,
    # which has no F_7-root: the table needs no gcd and is the constant 1,
    # and a canonical read cancels to the constant map
    calls = []
    fp_gcd = polyrat._fp_gcd
    monkeypatch.setattr(polyrat, "_fp_gcd", lambda a, b, p: calls.append(p) or fp_gcd(a, b, p))
    F = GF(7)
    red = RatMap(P(8, 0, 1), P(1, 0, 1)).reduce_mod_p(7)
    one = RatMap(Poly.one(F), Poly.one(F))
    calls.clear()
    assert red.value_table() == one.value_table() == [1] * 8
    assert red.is_bijection()[0] is False
    assert calls == []
    assert red == one
    assert calls == [7]


def divisor_root_oracle(f: Poly) -> set:
    """Exhaustive rational-root search via divisor pairs (deg <= 6 only)."""
    cs = f.coeffs
    lcm = 1
    for c in cs:
        lcm = lcm * c.denominator // __import__("math").gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in cs]
    while ints and ints[0] == 0:
        ints = ints[1:]
        # root 0 handled separately by caller check below
    roots = set()
    if not ints:
        return roots
    a0, an = abs(ints[0]), abs(ints[-1])
    divs0 = [d for d in range(1, a0 + 1) if a0 % d == 0]
    divsn = [d for d in range(1, an + 1) if an % d == 0]
    for u in divs0:
        for v in divsn:
            for s in (1, -1):
                cand = Fraction(s * u, v)
                if f(cand) == 0:
                    roots.add(cand)
    if f(Fraction(0)) == 0:
        roots.add(Fraction(0))
    return roots


def test_rational_roots_examples():
    assert rational_roots(P(22, -15, 0, 1)) == {Fraction(2)}  # 8 - 30 + 22 = 0
    assert rational_roots(P(1694, -264, 0, 1)) == set()
    assert rational_roots(P(0, 1)) == {Fraction(0)}


def test_rational_roots_against_divisor_oracle():
    rng = random.Random(12)
    for _ in range(150):
        f = P(*[rng.randrange(-8, 9) for _ in range(rng.randrange(2, 8))])
        if f.is_zero:
            continue
        assert rational_roots(f) == divisor_root_oracle(f)


def test_root_certificate_is_exact_past_the_probe_prime():
    # a candidate that is a root mod the probe prime q but not over QQ is
    # rejected, and a true root whose denominator q divides is accepted
    q = polyrat._PROBE_PRIMES[0]
    assert not polyrat._is_root([-q, 1], Fraction(0))
    assert not polyrat._is_root([-q * q, 0, 1], Fraction(2 * q, 3))
    assert polyrat._is_root([-1, q], Fraction(1, q))
    assert polyrat._is_root([-q * q, 0, 1], Fraction(-q))


def test_rational_roots_huge_constant_term():
    # roots survive even when the constant term is far too big to factor
    f = P(1, 1)  # x + 1
    for r in (Fraction(3, 2), Fraction(-7), Fraction(10**25)):
        f = f * P(-r.numerator, r.denominator)
    g = f * P(10**40 + 1, 1, 1)  # big irreducible-ish cofactor
    got = rational_roots(g)
    assert {Fraction(-1), Fraction(3, 2), Fraction(-7), Fraction(10**25)} <= got


def test_rational_roots_with_a_large_leading_coefficient():
    # roots u/v whose v runs up to a leading coefficient near 10^12
    rng = random.Random(21)
    for _ in range(40):
        want = set()
        f = P(rng.randrange(1, 10**6), 0, 1)  # x^2 + c has no rational root
        for _ in range(rng.randrange(1, 4)):
            r = Fraction(rng.randrange(-(10**6), 10**6), rng.randrange(1, 10**4))
            want.add(r)
            f = f * P(-r.numerator, r.denominator)
        assert rational_roots(f) == want


def test_rational_roots_with_repeated_factors():
    f = P(-1, 1) ** 3 * P(2, 1)
    assert rational_roots(f) == {Fraction(1), Fraction(-2)}


def test_format():
    assert format_poly(P(-1, 0, 6, 0, 3)) == "3x^4 + 6x^2 - 1"
    assert format_ratmap(RatMap(P(0, -16, 0, 0, 1), P(8, 0, 0, 4))) == "(x^4 - 16x)/(4x^3 + 8)"
    assert format_ratmap(RatMap(Poly.x(QQ), Poly.one(QQ))) == "x"


# a printed term: an int or n/d, bare or in parentheses, and its power of x
_PRINTED_TERM = re.compile(r"(-?)\(?(-?\d+)?(?:/(\d+))?\)?(x(?:\^(\d+))?)?")


def _parse_printed(text):
    """The Poly over QQ that format_poly printed as text.  Its ints go
    through Decimal, to which no digit limit applies."""
    cs = {}
    parts = re.split(r" ([+-]) ", text)
    for sign, term in zip(["+", *parts[1::2]], parts[::2]):
        neg, num, den, x, e = _PRINTED_TERM.fullmatch(term).groups()
        c = Fraction(int(Decimal(num or "1")), int(Decimal(den or "1")))
        cs[int(e or 1) if x else 0] = -c if (sign == "-") != (neg == "-") else c
    return Poly(QQ, [cs.get(i, 0) for i in range(max(cs) + 1)])


def test_format_prints_coefficients_past_the_str_limit():
    # str raises on an int of more than sys.get_int_max_str_digits() (4300)
    # digits; the printer must not, and what it prints must parse back
    big = 7**6000  # 5071 digits
    assert len(polyrat._int_str(big)) == 5071
    with pytest.raises(ValueError):
        str(big)
    for f in (P(-big, 0, big, 1), P(Fraction(-big, 3), 0, Fraction(2, big + 1), 1), P(5, Fraction(big, 7))):
        assert _parse_printed(format_poly(f)) == f
    # a 2201-digit a4 gives L_2 a 4401-digit constant term a4^2
    a4 = 10**2200 + 3
    L = lattes_map(Curve(0, 0, 0, a4, 1), 2)
    num, den = re.fullmatch(r"\((.*)\)/\((.*)\)", format_ratmap(L)).groups()
    assert (_parse_printed(num), _parse_printed(den)) == (L.num, L.den)
    assert L.num.coeffs[0] == a4 * a4


def test_construction_audit_value_tables():
    # canonical invariants hold for every map the library builds here
    rng = random.Random(13)
    for p in (5, 11):
        F = GF(p)
        for _ in range(50):
            m = _random_map(F, rng)
            assert m.den.leading == F.one
            assert poly_gcd(m.num, m.den).degree == 0


def test_value_table_runs_the_int64_guard_first(monkeypatch):
    seen = []

    def spy(p):
        seen.append(p)
        check_int64_modulus(p)

    monkeypatch.setattr(polyrat, "check_int64_modulus", spy)
    F = GF(2147483659)
    with pytest.raises(ValueError, match="2\\*\\*31"):
        RatMap(Poly.x(F), Poly.one(F)).value_table()
    assert seen == [2147483659]
