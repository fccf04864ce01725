import dataclasses
import hashlib
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from lattes_lab import elliptic, polyrat
from lattes_lab.elliptic import (
    CATALOG,
    CATALOG_BY_NAME,
    CM_J_INVARIANTS,
    Curve,
    add_points,
    cm_disc_for,
    cm_model,
    count_points,
    curve_hash,
    division_poly,
    eval_lattes_vs_group_law,
    format_curve,
    lattes_map,
    negate_point,
    noncm_family,
    parse_curve,
    quadratic_twist,
    random_point,
    scalar_mul,
    torsion_classify_Ed,
    torsion_x_rational,
)
from lattes_lab.intmath import is_prime, kronecker, primes_upto, sqrt_mod
from lattes_lab.polyrat import GF, Poly, QQ, RatMap, format_ratmap, poly_gcd
from lattes_lab.quadorder import CLASS_NUMBER_ONE_DISCS


def test_invariants():
    assert Curve(0, 0, 0, 1, 0).j == 1728
    assert Curve(0, 0, 0, -264, 1694).j == -32768
    assert Curve(0, 0, 0, -9, 12).j == -5184
    assert Curve(0, 1, 0, -3, 1).j == 8000
    assert Curve(0, 0, 1, -38, 90).j == -(96**3)
    assert Curve(0, 0, 0, -35, 98).j == -3375
    assert Curve(0, 0, 0, -15, 22).j == 54000
    assert Curve(0, 0, 0, -120, 506).j == -12288000
    assert Curve(0, 0, 0, 0, 2).j == 0
    with pytest.raises(ValueError, match=r"^singular curve \[0,0,0,0,0\]$"):
        Curve(0, 0, 0, 0, 0)
    with pytest.raises(ValueError, match=r"^singular curve \[0,0,0,-3/4,1/4\]$"):
        Curve(0, 0, 0, Fraction(-3, 4), Fraction(1, 4))


def test_b_invariant_identity():
    rng = random.Random(2)
    built = 0
    while built < 50:
        try:
            c = Curve(*[Fraction(rng.randrange(-6, 7)) for _ in range(5)])
        except ValueError:
            continue
        built += 1
        assert 4 * c.b8 == c.b2 * c.b6 - c.b4**2


def test_division_polys_fixed_values():
    assert division_poly(Curve(0, 0, 0, 1, 0), 3) == Poly(QQ, [-1, 0, 6, 0, 3])
    # 3(x-3)(x^3+3x^2-21x+25)
    assert division_poly(Curve(0, 0, 0, -15, 22), 3) == Poly(QQ, [-225, 264, -90, 0, 3])
    # 3(x^2-22x+132)(x^2+22x-176)
    assert division_poly(Curve(0, 0, 0, -264, 1694), 3) == Poly(QQ, [-69696, 20328, -1584, 0, 3])
    # 3(x-6)(x^3+6x^2-204x+800) = 3x^4 - 720x^2 + 6072x - 14400
    assert division_poly(Curve(0, 0, 0, -120, 506), 3) == Poly(QQ, [-14400, 6072, -720, 0, 3])
    assert division_poly(Curve(0, 0, 0, 5, 7), 1) == Poly.one(QQ)


def test_psi3_matches_short_form_symbolically():
    rng = random.Random(3)
    for _ in range(30):
        A, B = rng.randrange(-20, 21), rng.randrange(-20, 21)
        try:
            c = Curve(0, 0, 0, A, B)
        except ValueError:
            continue
        assert division_poly(c, 3) == Poly(QQ, [-A * A, 12 * B, 6 * A, 0, 3])


def test_division_poly_degree_and_leading():
    c = CATALOG_BY_NAME["d11"].curve
    for n in range(1, 14):
        f = division_poly(c, n)
        if n % 2:
            assert f.degree == (n * n - 1) // 2
            assert f.leading == n
        else:
            assert f.degree == (n * n - 4) // 2
            assert f.leading == Fraction(n, 2)


def test_lattes_displayed_forms():
    assert format_ratmap(lattes_map(Curve(0, 0, 0, 0, 2), 2)) == "(x^4 - 16x)/(4x^3 + 8)"
    assert (
        format_ratmap(lattes_map(Curve(0, 0, 0, 1, 0), 3))
        == "(x^9 - 12x^7 + 30x^5 + 36x^3 + 9x)/(9x^8 + 36x^6 + 30x^4 - 12x^2 + 1)"
    )
    assert (
        format_ratmap(lattes_map(Curve(0, 0, 0, -264, 1694), 2))
        == "(x^4 + 528x^2 - 13552x + 69696)/(4x^3 - 1056x + 6776)"
    )
    assert format_ratmap(lattes_map(Curve(1, 2, 3, 4, 5), 1)) == "x"


def test_lattes_degrees():
    for entry in CATALOG:
        for k in range(2, 9):
            L = lattes_map(entry.curve, k)
            assert L.num.degree == k * k
            assert L.den.degree <= k * k - 1


def test_lattes_maps_are_content_one_integer_pairs():
    # the stored pair is the one reduce_mod_p reduces; poly_gcd checks the
    # coprimality that the probe certificate claims by another route
    for entry in CATALOG:
        for k in range(1, 7):
            L = lattes_map(entry.curve, k)
            cs = L.num.coeffs + L.den.coeffs
            assert all(c.denominator == 1 for c in cs)
            assert math.gcd(*(c.numerator for c in cs)) == 1
            assert L.den.leading > 0
            assert poly_gcd(L.num, L.den).degree == 0


def _valuation(c: Fraction, p: int) -> int:
    v, n, d = 0, c.numerator, c.denominator
    while n % p == 0:
        n, v = n // p, v + 1
    while d % p == 0:
        d, v = d // p, v - 1
    return v


def _reference_reduction(L, p):
    """L mod p by scaling the pair over QQ to a monic denominator, then by
    the power of p that leaves every coefficient p-integral and one of them
    a p-unit, coercing each coefficient through GF(p) and cancelling."""
    lead = L.den.leading
    num, den = L.num.scale(1 / lead), L.den.scale(1 / lead)
    s = Fraction(p) ** -min(_valuation(c, p) for c in num.coeffs + den.coeffs if c)
    F = GF(p)
    return RatMap(Poly(F, num.scale(s).coeffs), Poly(F, den.scale(s).coeffs))


def test_reduce_mod_p_matches_the_monic_reference():
    # the reduced map keeps its gcd pending: its table and verdict, taken
    # before any canonical read, must match the eagerly cancelled reference
    seen_p_divides_k = 0
    for entry in CATALOG:
        for k in range(1, 9):
            L = lattes_map(entry.curve, k)
            for p in entry.curve.good_primes(200):
                want = _reference_reduction(L, p)
                where = (entry.name, k, p)
                assert L.reduce_mod_p(p).is_bijection() == want.is_bijection(), where
                red = L.reduce_mod_p(p)
                assert red.value_table() == want.value_table(), where
                assert red.degree == want.degree, where
                assert format_ratmap(red) == format_ratmap(want), where
                assert red == want, where
                seen_p_divides_k += k % p == 0
    assert seen_p_divides_k > 0


# sha256 of "name k p table" lines, one per value table of L_k on each
# catalog curve for k = 2..10 at every good p <= 200 (4707 tables, the
# brute-force side of the perm-equivalence suite); pinned from the blocked
# Horner kernel, before the power table served these primes
VALUE_TABLE_SHA256 = "f5ea6419c66fa0d85c98eb6ceb7eb6b611ed98e14cd6902b29683ab2e8e6ec2f"


def test_value_table_digest_is_pinned():
    h = hashlib.sha256()
    for entry in CATALOG:
        for k in range(2, 11):
            L = lattes_map(entry.curve, k)
            for p in entry.curve.good_primes(200):
                h.update(f"{entry.name} {k} {p} {L.reduce_mod_p(p).value_table()}\n".encode())
    assert h.hexdigest() == VALUE_TABLE_SHA256


def test_brute_force_at_good_primes_runs_no_gcd(monkeypatch):
    # phi_k and psi_k^2 share no root on a nonsingular reduction, so the
    # reduce-and-brute-force loop never needs to cancel at a good prime
    maps = [(lattes_map(e.curve, k), e.curve.good_primes(200)[:30]) for e in CATALOG for k in range(2, 13)]
    calls = []
    fp_gcd = polyrat._fp_gcd
    monkeypatch.setattr(polyrat, "_fp_gcd", lambda a, b, p: calls.append(p) or fp_gcd(a, b, p))
    for L, good in maps:
        for p in good:
            L.reduce_mod_p(p).is_bijection()
    assert calls == []


def test_primes_by_reduction_matches_the_has_good_reduction_filter():
    # one sieve pass, split by a predicate that skips the primality test;
    # checked against has_good_reduction and against the definition
    primes = [p for p in primes_upto(10**4) if p >= 5]
    fractional = Curve(0, 0, 0, Fraction(1, 7), Fraction(-3, 11))
    for curve in [e.curve for e in CATALOG] + [fractional]:
        good, bad = curve.primes_by_reduction(10**4)
        assert good == [p for p in primes if curve.has_good_reduction(p)]
        assert bad == [
            p for p in primes
            if any(a.denominator % p == 0 for a in curve.ainvs()) or curve.discriminant.numerator % p == 0
        ]
        assert curve.good_primes(10**4) == good
    assert {7, 11} <= set(fractional.primes_by_reduction(100)[1])
    with pytest.raises(ValueError, match="not prime"):
        fractional.has_good_reduction(9)


def test_lattes_composition():
    for entry in CATALOG:
        L2, L3, L6 = (lattes_map(entry.curve, k) for k in (2, 3, 6))
        assert L2.compose(L3) == L6
        assert L3.compose(L2) == L6
    c = CATALOG_BY_NAME["d3"].curve
    assert lattes_map(c, 2).compose(lattes_map(c, 2)) == lattes_map(c, 4)
    assert lattes_map(c, 2).compose(lattes_map(c, 4)) == lattes_map(c, 8)
    assert lattes_map(c, 4).compose(lattes_map(c, 2)) == lattes_map(c, 8)


def test_count_points_reference_traces():
    expected = {
        ("d4", 5): 2,
        ("d4", 13): -6,
        ("d4", 29): 10,
        ("d7", 11): -4,
        ("d7", 23): -8,
        ("d19", 5): -1,
        ("d19", 7): 3,
        ("d19", 17): -7,
        ("d27", 7): -1,
        ("d27", 37): -11,
        ("d3", 7): -1,
        ("d3", 13): -5,
        ("d3", 19): 7,
        ("d11", 5): -3,
        ("d11", 23): -9,
        ("d11", 31): 5,
        ("d11", 47): -12,
        ("d27", 13): -5,
        ("d27", 19): 7,
        ("d27", 61): 1,
        ("d3", 37): -11,
        ("d3", 43): -8,
    }
    for (name, p), ap in expected.items():
        order, got = count_points(CATALOG_BY_NAME[name].curve, p)
        assert got == ap, (name, p, got, ap)
        assert order == p + 1 - ap


def test_count_points_hasse_and_errors():
    c = CATALOG_BY_NAME["d4"].curve
    for p in c.good_primes(500):
        _, ap = count_points(c, p)
        assert ap * ap <= 4 * p
    with pytest.raises(ValueError):
        count_points(c, 2)  # bad reduction and p < 5
    with pytest.raises(ValueError):
        count_points(CATALOG_BY_NAME["d7"].curve, 7)


def test_count_points_stops_at_its_cap_before_allocating(monkeypatch):
    def reached(*args, **kwargs):
        raise AssertionError("count_points allocated above its cap")

    p = next(q for q in range(elliptic.COUNT_POINTS_MAX + 1, 2 * elliptic.COUNT_POINTS_MAX) if is_prime(q))
    c = CATALOG_BY_NAME["d4"].curve
    assert c.has_good_reduction(p)
    monkeypatch.setattr(np, "arange", reached)
    with pytest.raises(ValueError, match="frobenius_trace"):
        count_points(c, p)


def test_count_points_refuses_a_prime_beyond_int64_before_any_array(monkeypatch):
    # its cap, far below 2**31, is the int64 guard
    def reached(*args, **kwargs):
        raise AssertionError("count_points allocated beyond int64")

    monkeypatch.setattr(np, "arange", reached)
    with pytest.raises(ValueError, match="count_points stops at"):
        count_points(CATALOG_BY_NAME["d4"].curve, 2147483659)


def test_b_invariant_identity_is_an_explicit_check(monkeypatch):
    # a wrong b8 must be caught by a raise that survives python -O
    monkeypatch.setattr(Curve, "b8", property(lambda c: c.a4**2 + 1))
    with pytest.raises(ArithmeticError, match="b8"):
        Curve(0, 0, 0, 1, 1)


def test_twist_trace_relation():
    for name, d in (("d3", 5), ("d4", -1), ("d4", 3), ("d12", 7)):
        c = CATALOG_BY_NAME[name].curve
        tw = quadratic_twist(c, d)
        for p in primes_upto(500):
            if p < 5 or not (c.has_good_reduction(p) and tw.has_good_reduction(p)):
                continue
            if (2 * d) % p == 0:
                continue
            _, ap = count_points(c, p)
            _, ap_tw = count_points(tw, p)
            assert ap_tw == kronecker(d, p) * ap, (name, d, p)


def test_quadratic_twist_forms():
    c = Curve(0, 0, 0, 0, 2)
    assert quadratic_twist(c, 1) == c
    assert quadratic_twist(c, 5) == Curve(0, 0, 0, 0, 250)
    cx = Curve(0, 0, 0, 1, 0)
    assert quadratic_twist(cx, -1) == cx
    with pytest.raises(ValueError):
        quadratic_twist(CATALOG_BY_NAME["d19"].curve, 2)  # not short form
    with pytest.raises(ValueError):
        quadratic_twist(c, 12)  # not squarefree
    # a large prime d is factored with a bounded cost
    assert quadratic_twist(Curve(0, 0, 0, 1, 1), 2**61 - 1) == Curve(0, 0, 0, (2**61 - 1) ** 2, (2**61 - 1) ** 3)
    # a d with a prime-square cofactor above the trial bound is not squarefree
    d = 2 * 3 * 5 * 7 * (10**6 + 3) ** 2
    with pytest.raises(ValueError, match=f"twist parameter {d} must be a nonzero squarefree integer"):
        quadratic_twist(Curve(0, 0, 0, 1, 1), d)


def test_group_law_basics():
    c = CATALOG_BY_NAME["d4"].curve
    p = 7
    P = (0, 0)  # 2-torsion: y = 0
    assert add_points(c, P, None, p) == P
    assert add_points(c, P, P, p) is None
    assert negate_point(c, P, p) == P
    rng = random.Random(4)
    for _ in range(20):
        Q = random_point(c, p, rng)
        R = add_points(c, Q, negate_point(c, Q, p), p)
        assert R is None
    # associativity spot check
    for _ in range(20):
        A = random_point(c, 31, rng)
        B = random_point(c, 31, rng)
        C = random_point(c, 31, rng)
        lhs = add_points(c, add_points(c, A, B, 31), C, 31)
        rhs = add_points(c, A, add_points(c, B, C, 31), 31)
        assert lhs == rhs


def test_group_order_annihilates():
    rng = random.Random(8)
    for name in ("d4", "d19", "d11"):
        c = CATALOG_BY_NAME[name].curve
        for p in (13, 17, 29):
            if not c.has_good_reduction(p):
                continue
            n, _ = count_points(c, p)
            for _ in range(5):
                P = random_point(c, p, rng)
                assert scalar_mul(c, n, P, p) is None


def test_scalar_mul_checks_the_point_for_every_nonzero_k():
    # no doubling of [k]P is needed at k = +-1, yet an off-curve P is
    # refused there as for every other k != 0
    c = Curve(0, 0, 0, 1, 1)
    for k in (1, -1, 2, 5):
        with pytest.raises(ValueError, match="not on the curve"):
            scalar_mul(c, k, (1, 1), 101)
    assert scalar_mul(c, 0, (1, 1), 101) is None


def test_lattes_group_law_cross_oracle_sample():
    rng = random.Random(20240811)
    for name in ("d4", "d19", "d3"):
        assert eval_lattes_vs_group_law(CATALOG_BY_NAME[name].curve, 40, 5, 8, rng) is None


def test_torsion_x_rational():
    assert torsion_x_rational(Curve(0, 0, 0, 0, 2), 3) == {Fraction(0), Fraction(-2)}
    assert torsion_x_rational(Curve(0, 0, 0, -264, 1694), 6) == set()
    d12 = CATALOG_BY_NAME["d12"].curve
    assert torsion_x_rational(d12, 2) == {Fraction(2)}
    assert torsion_x_rational(d12, 3) == {Fraction(3)}
    assert torsion_x_rational(d12, 6) == {Fraction(2), Fraction(3), Fraction(-1)}
    # membership implies vanishing
    for x in torsion_x_rational(d12, 6):
        assert division_poly(d12, 6)(x) == 0 or d12.psi2_squared(x) == 0


def test_torsion_classify_Ed():
    assert torsion_classify_Ed(1) == "C6"
    assert torsion_classify_Ed(-432) == "C3"
    assert torsion_classify_Ed(2) == "C1"
    assert torsion_classify_Ed(4) == "C3"
    assert torsion_classify_Ed(8) == "C2"
    assert torsion_classify_Ed(-27) == "C2"
    assert torsion_classify_Ed(5) == "C1"
    with pytest.raises(ValueError):
        torsion_classify_Ed(64)  # 2^6
    with pytest.raises(ValueError):
        torsion_classify_Ed(0)


def test_torsion_classify_cross_check():
    """The formula agrees with direct 2-/3-torsion point detection."""
    from math import isqrt

    from lattes_lab.polyrat import rational_roots

    def rational_point_with_order(d, m):
        c = Curve(0, 0, 0, 0, d)
        poly = division_poly(c, m) if m == 3 else c.psi2_squared
        for x in rational_roots(poly):
            ysq = x**3 + d
            if ysq == 0:
                return True  # 2-torsion point (x, 0)
            num, den = ysq.numerator, ysq.denominator
            if num > 0 and isqrt(num) ** 2 == num and isqrt(den) ** 2 == den:
                return True
        return False

    for d in (1, 2, 3, 4, 5, 8, 9, -1, -27, -432, 17, 25, -8):
        tag = torsion_classify_Ed(d)
        has2 = rational_point_with_order(d, 2)
        has3 = rational_point_with_order(d, 3)
        expected = {(False, False): "C1", (True, False): "C2", (False, True): "C3",
                    (True, True): "C6"}[(has2, has3)]
        assert tag == expected, (d, tag, expected)


def test_cm_model():
    assert cm_model(-11, 1) == Curve(0, 0, 0, -264, 1694)
    assert cm_model(-11, 1).j == -32768
    assert cm_model(-27, 1) == Curve(0, 0, 0, -120, 506)
    assert cm_model(-12, 1) == CATALOG_BY_NAME["d12"].curve
    assert cm_model(-3, 2) == Curve(0, 0, 0, 0, 2)
    assert cm_model(-11, 2).j == -32768  # j is twist-invariant across the family
    assert cm_model(-12, 3).j == 54000
    assert cm_model(-27, 2).j == -12288000
    with pytest.raises(ValueError, match="unsupported CM discriminant"):
        cm_model(-15, 1)  # not a class-number-one discriminant
    with pytest.raises(ValueError):
        cm_model(-3, 0)


def test_cm_model_has_the_j_of_its_discriminant():
    # every class-number-one discriminant has a model, so --D alone selects
    # a curve wherever --D beside a curve spec is accepted
    for D in CLASS_NUMBER_ONE_DISCS:
        curve = cm_model(D)
        assert curve.discriminant != 0
        assert cm_disc_for(curve) == D, D


def test_cm_model_without_a_family_takes_only_u_1():
    # the D of _FIXED_CM_CURVES have one model each: u = 1 (the default)
    # gives it, any other u is an error rather than the same curve again
    for D in elliptic._FIXED_CM_CURVES:
        assert cm_model(D) == cm_model(D, 1) == Curve(*elliptic._FIXED_CM_CURVES[D])
        for u in (2, -1, Fraction(1, 2)):
            with pytest.raises(ValueError, match="takes no u"):
                cm_model(D, u)


def test_noncm_families():
    assert noncm_family("E", 1) == Curve(0, 0, 0, -9, 12)
    assert noncm_family("F", 1) == Curve(0, 0, 0, -60, 180)
    assert noncm_family("E", 2).j == -5184
    assert noncm_family("F", 3).j == -138240
    with pytest.raises(ValueError):
        noncm_family("G", 1)


def test_catalog_integrity():
    assert len(CATALOG) >= 10
    js = {
        "d4": 1728,
        "d8": 8000,
        "d7": -3375,
        "d12": 54000,
        "d19": -(96**3),
        "d27": -12288000,
        "d3": 0,
        "d11": -32768,
        "noncm-e": -5184,
        "noncm-f": -138240,
    }
    for name, j in js.items():
        assert CATALOG_BY_NAME[name].curve.j == j
    # non-CM j-invariants for the density curves are not CM values
    cm_js = {0, 1728, -3375, 8000, 54000, 287496, -32768, -884736, 16581375,
             -12288000, -884736000, -147197952000, -262537412640768000}
    assert CATALOG_BY_NAME["k2-s3"].curve.j not in cm_js
    assert CATALOG_BY_NAME["k2-c3"].curve.j not in cm_js


def test_curve_text_format():
    c = parse_curve("[0,0,1,-38,90]")
    assert c == CATALOG_BY_NAME["d19"].curve
    assert format_curve(c) == "[0,0,1,-38,90]"
    assert parse_curve("[0,0,0,1/2,-3/4]").a4 == Fraction(1, 2)
    with pytest.raises(ValueError):
        parse_curve("0,0,1,-38,90")
    with pytest.raises(ValueError):
        parse_curve("[1,2,3]")
    assert len(curve_hash(c)) == 12 and curve_hash(c) == curve_hash(parse_curve("[0,0,1,-38,90]"))


def test_torsion_x_rational_with_a_huge_leading_coefficient():
    # psi_5 of this model has leading coefficient 8612495045 after clearing
    # denominators; trying every denominator up to it did not finish
    import time

    start = time.perf_counter()
    assert torsion_x_rational(Curve(0, 0, 0, Fraction(1, 7), Fraction(1, 11)), 5) == set()
    assert time.perf_counter() - start < 5.0
    # y^2 = x^3 + 1 scaled by u = 7: x = -1/49, 0, 2/49 are 2-, 3- and 6-torsion
    scaled = Curve(0, 0, 0, 0, Fraction(1, 7**6))
    assert torsion_x_rational(scaled, 6) == {Fraction(-1, 49), Fraction(0), Fraction(2, 49)}


# -- a_p by Shanks-Mestre against the character sum ---------------------------


def _bsgs(curve, p):
    F = GF(p)
    return elliptic._shanks_mestre(F.coerce(-27 * curve.c4), F.coerce(-54 * curve.c6), p)


def _spy_scalar(monkeypatch) -> list[tuple[int, int]]:
    """The (p, d) of every draw made on Python ints, in order."""
    drawn = []
    real = elliptic._scalar_draw
    monkeypatch.setattr(elliptic, "_scalar_draw", lambda a, b, p, d: drawn.append((p, d)) or real(a, b, p, d))
    return drawn


def _first_scalar_draws(drawn) -> dict[int, int]:
    """Each prime that drew on Python ints, and the index it started at."""
    first = {}
    for p, d in drawn:
        first.setdefault(p, d)
    return first


def _x_at_draw(monkeypatch, at: int, x):
    """Make draw `at` try x (an int, or a function of p) on both engines;
    every other draw keeps its point.  Works on arrays and on ints."""
    real = elliptic._batch_x
    value = x if callable(x) else (lambda p: x)
    monkeypatch.setattr(elliptic, "_batch_x", lambda p, d: real(p, d) * (d != at) + value(p) * (d == at))


def test_shanks_mestre_matches_the_character_sum_on_the_catalog(monkeypatch):
    # the scalar route from p = 230 to 5000, and the batch route at every
    # good prime from the crossover to 10^4, one chunk per curve
    drawn = _spy_scalar(monkeypatch)
    for entry in CATALOG:
        c = entry.curve
        sums = {p: count_points(c, p)[1] for p in c.good_primes(10**4) if p >= 230}
        for p in sums:
            if p <= 5000:
                assert _bsgs(c, p) == sums[p], (entry.name, p)
        big = [p for p in sums if p >= 2000]
        drawn.clear()
        assert elliptic._frobenius_traces(c, big) == [sums[p] for p in big], entry.name
        # the arrays settle nearly every prime (3% or less draw on Python
        # ints on the catalog)
        assert len(_first_scalar_draws(drawn)) < len(big) / 20, (entry.name, len(drawn))


def test_batch_takes_every_prime_from_mestres_bound(monkeypatch):
    # from p = 230 on the batch, not the character sum, gives a_p, and the
    # rows it leaves open continue on Python ints.  The catalog, a long
    # model with a1, a2, a3 != 0 and the -11 twist, at every good prime in
    # [230, 2000)
    assert elliptic._MESTRE_FROM == 230
    curves = [entry.curve for entry in CATALOG]
    curves += [Curve(1, -1, 1, -122, 1721), Curve(0, 0, 0, -1056, 13552)]
    summed = []
    real_sum = elliptic.count_points
    monkeypatch.setattr(elliptic, "count_points", lambda c, p: summed.append(p) or real_sum(c, p))
    drawn = _spy_scalar(monkeypatch)
    total = fell_total = 0
    for c in curves:
        ps = [p for p in c.good_primes(1999) if p >= elliptic._MESTRE_FROM]
        expected = [real_sum(c, p)[1] for p in ps]
        drawn.clear()
        summed.clear()
        assert elliptic._frobenius_traces(c, ps) == expected, c
        assert summed == [], c
        total += len(ps)
        fell_total += len(_first_scalar_draws(drawn))
    # the arrays settle nearly every prime (4% draw on Python ints), so the
    # range cannot slide back to the scalar engine unnoticed
    assert total > 3000 and 0 < fell_total < total / 10, (total, fell_total)


def test_shanks_mestre_matches_the_character_sum_near_1e5_and_1e6():
    # 21 seeded primes per scale, seven for each curve; the batch route then
    # takes each curve's 14 primes as one chunk of mixed sizes
    rng = random.Random(20260)
    curves = [Curve(0, 0, 0, 1, 1), Curve(0, 0, 0, 1, 0), Curve(0, 0, 0, -1, 0)]
    chunks = [{}, {}, {}]
    for lo in (10**5, 10**6 - 2 * 10**4):
        window = [p for p in elliptic.primes_upto(lo + 2 * 10**4) if p >= lo]
        for i, p in enumerate(rng.sample(window, 21)):
            c = curves[i % 3]
            chunks[i % 3][p] = count_points(c, p)[1]
            assert _bsgs(c, p) == chunks[i % 3][p], (c, p)
    for c, traces in zip(curves, chunks):
        assert elliptic._frobenius_traces(c, list(traces)) == list(traces.values()), c


def test_shanks_mestre_settles_full_two_torsion_through_the_twist(monkeypatch):
    # E(F_p) contains Z/2 x Z/2, so its exponent often leaves several group
    # orders in the Hasse interval; the twist's points must settle those
    calls, settled_by_both = [], []
    real = elliptic._traces_fitting

    def spy(p, T, on_curve, on_twist):
        fits = real(p, T, on_curve, on_twist)
        calls.append(len(fits))
        if len(fits) == 1 and len(calls) > 1 and on_curve > 1 and on_twist > 1:
            settled_by_both.append(p)
        return fits

    monkeypatch.setattr(elliptic, "_traces_fitting", spy)
    ambiguous = 0
    for c in (Curve(0, 0, 0, -1, 0), Curve(0, 0, 0, -4, 0), Curve(0, 0, 0, -25, 0)):
        for p in c.good_primes(4000):
            if p < 230:
                continue
            calls.clear()
            assert _bsgs(c, p) == count_points(c, p)[1], (c, p)
            ambiguous += calls[0] > 1
    assert ambiguous > 100 and len(settled_by_both) > 100


def test_shanks_mestre_batch_matches_the_scalar_route_near_2_31():
    # near p = 2**31 a product of two residues fits int64 and a product of
    # three does not, so every reduction the group law skips shows here
    c = Curve(0, 0, 0, 1, 1)
    ps = [p for p in range(2**31 - 1, 2**31 - 300, -2) if is_prime(p)][:3]
    assert elliptic._frobenius_traces(c, ps) == [_bsgs(c, p) for p in ps]


def test_array_draws_give_the_scalar_draws_on_every_row():
    # both engines try the same point at each draw, so with nothing patched
    # the arrays' draws 0-2 give, at every row they serve, the side and step
    # that the scalar engine gives for that draw; a row with f = 0 is one
    # the scalar engine skips.  Every good prime in [230, 2 10^4) of a
    # curve with no CM, and in [230, 5000) of d4, where half the rows have
    # a_p = 0
    served = 0
    for c, pmax in ((CATALOG_BY_NAME["noncm-e"].curve, 2 * 10**4), (CATALOG_BY_NAME["d4"].curve, 5000)):
        ps = [p for p in c.good_primes(pmax - 1) if p >= elliptic._MESTRE_FROM]
        rows = [(p, d) for p in ps for d in range(elliptic._BATCH_DRAWS)]
        P, D = (np.array(v, dtype=np.int64) for v in zip(*rows))
        a, b = elliptic._residues(-27 * c.c4, P), elliptic._residues(-54 * c.c6, P)
        T = np.array([math.isqrt(4 * p) for p in P.tolist()])
        sides, steps, bad = (v.tolist() for v in elliptic._batch_draw(a, b, P, T, D))
        for (p, d), A, B, side, step, is_bad in zip(rows, a.tolist(), b.tolist(), sides, steps, bad):
            drawn = elliptic._scalar_draw(A, B, p, d)
            if not is_bad:
                assert drawn == (side, step), (c, p, d)
                served += 1
            elif drawn is not None:
                x = elliptic._batch_x(p, d)
                assert (x**3 + A * x + B) % p, (c, p, d)  # bad for a small order
    assert served > 6000, served


def test_a_row_bad_at_draw_1_takes_its_first_scalar_draw_at_1(monkeypatch):
    # x = 0 is a root of x^3 - 1296 x, the short model of y^2 = x^3 - x, so
    # with x = 0 at draw 1 every row that draw 0 leaves open is bad at
    # draw 1.  The scalar engine folds draw 0 from the arrays and takes its
    # first draw at index 1, which it skips (f = 0), and goes on from 2
    c = Curve(0, 0, 0, -1, 0)
    ps = [p for p in c.good_primes(4000) if p >= 2000]
    P = np.array(ps, dtype=np.int64)
    a, b = elliptic._residues(-27 * c.c4, P), elliptic._residues(-54 * c.c6, P)
    T = np.array([math.isqrt(4 * p) for p in ps])
    side, step, bad = elliptic._batch_draw(a, b, P, T, np.zeros_like(P))
    settled = ~bad & (np.abs(side * (P + 1 - step)) <= T)
    _x_at_draw(monkeypatch, 1, 0)
    drawn = _spy_scalar(monkeypatch)
    assert elliptic._frobenius_traces(c, ps) == [count_points(c, p)[1] for p in ps]
    first = _first_scalar_draws(drawn)
    assert first == {p: 0 if is_bad else 1 for p, is_bad, done in zip(ps, bad.tolist(), settled.tolist()) if not done}
    assert sum(d == 1 for d in first.values()) > 10
    # and the scalar engine sees the same x = 0 at draw 1
    A, B = a.tolist(), b.tolist()
    assert all(elliptic._scalar_draw(A[i], B[i], p, 1) is None for i, p in enumerate(ps) if p in first)


def test_batch_sends_rows_with_f_zero_to_the_scalar_route(monkeypatch):
    # x = 0 is a root of x^3 - 1296 x, the short model of y^2 = x^3 - x:
    # with x = 0 at draw 0, no row is served by the arrays, and each takes
    # the scalar engine from draw 0 on, which it skips
    c = Curve(0, 0, 0, -1, 0)
    ps = [p for p in c.good_primes(3000) if p >= 2000]
    _x_at_draw(monkeypatch, 0, 0)
    drawn = _spy_scalar(monkeypatch)
    assert elliptic._frobenius_traces(c, ps) == [count_points(c, p)[1] for p in ps]
    assert _first_scalar_draws(drawn) == dict.fromkeys(ps, 0)
    # each prime's draws on Python ints run 0, 1, 2, ... with none skipped
    for p in ps:
        ds = [d for q, d in drawn if q == p]
        assert len(ds) > 1 and ds == list(range(len(ds))), p


def test_batch_sends_small_orders_to_the_scalar_route(monkeypatch):
    # x = 0 on y^2 = x^3 + 46656, the short model of y^2 = x^3 + 1, is a
    # point of order 3, which the baby steps meet as [3]P = O; x = 2907 on
    # the short model of [1,-1,1,-122,1721] is the image of (81, y), of
    # order 12, whose [6]P has y = 0 (s = 10 or 11 baby steps here)
    drawn = _spy_scalar(monkeypatch)
    for c, x in ((Curve(0, 0, 0, 0, 1), 0), (Curve(1, -1, 1, -122, 1721), 2907)):
        ps = [p for p in c.good_primes(3000) if p >= 2000]
        _x_at_draw(monkeypatch, 0, x)
        drawn.clear()
        assert elliptic._frobenius_traces(c, ps) == [count_points(c, p)[1] for p in ps], x
        # the draw is refused on the arrays, so no order from it is handed
        # on: the scalar engine makes draw 0 again, at every prime
        assert _first_scalar_draws(drawn) == dict.fromkeys(ps, 0), x


def test_batch_additions_that_meet_h_zero_stay_on_the_arrays(monkeypatch):
    # R + Q for R = O, R = Q (a doubling), R = -Q (giving O) and a generic R,
    # with R in Jacobian coordinates scaled by a random Z, against _ec_add
    p, a = 10007, 3
    rng = random.Random(5)
    pts = []
    while len(pts) < 2:
        x = rng.randrange(p)
        y = sqrt_mod((x**3 + a * x + 7) % p, p)
        if y:
            pts.append((x, y))
    Q = pts[0]
    cases = [None, Q, (Q[0], p - Q[1]), pts[1]]
    jacobian = []
    for R in cases:
        z = rng.randrange(1, p)
        jacobian.append((1, 1, 0) if R is None else (R[0] * z * z % p, R[1] * z**3 % p, z))
    X, Y, Z = (np.array(v, dtype=np.int64) for v in zip(*jacobian))
    n = len(cases)
    X3, Y3, Z3 = elliptic._jac_add_affine(
        X, Y, Z, np.full(n, Q[0]), np.full(n, Q[1]), np.full(n, a), np.full(n, p)
    )
    for R, x3, y3, z3 in zip(cases, X3.tolist(), Y3.tolist(), Z3.tolist()):
        expected = elliptic._ec_add(R, Q, a, p)
        if expected is None:
            assert z3 == 0, R
        else:
            zi = pow(z3, -1, p)
            assert (x3 * zi * zi % p, y3 * zi**3 % p) == expected, R
    # on a CM curve every inert prime has a_p = 0, so its giant steps meet
    # R = O at t = 0 and then R = -W + (-W), a doubling; such rows stay on
    # the arrays
    d4 = CATALOG_BY_NAME["d4"].curve
    inert = [p for p in d4.good_primes(4000) if p >= 2000 and p % 4 == 3]
    drawn = _spy_scalar(monkeypatch)
    assert elliptic._frobenius_traces(d4, inert) == [0] * len(inert)
    assert len(_first_scalar_draws(drawn)) < len(inert) / 10


def test_batch_sends_rows_still_open_after_its_draws_to_the_scalar_route(monkeypatch):
    # E(F_p) contains Z/2 x Z/2, so one point often leaves several a
    c = Curve(0, 0, 0, -1, 0)
    ps = [p for p in c.good_primes(4000) if p >= 2000]
    expected = [count_points(c, p)[1] for p in ps]
    drawn = _spy_scalar(monkeypatch)
    assert elliptic._frobenius_traces(c, ps) == expected
    settled_by_the_arrays = set(ps) - set(_first_scalar_draws(drawn))
    # with one draw on the arrays, every row that several a fit after it
    # continues on Python ints from draw 1
    drawn.clear()
    monkeypatch.setattr(elliptic, "_BATCH_DRAWS", 1)
    assert elliptic._frobenius_traces(c, ps) == expected
    open_after_one = {p for p, d in _first_scalar_draws(drawn).items() if d == 1}
    assert len(open_after_one) > 10
    # and the arrays' second and third draws settle most of them
    assert len(settled_by_the_arrays & open_after_one) > len(open_after_one) / 2


def test_batch_splits_a_long_list_and_keeps_its_order(monkeypatch):
    c = Curve(0, 0, 0, -1, 0)
    ps = [p for p in c.good_primes(3000) if p >= 2000][:50]
    order = ps[::-1] + ps[:3]  # descending, with repeats
    sizes = []  # rows of each sub-batch's first draw
    real_draw = elliptic._batch_draw

    def draw_spy(a, b, p, T, draws):
        if not draws.any():
            sizes.append(len(p))
        return real_draw(a, b, p, T, draws)

    monkeypatch.setattr(elliptic, "_batch_draw", draw_spy)
    monkeypatch.setattr(elliptic, "_BATCH_ROWS", 16)
    # x = 0 (f = 0) at draw 0 for p = 1 mod 4 sends those rows to the
    # scalar engine from draw 0 on
    real_x = elliptic._batch_x
    _x_at_draw(monkeypatch, 0, lambda p: real_x(p, 0) * (p % 4 != 1))
    drawn = _spy_scalar(monkeypatch)
    assert elliptic._frobenius_traces(c, order) == [count_points(c, p)[1] for p in order]
    assert sizes == [12, 13, 12, 13]
    first = _first_scalar_draws(drawn)
    assert sorted(p for p, d in first.items() if d == 0) == [p for p in ps if p % 4 == 1]


def test_batch_raises_when_no_trace_fits(monkeypatch):
    # draw 0 at a root of f is bad on the arrays, so each row goes on to the
    # fold on Python ints, which skips that draw and folds draw 1; when no
    # trace fits its point, the fold must raise.  The first two primes from
    # 10007 at which the short model of [0,0,0,1,1] has a root share one x,
    # by the Chinese remainder theorem
    c = Curve(0, 0, 0, 1, 1)
    roots = {}
    for p in c.good_primes(11000):
        a, b = (int(elliptic._residues(v, np.array([p]))[0]) for v in (-27 * c.c4, -54 * c.c6))
        found = polyrat._roots_mod_p([b, a, 0, 1], p) if p >= 10007 else []
        if found:
            roots[p] = found[0]
        if len(roots) == 2:
            break
    (p, r), (q, s) = roots.items()
    _x_at_draw(monkeypatch, 0, r + (s - r) * pow(p, -1, q) % q * p)
    drawn = _spy_scalar(monkeypatch)
    assert elliptic._frobenius_traces(c, [p, q]) == [count_points(c, p)[1], count_points(c, q)[1]]
    assert _first_scalar_draws(drawn) == {p: 0, q: 0}
    monkeypatch.setattr(elliptic, "_traces_fitting", lambda p, T, e, t: [])
    with pytest.raises(ArithmeticError, match="no trace fits"):
        elliptic._frobenius_traces(c, [p, q])


def test_x_stride_has_no_prime_factor_below_2_31():
    # a factor q of the stride makes every draw at p = q try x = 0; the
    # stride 0x5851F42D4C957F2D had 3, 5 and 415949.  A prime above 2^31
    # has none below it
    assert elliptic._X_STRIDE > 2**31 and is_prime(elliptic._X_STRIDE)


def test_draws_try_distinct_nonzero_x_on_both_engines():
    # draws 0..63 give 64 distinct nonzero x at each sampled prime above 64,
    # 415949 among them, on Python ints and on int64 rows alike
    ps = [67, 229, 233, 10007, 415949, 999983, 2**31 - 1]
    assert all(map(is_prime, ps))
    rows = np.array(ps, dtype=np.int64)
    on_arrays = [elliptic._batch_x(rows, d).tolist() for d in range(elliptic._BSGS_DRAWS)]
    for i, p in enumerate(ps):
        xs = [elliptic._batch_x(p, d) for d in range(elliptic._BSGS_DRAWS)]
        assert [v[i] for v in on_arrays] == xs, p
        assert len(set(xs)) == elliptic._BSGS_DRAWS and 0 not in xs, p


def test_every_cm_model_has_its_trace_at_415949():
    # the prime that the old stride made draw x = 0 every time: j = 0 and
    # j = 1728 models then raised, on both engines
    p = 415949
    for D in CLASS_NUMBER_ONE_DISCS:
        c = cm_model(D)
        want = count_points(c, p)[1]
        assert elliptic.frobenius_trace(c, p) == want, D
        assert elliptic._frobenius_traces(c, [p]) == [want], D


def test_batch_draw_gives_the_scalar_multiples_row_by_row(monkeypatch):
    # one draw over x = 1..20 at each good prime of [0,0,0,1,1] in
    # [230, 600): s = 7, w = 15 and giant steps i = -3..3 on every row.
    # Small orders are common at small p, so many rows have several
    # multiples in the Hasse interval, and some of those rows meet O at
    # t = i w mid-table, after which the steps on both sides must still be
    # made affine.  Every row the draw serves must give the side and the
    # step of the scalar search: the one multiple, or the order
    c = Curve(0, 0, 0, 1, 1)
    rows = [(p, x) for p in c.good_primes(599) if p >= 230 for x in range(1, 21)]
    P, X = (np.array(v, dtype=np.int64) for v in zip(*rows))
    a, b = elliptic._residues(-27 * c.c4, P), elliptic._residues(-54 * c.c6, P)
    T = np.array([math.isqrt(4 * p) for p in P.tolist()])
    monkeypatch.setattr(elliptic, "_batch_x", lambda p, draw: draw)
    sides, steps, bad = (v.tolist() for v in elliptic._batch_draw(a, b, P, T, X))
    w = 2 * (math.isqrt(int(T.max())) + 1) + 1
    assert w == 15
    served = through_o = 0
    for (p, x), A, B, side, step, is_bad in zip(rows, a.tolist(), b.tolist(), sides, steps, bad):
        f = (x**3 + A * x + B) % p
        if is_bad:
            continue
        ms = elliptic._hasse_multiples((f * x % p, f * f % p), A * f * f % p, p)
        assert side == (1 if pow(f, (p - 1) // 2, p) == 1 else -1), (p, x)
        assert step == (ms[0] if len(ms) == 1 else ms[1] - ms[0]), (p, x, ms)
        served += 1
        through_o += len(ms) > 1 and any((p + 1 - m) % w == 0 and abs(p + 1 - m) < 3 * w for m in ms)
    assert served > 1000 and through_o > 20, (served, through_o)


def test_batch_residues_match_python_ints():
    # integers inside and outside int64, of both signs, and denominators
    ps = [233, 10007, 999983, 2**31 - 1]
    P = np.array(ps, dtype=np.int64)
    for c in (Fraction(0), Fraction(-5), Fraction(1296, 7), Fraction(-(3**60), 11), Fraction(7**30, -(2**70) - 1)):
        num, den = c.numerator, c.denominator
        assert elliptic._residues(c, P).tolist() == [num * pow(den, -1, p) % p for p in ps], c


def test_shanks_mestre_batch_memory_stays_at_the_baby_tables_peak():
    # once affine, the baby table's factors are freed and its x and y are
    # copied to int32 tables, each int64 table freed before the next array
    # is made; the giant steps' x, y and Z factors are arrays of their own.
    # So the batch peaks no higher than when each giant step was matched
    # projectively, 6.00 and 1.81 MiB under tracemalloc (numpy 2.4); the
    # bounds are those peaks plus 10%.
    # 4096 good primes just below 10^6, and every good prime of a curve in
    # [230, 2 10^4)
    cases = [
        (Curve(0, 0, 0, 1, 1), 10**6, 4096, 6.6),
        (Curve(0, 0, 0, -3, 14), 2 * 10**4, 2212, 1.99),
    ]
    for c, pmax, n, bound_mib in cases:
        ps = [p for p in c.good_primes(pmax - 1) if p >= elliptic._MESTRE_FROM][-4096:]
        assert len(ps) == n
        tracemalloc.start()
        try:
            elliptic._frobenius_traces(c, ps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20, (c, peak)


def _brute_order(P, a, p):
    n, R = 1, P
    while R is not None:
        R = elliptic._ec_add(R, P, a, p)
        n += 1
    return n


def test_hasse_multiples_finds_every_multiple_of_the_order():
    # every affine point at small p, where orders below the baby-step range,
    # several multiples per interval and points of order 2s (two hits in
    # one giant step, met at p = 43 and 53) are the rule
    grid = [(a, b) for a in range(-4, 5) for b in range(-4, 5)]
    cases = [(grid, p) for p in (5, 7, 11, 13, 43, 53)]
    cases += [([(-1, 0), (1, 1), (0, 2), (-4, 0), (3, 5)], p) for p in (97, 101, 211)]
    for curves, p in cases:
        T = math.isqrt(4 * p)
        for a, b in curves:
            if (4 * a**3 + 27 * b * b) % p == 0:
                continue
            for x in range(p):
                for y in range(p):
                    if (y * y - x**3 - a * x - b) % p:
                        continue
                    n = _brute_order((x, y), a % p, p)
                    expected = [m for m in range(p + 1 - T, p + 2 + T) if m % n == 0]
                    assert elliptic._hasse_multiples((x, y), a % p, p) == expected, (a, b, p, x, y)


def test_shanks_mestre_gives_up_after_its_draws(monkeypatch):
    # a route that never settles must raise after the cap, not loop
    drawn = []
    monkeypatch.setattr(elliptic, "_traces_fitting", lambda p, T, e, t: drawn.append(p) or [0, 2])
    with pytest.raises(ArithmeticError, match="after 64 points"):
        _bsgs(Curve(0, 0, 0, 1, 1), 10007)
    assert 0 < len(drawn) <= 64
    monkeypatch.undo()
    # and a prime the first point does not settle fails under a cap of one
    c = Curve(0, 0, 0, -1, 0)
    monkeypatch.setattr(elliptic, "_BSGS_DRAWS", 1)
    with pytest.raises(ArithmeticError):
        for p in c.good_primes(3000):
            if p > 230:
                _bsgs(c, p)


def test_frobenius_trace_routes_and_checks(monkeypatch):
    c = CATALOG_BY_NAME["noncm-e"].curve
    assert elliptic._MESTRE_FROM == 230
    below, above = 229, 233  # either side of the crossover
    for p in (5, below, above, 20011):
        assert elliptic.frobenius_trace(c, p) == count_points(c, p)[1]
    summed = []
    real = elliptic.count_points
    monkeypatch.setattr(elliptic, "count_points", lambda c, p: summed.append(p) or real(c, p))
    elliptic.frobenius_trace(c, below)
    elliptic.frobenius_trace(c, above)
    assert summed == [below] and below < elliptic._MESTRE_FROM <= above
    for bad in (2, 3, 2001, 2147483659):  # p < 5, composite, beyond int64
        with pytest.raises(ValueError):
            elliptic.frobenius_trace(c, bad)
    with pytest.raises(ValueError):
        elliptic.frobenius_trace(CATALOG_BY_NAME["d7"].curve, 7)
    monkeypatch.setattr(elliptic, "_shanks_mestre", lambda a, b, p: 2 * math.isqrt(p) + 2)
    with pytest.raises(RuntimeError, match="Hasse"):
        elliptic.frobenius_trace(c, above)


# a_p by frobenius_trace at every good p in [5, 2 10^4] on noncm-e, d11 and
# [1,-1,1,-122,1721], one "p a_p" line each; pinned from a scalar route
# with other points, so a change of points must leave every a_p as it is
FROBENIUS_TRACE_SHA256 = "8e724312173836456e8c83e7e556ad8f6d3dbb56914cd87e24292d2ae2b37752"


def test_frobenius_trace_digest_is_pinned():
    curves = [CATALOG_BY_NAME["noncm-e"].curve, CATALOG_BY_NAME["d11"].curve, Curve(1, -1, 1, -122, 1721)]
    h = hashlib.sha256()
    for c in curves:
        for p in c.good_primes(2 * 10**4):
            h.update(f"{p} {elliptic.frobenius_trace(c, p)}\n".encode())
    assert h.hexdigest() == FROBENIUS_TRACE_SHA256


# the CM discriminant each catalog row carried as a field before the
# lookup by j replaced it
CATALOG_CM_DISCS = {
    "d4": -4, "d8": -8, "d7": -7, "d12": -12, "d19": -19, "d27": -27, "d3": -3, "d11": -11,
    "noncm-e": None, "noncm-f": None, "k2-s3": None, "k2-c3": None,
}


def test_cm_disc_for_gives_each_catalog_row_its_old_disc():
    assert [f.name for f in dataclasses.fields(elliptic.CatalogEntry)] == ["name", "curve", "note"]
    assert [entry.name for entry in CATALOG] == list(CATALOG_CM_DISCS)
    for entry in CATALOG:
        D = CATALOG_CM_DISCS[entry.name]
        assert cm_disc_for(entry.curve) == D, entry.name
        if D is not None:
            assert entry.curve.j == CM_J_INVARIANTS[D]
            assert cm_disc_for(entry.curve, D) == D


def test_cm_disc_for_checks_a_given_D_against_j():
    assert tuple(CM_J_INVARIANTS) == CLASS_NUMBER_ONE_DISCS
    twist = cm_model(-11, 2)
    assert cm_disc_for(twist, -11) == -11
    assert cm_disc_for(twist) == -11  # no --D: looked up by j, in or out of the catalog
    assert cm_disc_for(Curve(0, 0, 0, 1, 1)) is None  # j = 6912/31
    assert cm_disc_for(Curve(0, 0, 0, -11, 14), -16) == -16  # j = 287496
    with pytest.raises(ValueError, match="j = "):
        cm_disc_for(Curve(0, 0, 0, 1, 1), -11)
    with pytest.raises(ValueError, match="j = "):
        cm_disc_for(twist, -7)
    with pytest.raises(ValueError, match="class-number-one"):
        cm_disc_for(twist, -5)
