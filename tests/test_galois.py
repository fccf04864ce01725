import random
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from lattes_lab import cli, elliptic, exceptionality, galois, intmath
from lattes_lab.elliptic import (
    CATALOG,
    CATALOG_BY_NAME,
    Curve,
    count_points,
    frobenius_trace,
    torsion_x_rational,
)
from lattes_lab.galois import (
    Mat2Zm,
    SubgroupSpec,
    cm_density_full,
    cm_density_subgroup,
    coprime_verdicts,
    diag_witness,
    empirical_density,
    frobenius_congruence_check,
    gl2_elements,
    in_Cm,
    k2_verdict,
    torsion_roots,
)
from lattes_lab.intmath import check_int64_modulus


def test_mat2zm_basics():
    A = Mat2Zm(5, 1, 2, 3, 4)
    assert A.det() == (4 - 6) % 5
    with pytest.raises(ValueError):
        Mat2Zm(4, 1, 0, 0, 2)  # det 2 not a unit mod 4
    B = Mat2Zm.identity(7)
    assert (A * Mat2Zm.identity(5)) == A
    assert not in_Cm(B)  # det(I - I) = 0


def test_in_Cm_examples():
    assert in_Cm(Mat2Zm(2, 0, 1, 1, 1))  # companion of T^2+T+1
    assert in_Cm(Mat2Zm(5, 2, 0, 0, 2))  # det(I-A)=1, det(I+A)=9=4
    assert not in_Cm(Mat2Zm.identity(3))


def test_in_Cm_conjugation_invariant():
    rng = random.Random(1)
    for m in (2, 3, 4, 5, 6, 7, 12):
        mats = list(gl2_elements(m))
        inverses = {}
        for A in mats:
            det_inv = pow(A.det(), -1, m)
            inverses[A] = Mat2Zm(
                m, A.d * det_inv, -A.b * det_inv, -A.c * det_inv, A.a * det_inv
            )
        for _ in range(150):
            A = rng.choice(mats)
            P = rng.choice(mats)
            assert in_Cm(A) == in_Cm(P * A * inverses[P])


def test_cm_density_full():
    assert cm_density_full(2) == Fraction(1, 3)
    assert cm_density_full(1) == Fraction(1)
    assert cm_density_full(6) > 0
    with pytest.raises(ValueError):
        cm_density_full(13)


def test_cm_density_full_by_hand_m2():
    # GL_2(F_2) has 6 elements; only the two of order 3 avoid eigenvalue 1
    mats = list(gl2_elements(2))
    assert len(mats) == 6
    hits = [A for A in mats if in_Cm(A)]
    assert len(hits) == 2


def test_cm_density_crt_product():
    assert cm_density_full(6) == cm_density_full(2) * cm_density_full(3)
    assert cm_density_full(10) == cm_density_full(2) * cm_density_full(5)


def test_cm_density_subgroup():
    rot = Mat2Zm(2, 0, 1, 1, 1)
    assert cm_density_subgroup(SubgroupSpec(2, (rot,))) == Fraction(2, 3)
    full = SubgroupSpec(2, (Mat2Zm(2, 0, 1, 1, 0), Mat2Zm(2, 1, 1, 0, 1)))
    assert len(full.closure()) == 6
    assert cm_density_subgroup(full) == Fraction(1, 3)
    assert cm_density_subgroup(SubgroupSpec(2, ())) == 0


def test_diag_witness():
    A = diag_witness(2, 5)
    assert (A.a, A.b, A.c, A.d) == (2, 0, 0, 2)  # -2^{-1} = -3 = 2 (mod 5)
    assert in_Cm(A)
    assert in_Cm(diag_witness(2, 35))
    with pytest.raises(ValueError):
        diag_witness(1, 5)
    with pytest.raises(ValueError):
        diag_witness(6, 35)  # 6 = 1 (mod 5)
    with pytest.raises(ValueError):
        diag_witness(5, 35)  # not a unit


def test_diag_witness_fuzz():
    for m in range(2, 51):
        primes = [ell for ell in range(2, m + 1) if m % ell == 0 and all(
            ell % d for d in range(2, ell))]
        for a in range(2, m):
            if gcd(a, m) != 1:
                continue
            if any(a % ell in (1 % ell, (-1) % ell) for ell in primes):
                continue
            assert in_Cm(diag_witness(a, m)), (a, m)


def test_frobenius_congruence_bridge():
    d4 = CATALOG_BY_NAME["d4"].curve
    assert frobenius_congruence_check(d4, [11], 3) == [True]  # 3 | 12 on both sides
    assert frobenius_congruence_check(d4, [13], 3) == [True]  # both sides false
    for entry in CATALOG:
        good = entry.curve.good_primes(1000)
        for ell in (2, 3, 5, 7):
            primes = [p for p in good if p != ell]
            assert frobenius_congruence_check(entry.curve, primes, ell) == [True] * len(primes)
    with pytest.raises(ValueError):
        frobenius_congruence_check(d4, [7], 7)
    with pytest.raises(ValueError):
        frobenius_congruence_check(d4, [7], 9)


def test_frobenius_congruence_check_catches_a_wrong_trace(monkeypatch):
    # A_p = (p+1)^2 - a_p^2 has the parity of a_p, so a trace off by one
    # flips the ell = 2 side of the bridge at every prime
    curve = CATALOG_BY_NAME["k2-s3"].curve
    primes = curve.good_primes(300)
    assert all(frobenius_congruence_check(curve, primes, 2))

    def off_by_one(c, p):
        n, ap = count_points(c, p)
        return n - 1, ap + 1

    monkeypatch.setattr(galois, "count_points", off_by_one)
    assert not any(frobenius_congruence_check(curve, primes, 2))


def test_k2_verdict():
    assert k2_verdict(CATALOG_BY_NAME["d3"].curve) == (True, "S3", Fraction(1, 3))
    assert k2_verdict(CATALOG_BY_NAME["k2-s3"].curve) == (True, "S3", Fraction(1, 3))
    assert k2_verdict(CATALOG_BY_NAME["k2-c3"].curve) == (True, "C3", Fraction(2, 3))
    assert k2_verdict(CATALOG_BY_NAME["d12"].curve) == (False, "reducible", None)
    assert k2_verdict(CATALOG_BY_NAME["d19"].curve)[0] in (True, False)


def test_k2_verdict_matches_torsion():
    for entry in CATALOG:
        exceptional, _, _ = k2_verdict(entry.curve)
        assert exceptional == (not torsion_x_rational(entry.curve, 2)), entry.name


def test_empirical_density_small():
    d = empirical_density(CATALOG_BY_NAME["d11"].curve, 6, 2000)
    assert d == 0
    d = empirical_density(CATALOG_BY_NAME["d3"].curve, 2, 2000)
    assert Fraction(1, 4) < d < Fraction(1, 2)  # split primes with odd trace
    with pytest.raises(ValueError):
        empirical_density(CATALOG_BY_NAME["d3"].curve, 2, 50)


# a6 is the product of the primes 5..97, so every prime 5 <= p <= 100 has
# bad reduction on y^2 = x^3 + a6
NO_GOOD_PRIME_TO_100 = Curve(0, 0, 0, 0, 384261327324253070792183691221959345)


def test_empirical_density_rejects_a_curve_with_no_good_prime(monkeypatch):
    def reached(*args, **kwargs):
        raise AssertionError("verdicts taken")

    monkeypatch.setattr(galois, "_coprime_verdicts", reached)
    assert NO_GOOD_PRIME_TO_100.good_primes(100) == []
    with pytest.raises(ValueError, match=r"^\[0,0,0,0,384261327324253070792183691221959345\] has no prime of good reduction up to pmax = 100$"):
        empirical_density(NO_GOOD_PRIME_TO_100, 2, 100)
    # one good prime, 101, is enough
    with pytest.raises(AssertionError, match="verdicts taken"):
        empirical_density(NO_GOOD_PRIME_TO_100, 2, 101)


def test_root_test_matches_the_character_sum():
    # ell | A_p from count_points against the psi_ell root test at every
    # good p <= 2000, p != ell; coprime_verdicts covers p = ell as well
    for entry in CATALOG:
        good = entry.curve.good_primes(2000)
        traces = {p: count_points(entry.curve, p)[1] for p in good}
        for ell in (2, 3, 5, 7):
            divides = {p: ((p + 1) ** 2 - traces[p] ** 2) % ell == 0 for p in good}
            others = [p for p in good if p != ell]
            roots = torsion_roots(entry.curve, ell, others)
            assert roots == [divides[p] for p in others], (entry.name, ell)
            verdicts = coprime_verdicts(entry.curve, ell, good)
            assert verdicts == [not divides[p] for p in good], (entry.name, ell)


def test_root_test_for_larger_ell():
    # psi_11 and psi_13 (degrees 60 and 84), which coprime_verdicts never
    # builds: it takes a_p for every ell >= 5
    for name in ("noncm-e", "d4"):
        curve = CATALOG_BY_NAME[name].curve
        good = [p for p in curve.good_primes(400) if p > 13]
        traces = {p: count_points(curve, p)[1] for p in good}
        for ell in (11, 13):
            expected = [((p + 1) ** 2 - traces[p] ** 2) % ell == 0 for p in good]
            assert True in expected and False in expected
            assert torsion_roots(curve, ell, good) == expected, (name, ell)


def test_root_test_near_the_int64_limit():
    # primes just below 2^31, where a sum holds two products at most before
    # it is reduced: the smallest group of the square step
    for name in ("k2-s3", "d11"):
        curve = CATALOG_BY_NAME[name].curve
        good = [p for p in intmath.primes_between(2**31 - 2500, 2**31) if curve._bad_modulus % p][-50:]
        assert len(good) == 50 and (2**63 - 1 - good[-1]) // (good[-1] - 1) ** 2 == 2
        traces = {p: frobenius_trace(curve, p) for p in good}
        for ell in (2, 3):
            expected = [((p + 1) ** 2 - traces[p] ** 2) % ell == 0 for p in good]
            assert True in expected and False in expected
            assert torsion_roots(curve, ell, good) == expected, (name, ell)


def test_share_root_falls_back_only_on_a_degree_drop(monkeypatch):
    # four columns of degree 4 mod primes near 10^6: a random pair, a pair
    # with the common root 7 and g of full degree, g = 0, and g = (x - 3)^2
    # with a zero lead against f with the root 3; only the last one leaves
    # the one-degree sequence
    calls = []
    real = galois._fp_gcd
    monkeypatch.setattr(galois, "_fp_gcd", lambda a, b, p: calls.append(p) or real(a, b, p))
    rng = random.Random(4)
    ps = [1000003, 1000033, 1000037, 1000039]

    def monic(deg, p):
        return [rng.randrange(p) for _ in range(deg)] + [1]

    def times_root(r, cs, p):  # (x - r) * cs
        return [(b - r * a) % p for a, b in zip(cs + [0], [0] + cs)]

    fs = [monic(4, ps[0]), times_root(7, monic(3, ps[1]), ps[1]), monic(4, ps[2])]
    fs.append(times_root(3, monic(3, ps[3]), ps[3]))
    gs = [
        [rng.randrange(1, ps[0]) for _ in range(4)],
        times_root(7, [rng.randrange(1, ps[1]) for _ in range(3)], ps[1]),
        [0, 0, 0, 0],
        [9, ps[3] - 6, 1, 0],
    ]
    f = np.array(fs, dtype=np.int64).T
    g = np.array(gs, dtype=np.int64).T
    assert galois._share_root(f, g, np.array(ps, dtype=np.int64)).tolist() == [False, True, True, True]
    assert calls == [ps[3]]


def test_coprime_verdicts_root_tests_ell_2_3_only(monkeypatch):
    curve = CATALOG_BY_NAME["noncm-e"].curve
    cases = {
        -6: (100, 3000),  # root tests for 2 and 3 decide every p
        10: (100, 3000),  # psi_5, psi_7, psi_11, psi_101 (degree 5100) are
        14: (100, 3000),  # never built: survivors of ell = 2 take a_p
        22: (1900, 3000),
        202: (100, 3000),
        0: (100, 1000),  # gcd(A_p, 0) = |A_p| needs a_p at every p
        5: (5, 400),  # from p = 5 on, where psi_5 loses its leading term
    }
    expected, odd = {}, {}
    for k, (lo, hi) in cases.items():
        good = [p for p in curve.good_primes(hi) if p >= lo]
        traces = {p: count_points(curve, p)[1] for p in good}
        expected[k] = good, [gcd((p + 1) ** 2 - traces[p] ** 2, k) == 1 for p in good]
        odd[k] = [p for p in good if (p + 1 - traces[p]) % 2]
    built, counted = [], []
    real_poly, real_traces = galois._torsion_poly, galois._frobenius_traces
    monkeypatch.setattr(galois, "_torsion_poly", lambda c, ell: built.append(ell) or real_poly(c, ell))
    monkeypatch.setattr(galois, "_frobenius_traces", lambda c, ps: counted.extend(ps) or real_traces(c, ps))
    routes = {}
    for k, (good, verdicts) in expected.items():
        built.clear()
        counted.clear()
        assert coprime_verdicts(curve, k, good) == verdicts, k
        routes[k] = set(built), list(counted)
    assert routes[-6] == ({2, 3}, [])
    for k in (10, 14, 22, 202):
        assert routes[k] == ({2}, odd[k]), k
        assert 0 < len(odd[k]) < len(expected[k][0]) / 2
    assert routes[0] == (set(), expected[0][0])
    assert expected[5][0][0] == 5 and routes[5] == (set(), expected[5][0])
    with pytest.raises(ValueError, match="k must be >= 1"):
        empirical_density(curve, -6, 1000)


def test_empirical_density_matches_the_character_sum():
    for name in ("d4", "d3", "d11", "noncm-e", "k2-s3", "k2-c3"):
        curve = CATALOG_BY_NAME[name].curve
        good = curve.good_primes(3000)
        traces = {p: count_points(curve, p)[1] for p in good}
        for k in (2, 3, 6, 10, 14):
            hits = sum(gcd((p + 1) ** 2 - traces[p] ** 2, k) == 1 for p in good)
            assert empirical_density(curve, k, 3000) == Fraction(hits, len(good)), (name, k)


def test_density_never_factors_k(monkeypatch, capsys):
    # k = 1000000007 * 1000000009: trial division would run up to 10^9, but
    # the verdict route only strips 2 and 3 from k
    k = 1000000016000000063
    curve = Curve(0, 0, 0, 1, 1)
    good = curve.good_primes(3000)
    big_a = [(p + 1) ** 2 - count_points(curve, p)[1] ** 2 for p in good]

    def factorize(n):
        raise AssertionError(f"{n} was factored")

    monkeypatch.setattr(intmath, "factorize", factorize)
    for m in (k, -k, 2 * k, 30 * k, 7 * k, 1, 0):
        assert coprime_verdicts(curve, m, good) == [gcd(a, m) == 1 for a in big_a], m
    small = [a for a, p in zip(big_a, good) if p <= 100]
    hits = sum(gcd(a, k) == 1 for a in small)
    assert cli.main(["density", "[0,0,0,1,1]", "--k", str(k), "--pmax", "100"]) == 0
    assert capsys.readouterr().out == f"{Fraction(hits, len(small))} ({hits / len(small):.6f})\n"


def test_empirical_density_is_worker_independent(monkeypatch, pools):
    # 3000 is below the fork threshold, so the threshold comes down to keep
    # two chunks, one of them in the pool
    monkeypatch.setattr(exceptionality, "_CHUNK_PRIMES", 64)
    for name, k in (("k2-c3", 2), ("noncm-f", 6), ("d19", 35)):
        curve = CATALOG_BY_NAME[name].curve
        assert empirical_density(curve, k, 3000, workers=1) == empirical_density(
            curve, k, 3000, workers=2
        )
    assert pools == [1, 1, 1]


def test_coprime_verdicts_rejects_bad_input(monkeypatch):
    d7 = CATALOG_BY_NAME["d7"].curve
    assert coprime_verdicts(d7, 2, []) == []
    assert coprime_verdicts(d7, 1, [5, 11]) == [True, True]
    with pytest.raises(ValueError):
        coprime_verdicts(d7, 2, [7])  # bad reduction
    with pytest.raises(ValueError):
        coprime_verdicts(d7, 2, [15])  # not prime
    with pytest.raises(ValueError):
        coprime_verdicts(d7, 2, [1009, 1001])  # not prime, on the root-test route
    with pytest.raises(ValueError):
        torsion_roots(d7, 9, [5])  # ell not prime
    with pytest.raises(ValueError):
        torsion_roots(d7, 41, [5])  # psi_41 (degree 840) is past the degree limit
    with pytest.raises(ValueError):
        torsion_roots(d7, 5, [5])  # p = ell
    seen = []

    def spy(p):
        seen.append(p)
        check_int64_modulus(p)

    # the guard runs in Curve._require_all_good, the one prime check of all three
    monkeypatch.setattr(elliptic, "check_int64_modulus", spy)
    with pytest.raises(ValueError, match="2\\*\\*31"):
        coprime_verdicts(d7, 2, [5, 2147483659])
    with pytest.raises(ValueError, match="2\\*\\*31"):
        torsion_roots(d7, 2, [5, 2147483659])
    with pytest.raises(ValueError, match="2\\*\\*31"):
        exceptionality.frobenius_scan(d7, [2147483659, 5])
    assert seen == [2147483659] * 3
