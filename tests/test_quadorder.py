import random
import time
import tracemalloc
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from lattes_lab import exceptionality, intmath, quadorder
from lattes_lab.elliptic import CATALOG_BY_NAME, cm_disc_for, cm_model, count_points
from lattes_lab.intmath import is_prime, kronecker, primes_upto
from lattes_lab.quadorder import (
    CLASS_NUMBER_ONE_DISCS,
    cm_trace_consistent,
    congruent,
    cornacchia,
    deuring_consistency,
    find_prime_element,
    format_quadint,
    norm_solutions,
    parse_quadint,
    prime_above,
    prime_elements,
    quad_order,
    splitting_type,
)


def test_basis_norms():
    # for D = -11 the generator has norm 3; for D = -3 the cube-root basis
    # makes -1+3w the familiar prime of norm 13
    assert quad_order(-11).omega.norm() == 3
    assert quad_order(-3).element(-1, 3).norm() == 13
    assert quad_order(-4).element(2, 3).norm() == 13
    assert quad_order(-8).element(1, 2).norm() == 9
    assert quad_order(-19).omega.norm() == 5


def test_conj_involution_and_trace():
    rng = random.Random(1)
    for D in CLASS_NUMBER_ONE_DISCS:
        order = quad_order(D)
        for _ in range(50):
            z = order.element(rng.randrange(-30, 31), rng.randrange(-30, 31))
            assert z.conj().conj() == z
            assert (z + z.conj()).b == 0 and (z + z.conj()).a == z.trace()
            assert (z * z.conj()).a == z.norm() and (z * z.conj()).b == 0


def test_norm_multiplicative():
    rng = random.Random(2)
    for D in CLASS_NUMBER_ONE_DISCS:
        order = quad_order(D)
        for _ in range(10000):
            z = order.element(rng.randrange(-40, 41), rng.randrange(-40, 41))
            w = order.element(rng.randrange(-40, 41), rng.randrange(-40, 41))
            assert (z * w).norm() == z.norm() * w.norm()


def test_powers_match_the_repeated_product():
    rng = random.Random(25)
    for D in CLASS_NUMBER_ONE_DISCS:
        order = quad_order(D)
        z = order.element(rng.randrange(-9, 10), rng.randrange(-9, 10))
        product = order.element(1)
        for n in range(7):
            assert z**n == product, (D, z, n)
            product = product * z
        with pytest.raises(ValueError, match="negative"):
            z**-1


def test_units():
    assert len(quad_order(-3).units()) == 6
    assert len(quad_order(-4).units()) == 4
    assert len(quad_order(-11).units()) == 2
    for D in CLASS_NUMBER_ONE_DISCS:
        for u in quad_order(D).units():
            assert u.norm() == 1 and u.is_unit()


def test_congruent_examples():
    O11 = quad_order(-11)
    theta = O11.omega
    assert not congruent(O11.element(3), O11.element(1), theta)
    assert not congruent(O11.element(3), O11.element(-1), theta)
    O3 = quad_order(-3)
    lam = O3.element(-1, 3)
    assert congruent(lam, O3.element(2), O3.element(3))
    assert congruent(lam, lam, O3.element(7))
    with pytest.raises(ValueError):
        congruent(lam, lam, O3.element(0))
    with pytest.raises(ValueError):
        congruent(lam, O11.element(1), O3.element(2))  # mixed orders


def test_splitting_type():
    assert splitting_type(-11, 3) == "split"
    assert splitting_type(-4, 7) == "inert"
    assert splitting_type(-11, 11) == "ramified"
    assert splitting_type(-3, 7) == "split"
    assert splitting_type(-3, 5) == "inert"
    # the order discriminants see their own conductor
    assert splitting_type(-12, 2) == "ramified"


def test_cornacchia_examples():
    assert cornacchia(-4, 13) == (6, 2)
    assert cornacchia(-11, 3) == (1, 1)
    assert cornacchia(-4, 7) is None
    with pytest.raises(ValueError):
        cornacchia(-11, 11)
    # p = 2 splits only for D = -7 among the class-number-one D
    assert cornacchia(-7, 2) == (1, 1)
    assert cornacchia(-3, 2) is None
    # a D outside the class-number-one list is refused whether p splits
    # ((-15/19) = 1) or not ((-15/7) = -1)
    for p in (19, 7):
        with pytest.raises(ValueError, match="unsupported discriminant"):
            cornacchia(-15, p)


def exhaustive_cornacchia(D, p):
    # the solution (t, s) of 4p = t^2 + |D| s^2 with the least s >= 1, or None
    for s in range(1, isqrt(4 * p // -D) + 1):
        t2 = 4 * p + D * s * s
        if isqrt(t2) ** 2 == t2:
            return isqrt(t2), s
    return None


def test_cornacchia_exhaustive_oracle():
    for D in (-3, -4, -7, -8, -11, -12, -19, -27):
        for p in primes_upto(10000):
            if p % (-D) == 0 or kronecker(D, p) == 0:
                continue
            got = cornacchia(D, p)
            kind = splitting_type(D, p)
            assert got == exhaustive_cornacchia(D, p), (D, p)
            if got is None:
                assert kind == "inert"
            else:
                t, s = got
                assert 4 * p == t * t + (-D) * s * s and s >= 1
                assert kind == "split"


def test_prime_above():
    O11 = quad_order(-11)
    assert prime_above(-11, 3) == O11.omega
    assert prime_above(-3, 5) == quad_order(-3).element(5)
    z = prime_above(-3, 13)
    assert z.norm() == 13
    z = prime_above(-19, 5)
    assert z.norm() == 5
    for D in (-3, -4, -11, -19):
        for ell in primes_upto(200):
            if splitting_type(D, ell) == "inert":
                assert prime_above(D, ell) == quad_order(D).element(ell)
            else:
                assert prime_above(D, ell).norm() == ell


def test_find_prime_element_examples():
    O11 = quad_order(-11)
    res = find_prime_element(-11, [(O11.element(3), O11.element(11))], 5000, 50)
    assert O11.element(47, 11) in res
    assert all(is_prime(z.norm()) and z.norm() <= 5000 for z in res)
    assert all(kronecker(-11, z.norm()) == 1 for z in res)
    norms = [z.norm() for z in res]
    assert norms == sorted(norms)

    O3 = quad_order(-3)
    res = find_prime_element(
        -3, [(O3.omega, O3.element(2)), (O3.element(1), O3.element(3))], 50, 10
    )
    assert O3.element(4, 3) in res  # norm 13
    assert sorted({z.norm() for z in res}) == [7, 13, 19, 37]

    incompatible = [(O3.element(0), O3.element(2)), (O3.element(1), O3.element(2))]
    assert find_prime_element(-3, incompatible, 100, 5) == []


def lattice_by_norm(D, bound):
    """{m: [(a, b), ...]} for every element a + b*w of norm m <= bound, by
    scanning the box |b| <= sqrt(4*bound/|D|), |2a + s*b| <= sqrt(4*bound)."""
    order = quad_order(D)
    out = {}
    bmax = isqrt(4 * bound // -D)
    amax = isqrt(4 * bound) + bmax + 1
    for b in range(-bmax, bmax + 1):
        for a in range(-amax, amax + 1):
            m = order.element(a, b).norm()
            if m <= bound:
                out.setdefault(m, []).append((a, b))
    return out


def solution_key(ab):
    return (abs(ab[1]), abs(ab[0]), ab[0] < 0, ab[1] < 0)


def test_norm_solutions_against_lattice_scan():
    # every m: split primes take Cornacchia, the rest the enumeration
    for D in CLASS_NUMBER_ONE_DISCS:
        lattice = lattice_by_norm(D, 3000)
        for m in range(0, 3001):
            want = sorted(lattice.get(m, []), key=solution_key)
            assert norm_solutions(D, m) == want, (D, m)


def test_norm_solutions_at_large_split_primes():
    rng = random.Random(3)
    for D in CLASS_NUMBER_ONE_DISCS:
        order = quad_order(D)
        units = len(order.units())
        done = 0
        while done < 20:
            p = rng.randrange(10**12, 10**13)
            if not is_prime(p) or kronecker(D, p) != 1:
                continue
            sols = norm_solutions(D, p)
            assert len(set(sols)) == len(sols) == 2 * units, (D, p)
            assert all(order.element(a, b).norm() == p for a, b in sols)
            assert sols == sorted(sols, key=solution_key)
            done += 1


def test_find_prime_element_against_lattice_scan():
    rng = random.Random(11)
    for D in CLASS_NUMBER_ONE_DISCS:
        order = quad_order(D)
        lattice = lattice_by_norm(D, 5000)
        for _ in range(12):
            constraints = []
            for _ in range(rng.randrange(0, 3)):
                modulus = order.element(rng.randrange(-5, 6), rng.randrange(-5, 6))
                if modulus.is_zero:
                    modulus = order.element(2)
                target = order.element(rng.randrange(-9, 10), rng.randrange(-9, 10))
                constraints.append((target, modulus))
            bound = rng.choice([2, 30, 700, 5000])
            count = rng.choice([0, 1, 4, 25, 10**4])
            want = []
            for m in sorted(lattice):
                if m < 2 or m > bound or not is_prime(m) or kronecker(D, m) != 1:
                    continue
                for a, b in sorted(lattice[m], key=solution_key):
                    z = order.element(a, b)
                    if all(
                        ((z - t) * mu.conj()).a % mu.norm() == 0
                        and ((z - t) * mu.conj()).b % mu.norm() == 0
                        for t, mu in constraints
                    ):
                        want.append(z)
            got = find_prime_element(D, constraints, bound, count)
            assert got == want[:count], (D, constraints, bound, count)


def test_find_prime_element_cost_follows_the_norm_reached():
    # the norms found are near 3000; the bound of 10^8 must cost nothing
    O = quad_order(-11)
    constraints = [(O.element(3), O.element(11))]
    start = time.perf_counter()
    res = find_prime_element(-11, constraints, 10**8, 5)
    elapsed = time.perf_counter() - start
    tracemalloc.start()
    try:
        find_prime_element(-11, constraints, 10**8, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res == find_prime_element(-11, constraints, 5000, 5)
    assert max(z.norm() for z in res) < 5000
    assert elapsed < 1.0, elapsed
    assert peak < 4 * 2**20, peak


def test_incompatible_constraints_fail_before_any_sieve(monkeypatch):
    # z = 0 and z = 1 (mod 2) leave no class mod 2, so even a bound of 10^8
    # must yield nothing without sieving a window
    segments = []
    walk = intmath._prime_windows

    def spy(limit):
        for segment in walk(limit):
            segments.append(segment[0])
            yield segment

    monkeypatch.setattr(intmath, "_prime_windows", spy)
    O3 = quad_order(-3)
    incompatible = [(O3.element(0), O3.element(2)), (O3.element(1), O3.element(2))]
    start = time.perf_counter()
    assert find_prime_element(-3, incompatible, 10**8, 5) == []
    assert segments == []
    assert time.perf_counter() - start < 0.5
    # z = 0 (mod 2) makes N(z) even, and 2 is inert: no sieve either
    assert find_prime_element(-3, incompatible[:1], 10**8, 1) == []
    assert segments == []
    # a satisfiable set walks the windows, through the same spy
    assert find_prime_element(-3, incompatible[1:], 10**4, 1) == [O3.element(1, -2)]
    assert segments == [2]


def test_prime_elements_walk_memory_is_one_window():
    # the -11, k = 47 strategy constraints admit one norm class of 517; the
    # whole walk to 2**24 sieves windows of at most 2**20 bytes, where one
    # sieve of [2**23, 2**24) alone would take 8 MiB
    walk = prime_elements(-11, exceptionality._element_constraints(-11, 47), 2**24)
    tracemalloc.start()
    try:
        norms = [z.norm() for z in walk]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert norms[0] == 936197 and 2**23 < norms[-1] <= 2**24
    assert peak < 4 * 2**20, peak


def test_split_residues_follow_the_symbol():
    # (D/.) is periodic mod |D|, at p = 2 and at the primes dividing D too
    for D in CLASS_NUMBER_ONE_DISCS:
        split = quadorder._split_residues(D)
        for p in primes_upto(3000):
            assert split[p % -D] == (kronecker(D, p) == 1), (D, p)


def _unfiltered_prime_elements(D, constraints, norm_bound):
    # prime_elements without the norm-class mask: every split prime up to the
    # bound solves the norm equation, then meets the exact test
    order = quad_order(D)
    out = []
    for p in primes_upto(norm_bound):
        if kronecker(D, p) != 1:
            continue
        for a, b in norm_solutions(D, p):
            z = order.element(a, b)
            if all(congruent(z, t, mu) for t, mu in constraints):
                out.append(z)
    return out


def _prime_modulus(order, ell, kind):
    # an element above ell of the kind asked for, or None if ell is not of
    # that kind in the order (or, in a non-maximal order, is not a norm)
    want = {"split": 1, "ramified": 0, "inert": -1}[kind]
    if kronecker(order.D, ell) != want:
        return None
    try:
        return prime_above(order.D, ell)
    except ValueError:
        return None


@st.composite
def constraint_sets(draw):
    D = draw(st.sampled_from(CLASS_NUMBER_ONE_DISCS))
    order = quad_order(D)
    small = st.integers(-12, 12)

    def element():
        return order.element(draw(small), draw(small))

    constraints = []
    kinds = ["split", "split pair", "rational", "ramified", "inert", "prime power", "composite", "shared", "any"]
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)):
        target = element()
        if kind == "rational":
            constraints.append((target, order.element(draw(st.sampled_from([2, 3, 5, 7, 11, 13])))))
        elif kind in ("split", "split pair", "ramified", "inert"):
            ell = draw(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 19, 23, 43, 67, 163]))
            lam = _prime_modulus(order, ell, kind.split()[0])
            if lam is None:
                continue
            constraints.append((target, lam))
            if kind == "split pair":
                constraints.append((target.conj(), lam.conj()))
        elif kind == "prime power":
            constraints.append((target, order.element(draw(st.sampled_from([4, 9, 25])))))
        elif kind == "composite":
            m = order.element(draw(st.sampled_from([6, 10, 15, 21, 35])))
            cofactor = element()
            constraints.append((target, m if cofactor.is_zero else m * cofactor))
        elif kind == "shared":
            # two moduli with a common factor, compatible or not
            q = draw(st.sampled_from([2, 3, 5]))
            constraints.append((target, order.element(q)))
            constraints.append((element(), order.element(q * draw(st.sampled_from([2, 3, 5])))))
        else:
            m = element()
            if not m.is_zero:
                constraints.append((target, m))
    return D, constraints


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(case=constraint_sets(), bound=st.sampled_from([2 * 10**4, 2000, 50, 3, 2]))
def test_prime_elements_match_the_unfiltered_walk(case, bound):
    D, constraints = case
    got = list(prime_elements(D, constraints, bound))
    assert got == _unfiltered_prime_elements(D, constraints, bound), (D, constraints)


def test_nonunit_divisibility_lemma():
    """If pi avoids every unit class mod lam and mod conj(lam), then the
    rational prime below lam cannot divide N((pi-1)(pi+1))."""
    for D in (-11, -19, -43):
        order = quad_order(D)
        units = order.units()
        one = order.element(1)
        for ell in (2, 3, 5, 7, 13):
            lam = prime_above(D, ell)
            found = find_prime_element(D, [], 3000, 200)
            for pi in found:
                clear = all(
                    not congruent(pi, u, lam) and not congruent(pi, u, lam.conj())
                    for u in units
                )
                if clear:
                    n = ((pi - one) * (pi + one)).norm()
                    assert n % ell != 0, (D, ell, pi)


def test_trace_product_matches_Ap():
    """4p = t^2 + |D| s^2 with t matching |a_p| makes
    (p+1)^2 - a_p^2 = N((pi-1)(pi+1)) for pi built from (t, s)."""
    for name in ("d4", "d7", "d19", "d11", "d3"):
        entry = CATALOG_BY_NAME[name]
        D = cm_disc_for(entry.curve)
        order = quad_order(D)
        for p in entry.curve.good_primes(500):
            if p % (-D) == 0 or splitting_type(D, p) != "split":
                continue
            _, ap = count_points(entry.curve, p)
            sol = cornacchia(D, p)
            assert sol is not None
            # one of the solutions realizes |a_p| as the trace
            traces = set()
            for a, b in norm_solutions(D, p):
                traces.add(abs(order.element(a, b).trace()))
            assert abs(ap) in traces, (name, p, ap, traces)
            pi = next(
                order.element(a, b)
                for a, b in norm_solutions(D, p)
                if abs(order.element(a, b).trace()) == abs(ap)
            )
            one = order.element(1)
            assert ((pi - one) * (pi + one)).norm() == (p + 1) ** 2 - ap * ap


def test_deuring_consistency_examples():
    c4 = CATALOG_BY_NAME["d4"].curve
    assert deuring_consistency(c4, -4, 7)
    assert deuring_consistency(c4, -4, 29)
    assert deuring_consistency(CATALOG_BY_NAME["d11"].curve, -11, 23)
    with pytest.raises(ValueError):
        deuring_consistency(c4, -4, 2)


def test_cm_trace_consistent_examples():
    assert cm_trace_consistent(-4, 7, 0)  # inert
    assert not cm_trace_consistent(-4, 7, 2)
    assert cm_trace_consistent(-4, 5, 2) and cm_trace_consistent(-4, 5, -4)  # 16 = 4*2^2, 4 = 4*1^2
    assert not cm_trace_consistent(-4, 5, 1) and not cm_trace_consistent(-4, 5, 0)  # 19, 20 = 4*5
    assert cm_trace_consistent(-11, 23, -9) and not cm_trace_consistent(-11, 23, 3)  # 11 = 11*1^2, 83


def test_every_cm_model_meets_deurings_constraint():
    # suite_deuring sees only the CM curves of the catalog; here every
    # class-number-one model, through the a_p route of scan, at every good
    # p not dividing D up to 10^4, and at 415 949, a factor of a draw stride
    # that would give every draw x = 0 there on j = 0 and j = 1728
    for D in CLASS_NUMBER_ONE_DISCS:
        curve = cm_model(D)
        good = [p for p in curve.good_primes(10**4) if D % p] + [415949] * curve.has_good_reduction(415949)
        traces = exceptionality.frobenius_scan(curve, good)
        bad = [(p, traces[p]) for p in good if not cm_trace_consistent(D, p, traces[p])]
        assert len(good) > 1200 and 415949 in traces and bad == [], (D, bad[:5])


def test_text_round_trip():
    for s, D in (("47+11*w", -11), ("-1+3*w", -3), ("5", -3), ("-4-3*w", -3), ("w", -4)):
        z = parse_quadint(s, D)
        assert parse_quadint(format_quadint(z), D) == z
    assert parse_quadint("47+11*w", -11).norm() == 3089
