import hashlib
import random
import tracemalloc
from itertools import compress
from math import isqrt

import pytest

from lattes_lab import eisenstein
from lattes_lab.eisenstein import (
    EISENSTEIN,
    LEMMA_AB_BOUND_MAX,
    OMEGA,
    ONE,
    SYMBOL_ONE,
    SYMBOL_ZERO,
    SymbolValue,
    cubic_reciprocity_check,
    e_primary_associate,
    ed_count_check,
    eis,
    is_e_primary,
    is_primary,
    lemma_ab_tallies,
    lemma_ab_witness,
    power_residue_symbol,
    primary_associate,
    qualifying_primes,
    sextic_reciprocity_check,
    symbol_tower_check,
    verify_lemma_ab,
)
from lattes_lab.intmath import is_prime, prime_flags, primes_upto
from lattes_lab.quadorder import congruent, norm_solutions

LAM13 = eis(-1, 3)
LAM13_BAR = eis(-4, -3)
LAM19 = eis(-2, 3)
LAM19_BAR = eis(5, 3)


def primary_split_primes(bound):
    out = []
    for p in primes_upto(bound):
        if p % 3 == 1:
            a, b = norm_solutions(-3, p)[0]
            out.append(primary_associate(eis(a, b)))
    return out


def test_symbol_value_group():
    w = SymbolValue(0, 1)
    assert w * w * w == SYMBOL_ONE
    assert (SymbolValue(1, 0) ** 2) == SYMBOL_ONE
    assert str(SymbolValue(1, 2)) == "-w^2"
    assert SymbolValue(0, 2).conj() == SymbolValue(0, 1)
    assert SYMBOL_ZERO * w == SYMBOL_ZERO
    assert SymbolValue(0, 1).to_quadint() == OMEGA
    assert SymbolValue(1, 2).to_quadint() == -(OMEGA * OMEGA)


def test_primary_associate():
    assert primary_associate(eis(2)) == eis(2)
    assert primary_associate(OMEGA * LAM13) == LAM13
    assert is_primary(LAM13) and is_primary(LAM13_BAR)
    # exactly one associate is primary
    for pi in primary_split_primes(300):
        hits = [u * pi for u in EISENSTEIN.units() if is_primary(u * pi)]
        assert hits == [pi]
    with pytest.raises(ValueError):
        primary_associate(eis(1, -1))  # norm 3, ramified


def test_e_primary_associate():
    assert e_primary_associate(LAM13) == LAM13
    assert e_primary_associate(LAM13_BAR) == LAM13_BAR
    assert e_primary_associate(eis(5)) == eis(5)  # 125 = 1 (mod 4)
    # exactly one of +-pi qualifies
    for pi in primary_split_primes(500):
        if pi.norm() % 2 == 0:
            continue
        cands = [c for c in (pi, -pi) if is_e_primary(c)]
        assert len(cands) == 1
    with pytest.raises(ValueError):
        e_primary_associate(eis(0, 1))  # unit, not = +-1 mod 3 with cube rule
    with pytest.raises(ValueError):
        e_primary_associate(eis(2, 0) * eis(2, 0))  # norm 16, not coprime to 6


def test_reference_symbol_values():
    assert str(power_residue_symbol(eis(5), LAM13, 6)) == "-1"
    assert str(power_residue_symbol(eis(5), LAM13_BAR, 6)) == "-1"
    assert str(power_residue_symbol(eis(0, 5), LAM13, 6)) == "-w^2"
    assert str(power_residue_symbol(eis(0, 5), LAM13_BAR, 6)) == "-w^2"
    assert str(power_residue_symbol(eis(5), LAM19, 6)) == "w^2"
    assert str(power_residue_symbol(eis(5), LAM19_BAR, 6)) == "w"
    assert str(power_residue_symbol(eis(1, 3), LAM19, 6)) == "-w^2"
    assert str(power_residue_symbol(eis(1, 3), LAM19_BAR, 6)) == "-w^2"
    assert power_residue_symbol(eis(1), LAM13, 6) == SYMBOL_ONE
    assert power_residue_symbol(LAM13, LAM13, 6) == SYMBOL_ZERO


def test_symbol_depends_only_on_ideal():
    rng = random.Random(3)
    for pi in primary_split_primes(400):
        alpha = eis(rng.randrange(-10, 11), rng.randrange(-10, 11))
        for n in (2, 3, 6):
            base = power_residue_symbol(alpha, pi, n)
            for u in EISENSTEIN.units():
                assert power_residue_symbol(alpha, u * pi, n) == base


def test_symbol_multiplicative():
    rng = random.Random(4)
    pool = primary_split_primes(2000)
    for _ in range(1000):
        pi = rng.choice(pool)
        x = eis(rng.randrange(-25, 26), rng.randrange(-25, 26))
        y = eis(rng.randrange(-25, 26), rng.randrange(-25, 26))
        for n in (2, 3, 6):
            assert (
                power_residue_symbol(x * y, pi, n)
                == power_residue_symbol(x, pi, n) * power_residue_symbol(y, pi, n)
            )


def test_symbol_inert_modulus():
    # residue field F_q^2 for inert q; the cubic symbol of a cube is 1
    q5 = eis(5)
    z = eis(2, 1)
    assert power_residue_symbol(z * z * z, q5, 3) == power_residue_symbol(z, q5, 3) ** 3
    assert power_residue_symbol(eis(1), q5, 6) == SYMBOL_ONE
    # modulus 2 only supports the cubic symbol (N - 1 = 3)
    assert power_residue_symbol(eis(0, 1), eis(2), 3) in (
        SymbolValue(0, 0),
        SymbolValue(0, 1),
        SymbolValue(0, 2),
    )
    with pytest.raises(ValueError):
        power_residue_symbol(eis(5), eis(2), 6)


def test_root_candidates_are_the_roots_of_unity():
    # the table holds w^e as a + b*w, and (-1)^s * w^e with s*n even and
    # 3 | e*n are the n distinct n-th roots of unity
    assert [eis(a, b) for _, a, b in eisenstein._W_POWERS] == [ONE, OMEGA, OMEGA * OMEGA]
    for n in (2, 3, 6):
        roots = [SymbolValue(s, e) for s in (0, 1) for e in range(3) if s * n % 2 == 0 and e * n % 3 == 0]
        assert len(set(v.to_quadint() for v in roots)) == n
        assert all(v**n == SYMBOL_ONE and v.to_quadint() ** n == ONE for v in roots)


def test_printed_symbols_are_pinned():
    # each value as the `symbol` command prints it
    assert [str(SymbolValue(s, e)) for s in (0, 1) for e in range(3)] == ["1", "w", "w^2", "-1", "-w", "-w^2"]
    assert str(SYMBOL_ZERO) == "0"
    assert repr(SymbolValue(1, 1)) == "SymbolValue(-w)"


def test_symbol_is_the_root_its_definition_names():
    # (alpha/pi)_n is the unique zeta = (-1)^s w^e, zeta^n = 1, with
    # alpha^((N - 1)/n) = zeta (mod pi), here on exact powers in Z[w], with
    # zeta built from OMEGA and not from the symbol's own table; the n
    # candidates are pairwise incongruent mod pi
    split = primary_split_primes(500)
    moduli = split + [pi.conj() for pi in split] + [eis(q) for q in primes_upto(29) if q % 3 == 2]
    box = [eis(a, b) for a in range(-3, 4) for b in range(-2, 3)]
    checked = nonreal = 0
    for pi in moduli:
        N = pi.norm()
        for n in (2, 3, 6):
            if (N - 1) % n:
                continue
            roots = {
                SymbolValue(s, e): (-ONE if s else ONE) * OMEGA**e
                for s in (0, 1)
                for e in range(3)
                if s * n % 2 == 0 and e * n % 3 == 0
            }
            zetas = list(roots.values())
            assert not any(congruent(x, y, pi) for i, x in enumerate(zetas) for y in zetas[:i]), (pi, n)
            for alpha in box:
                got = power_residue_symbol(alpha, pi, n)
                if congruent(alpha, eis(0), pi):
                    assert got == SYMBOL_ZERO
                    continue
                power = alpha ** ((N - 1) // n)
                assert [v for v, zeta in roots.items() if congruent(power, zeta, pi)] == [got], (alpha, pi, n)
                checked += 1
                nonreal += got.e != 0
    assert checked > 9000 and nonreal > 4000, (checked, nonreal)


def test_reciprocity_laws_random():
    rng = random.Random(5)
    split = primary_split_primes(10000)
    inert = [eis(q) for q in primes_upto(99) if q % 3 == 2 and q != 2]
    pool = split + [z.conj() for z in split] + inert
    done = 0
    while done < 200:
        p1, p2 = rng.choice(pool), rng.choice(pool)
        if p1.norm() == p2.norm():
            continue
        assert cubic_reciprocity_check(p1, p2)
        done += 1
    epool = [e_primary_associate(z) for z in pool if z.norm() % 2]
    done = 0
    while done < 200:
        p1, p2 = rng.choice(epool), rng.choice(epool)
        if p1.norm() == p2.norm():
            continue
        assert sextic_reciprocity_check(p1, p2)
        done += 1


def test_reciprocity_preconditions():
    with pytest.raises(ValueError):
        cubic_reciprocity_check(eis(2), eis(2))  # equal norms
    with pytest.raises(ValueError):
        cubic_reciprocity_check(OMEGA * LAM13, LAM19)  # not primary
    with pytest.raises(ValueError):
        sextic_reciprocity_check(LAM13, LAM13)  # not coprime


def test_symbol_tower():
    rng = random.Random(6)
    pool = primary_split_primes(3000)
    for _ in range(300):
        pi = rng.choice(pool)
        alpha = eis(rng.randrange(-20, 21), rng.randrange(-20, 21))
        assert symbol_tower_check(alpha, pi)
    assert symbol_tower_check(eis(5), LAM13)   # (-1)^2 = 1 = (5/.)_3
    assert symbol_tower_check(eis(5), LAM19)   # (w^2)^2 = w
    assert symbol_tower_check(eis(1), LAM13)


def test_lemma_witnesses_fixed():
    assert lemma_ab_witness(13) == (eis(5), eis(0, 5))
    assert lemma_ab_witness(19) == (eis(5), eis(1, 3))
    ok, na, nb = verify_lemma_ab(13, eis(5), eis(0, 5), 20000)
    assert ok and na > 0 and nb > 0
    ok, na, nb = verify_lemma_ab(19, eis(5), eis(1, 3), 20000)
    assert ok and na > 0 and nb > 0
    with pytest.raises(ValueError):
        lemma_ab_witness(7)
    with pytest.raises(ValueError):
        lemma_ab_witness(2)


def test_lemma_witness_search_small():
    alpha, beta = lemma_ab_witness(5, bound=4000)
    ok, na, nb = verify_lemma_ab(5, alpha, beta, 6000)
    assert ok
    # the remarked choice beta = 2w is admissible
    ok, _, nb = verify_lemma_ab(5, alpha, eis(0, 2), 6000)
    assert ok and nb > 0
    # witnesses avoid unit classes, so the divisibility conclusion holds
    for pi in qualifying_primes(5, 2000):
        if (pi.a % 5, pi.b % 5) == (alpha.a % 5, alpha.b % 5):
            n = ((pi - eis(1)) * (pi + eis(1))).norm()
            assert n % 5 != 0


def _reference_tallies(ell, bound):
    # the independent route: Cornacchia's primes and the full sextic symbol
    tallies = {}
    for pi in qualifying_primes(ell, bound):
        c = (pi.a % ell, pi.b % ell)
        count, real = tallies.get(c, (0, 0))
        tallies[c] = (count + 1, real + power_residue_symbol(eis(ell), pi, 6).is_real)
    return tallies


def _reference_pair(ell, tallies):
    # the first admissible class whose primes all have a real symbol, and the
    # first whose primes all have a non-real one
    alpha = beta = None
    for c in sorted(tallies):
        count, real = tallies[c]
        z = eis(*c)
        if z.norm() % ell == 0 or not eisenstein._non_unit_mod(z, ell):
            continue
        if alpha is None and real == count:
            alpha = z
        if beta is None and real == 0:
            beta = z
    return alpha, beta


LEMMA_ELLS = [ell for ell in primes_upto(60) if ell not in (2, 3, 7)]


@pytest.mark.parametrize("ell", LEMMA_ELLS)
def test_lemma_ab_walk_matches_the_symbol_route(ell):
    for bound in (2000, 10**4):
        ref = _reference_tallies(ell, bound)
        assert lemma_ab_tallies(ell, bound) == ref
        if ell not in (13, 19):  # those two have fixed witnesses
            assert lemma_ab_witness(ell, bound) == _reference_pair(ell, ref)


def _full_walk_tallies(ell, bound):
    # the reference walk over every row b, negative ones included, with no
    # conjugate pairing
    kind = prime_flags(bound)
    for q in compress(range(isqrt(bound) + 1), kind):
        if q % 3 == 2 and q not in (2, ell):
            kind[q * q] = 2
    if ell <= bound:
        kind[ell] = 0
    tallies = {}
    bmax = isqrt(4 * bound // 3)
    for b in range(-(bmax - bmax % 3), bmax + 1, 3):
        t = isqrt(4 * bound - 3 * b * b)
        lo = (b - t + 1) // 2
        for a in range(lo + (1 - lo) % 3, (b + t) // 2 + 1, 3):
            n = a * (a - b) + b * b
            k = kind[n]
            if not k:
                continue
            modulus = n if k == 1 else isqrt(n)
            tally = tallies.setdefault((a % ell, b % ell), [0, 0])
            tally[0] += 1
            tally[1] += pow(ell, (n - 1) // 3, modulus) == 1
    return {c: (n, r) for c, (n, r) in tallies.items()}


@pytest.mark.parametrize("ell", LEMMA_ELLS)
def test_half_lattice_walk_matches_the_full_walk(ell):
    # each hit with b > 0 stands for its conjugate too; b = 0 counts once
    assert lemma_ab_tallies(ell, 10**5) == _full_walk_tallies(ell, 10**5)


# sha256 of lemma_ab_tallies for every ell in LEMMA_ELLS at 10^5 and 10^6,
# one "ell bound x y primes real" line per class, classes ascending; pinned
# from the walk on Python ints that the int64 walk replaced
LEMMA_AB_TALLIES_SHA256 = "cd6864e91e1629500d90c5d668eb95e450386e36b363ebe8248ab7e27d86297c"


def test_lemma_ab_tallies_digest_is_pinned():
    h = hashlib.sha256()
    for bound in (10**5, 10**6):
        for ell in LEMMA_ELLS:
            for (x, y), (n, r) in sorted(lemma_ab_tallies(ell, bound).items()):
                h.update(f"{ell} {bound} {x} {y} {n} {r}\n".encode())
    assert h.hexdigest() == LEMMA_AB_TALLIES_SHA256


@pytest.mark.parametrize("elements", [1, 150, 700])
def test_walk_chunks_meet_at_their_seams(monkeypatch, elements):
    # at 10^4 row 0 holds 67 elements: one row a chunk, two rows, ten rows;
    # small chunks also add into the tables many times
    whole = {ell: lemma_ab_tallies(ell, 10**4) for ell in (5, 11, 13)}
    monkeypatch.setattr(eisenstein, "_WALK_ELEMENTS", elements)
    for ell, want in whole.items():
        assert lemma_ab_tallies(ell, 10**4) == want == _full_walk_tallies(ell, 10**4), ell


@pytest.mark.parametrize("ell", [2003, 10**9 + 7, 2**31 - 1, 2**61 - 1, 2**89 - 1])
def test_walk_refuses_an_ell_past_the_bound(monkeypatch, ell):
    # the walk's two tables hold ell^2 classes, so a prime ell >= 256 is
    # refused before the sieve; verify_lemma_ab still takes it
    def reached(*args, **kwargs):
        raise AssertionError("a sieve ran before the ell check")

    assert is_prime(ell)
    monkeypatch.setattr(eisenstein, "prime_flags", reached)
    with pytest.raises(ValueError, match="ell"):
        lemma_ab_tallies(ell, 2000)
    with pytest.raises(ValueError, match="ell"):
        lemma_ab_witness(ell, 2000)


@pytest.mark.parametrize(
    "ell, bound",
    [(5, 0), (5, 1), (5, 3), (5, 4), (5, 7), (5, 121), (11, 121), (5, 289), (17, 289), (13, 13), (31, 31), (11, 11), (251, 2000)],
)
def test_walk_at_edge_bounds(ell, bound):
    # no element below norm 7, the first split norm; the inert norms 11^2
    # and 17^2 exactly at the bound, also when q = ell; ell at the bound;
    # 251, the largest prime ell the walk's two ell^2 tables accept
    want = _reference_tallies(ell, bound)
    assert lemma_ab_tallies(ell, bound) == want == _full_walk_tallies(ell, bound)
    if bound < 7:
        assert want == {}
    if bound in (121, 289):
        # -q is the one element of norm q^2, and only q != ell counts
        added = sum(n for n, _ in want.values()) - sum(n for n, _ in _reference_tallies(ell, bound - 1).values())
        assert added == (isqrt(bound) != ell)


def test_walk_memory_stays_within_the_sieve_and_one_chunk(monkeypatch):
    # past the sieve's bound + 1 bytes the walk holds one chunk of at most
    # _WALK_ELEMENTS = 8192 elements, at about 48 bytes each, its hits'
    # keys, and two tables of the 25 classes mod 5: about 0.4 MiB, within
    # the 1 MiB budget.  The whole lattice at 10^6 at once, about 190 000
    # elements, would take 7.5 MB
    real = eisenstein.prime_flags

    def sieve_then_reset(limit):
        flags = real(limit)
        tracemalloc.reset_peak()
        return flags

    monkeypatch.setattr(eisenstein, "prime_flags", sieve_then_reset)
    bound = 10**6
    tracemalloc.start()
    try:
        lemma_ab_tallies(5, bound)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound + 1 + 2**20


def test_witness_reads_the_tables_without_a_dict_of_classes():
    # at ell = 251 the walk holds the 10^6-byte sieve and two tables of
    # 63 001 int64 classes (1 MB); a dict of every nonzero class, about 200
    # bytes a class, took the peak to 13.2 MiB
    tracemalloc.start()
    try:
        pair = lemma_ab_witness(251, 10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pair == (eis(0, 4), eis(1, 6))
    assert peak <= 4 * 2**20


def test_lemma_ab_tallies_count_every_qualifying_prime():
    # two primes pi = 1 (mod 3) above each split p, and -q for the inert
    # q = 11, 17, 23, 29, 41 (q^2 <= 2000, q != 2, 5)
    split = [p for p in primes_upto(2000) if p % 3 == 1]
    tallies = lemma_ab_tallies(5, 2000)
    assert sum(n for n, _ in tallies.values()) == 2 * len(split) + 5


def test_lemma_ab_witness_default_bound():
    assert lemma_ab_witness(5) == (eis(1, 2), eis(0, 2))
    ok, na, nb = verify_lemma_ab(5, eis(1, 2), eis(0, 2), 20000)
    assert ok and na > 0 and nb > 0


# the witness pairs at the default bound 10^5 for every prime l | k <= 50
# that a gcd(k, 6) = 2 row of D = -3 or -27 searches (13 and 19 are fixed),
# pinned from the walk that grouped its hits by sorting
PINNED_WITNESSES = {
    5: ((1, 2), (0, 2)),
    11: ((1, 2), (0, 2)),
    17: ((0, 2), (1, 3)),
    23: ((1, 2), (0, 2)),
    29: ((1, 2), (0, 2)),
    31: ((1, 2), (0, 2)),
    37: ((0, 2), (1, 3)),
    41: ((1, 2), (0, 2)),
    43: ((1, 2), (0, 2)),
    47: ((1, 2), (0, 2)),
}


@pytest.mark.parametrize("ell", sorted(PINNED_WITNESSES))
def test_lemma_ab_witness_is_pinned_at_the_default_bound(ell):
    alpha, beta = PINNED_WITNESSES[ell]
    assert lemma_ab_witness(ell) == (eis(*alpha), eis(*beta))


@pytest.mark.parametrize("bound", [LEMMA_AB_BOUND_MAX + 1, 10**12, -1])
def test_lemma_ab_bound_is_checked_before_any_sieve(monkeypatch, bound):
    def reached(*args, **kwargs):
        raise AssertionError("a sieve ran before the bound check")

    monkeypatch.setattr(eisenstein, "prime_flags", reached)
    monkeypatch.setattr(eisenstein, "primes_upto", reached)
    with pytest.raises(ValueError, match="bound"):
        lemma_ab_witness(5, bound)
    with pytest.raises(ValueError, match="bound"):
        lemma_ab_witness(13, bound)
    with pytest.raises(ValueError, match="bound"):
        lemma_ab_tallies(5, bound)
    with pytest.raises(ValueError, match="bound"):
        verify_lemma_ab(5, eis(1, 2), eis(0, 2), bound)


def test_qualifying_primes_shape():
    seen = list(qualifying_primes(13, 2000))
    assert all(congruent(pi, eis(1), eis(3)) for pi in seen)
    assert all(pi.norm() % 2 and pi.norm() % 3 for pi in seen)
    assert any(pi.b == 0 for pi in seen)  # inert representatives included


def test_qualifying_primes_refuses_a_non_primary_pick(monkeypatch):
    # with every element taken for primary, the first norm solution above 7
    # (2 - w) is picked, and -(2 - w) is not 1 mod 3: an error, also under -O
    monkeypatch.setattr(eisenstein, "is_primary", lambda pi: True)
    with pytest.raises(ArithmeticError, match="not 1 mod 3"):
        list(qualifying_primes(5, 100))


def test_ed_count_check():
    assert ed_count_check(2, eis(2, 3))  # p = 7 on y^2 = x^3 + 2
    assert ed_count_check(1, eis(2, 3))
    for pi in primary_split_primes(200):
        assert ed_count_check(1, pi)
    with pytest.raises(ValueError):
        ed_count_check(2, OMEGA * eis(2, 3))  # not primary
    with pytest.raises(ValueError):
        ed_count_check(7, eis(2, 3))  # p divides 6d? no: 42 % 7 = 0


def test_ed_count_all_d_values():
    for pi in primary_split_primes(500):
        p = pi.norm()
        for d in (1, 2, 3, 5, -432):
            if (6 * d) % p == 0:
                continue
            assert ed_count_check(d, pi), (d, p)
