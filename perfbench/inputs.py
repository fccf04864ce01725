"""Seeded inputs for the four workloads.

Everything here is plain integer arithmetic and imports nothing from
lattes_lab, so the program under test only ever sees the generated values.
The same seed gives the same inputs; the sizes are fixed so that the amount
of work barely depends on the seed.
"""

from __future__ import annotations

import random
from math import isqrt

# workload sizes
SCAN_PMAX = 20000
DENSITY_PMAX = 20000
PERM_KMAX = 12
PERM_PMAX = 200
PERM_PRIMES = 30  # the first 30 good primes >= 5, so every seed checks as many
PERM_MAP_K = 22
SYMBOL_PAIRS = 60
SYMBOL_NORM_MAX = 10000
ED_NORM_MAX = 3000

# (D, k, count) rows for the strategy command, one per element-search route:
# a generic discriminant; D = -11 with 3 not dividing k and 5 | k, which needs
# two x4 bound retries; D = -11 with a cheap k; D = -3 with gcd(k, 6) = 2 and
# ell = 5 outside {7, 13, 19}, which makes lemma_ab_witness search.
STRATEGY_ROWS = ((-43, 10, 4), (-163, 9, 4), (-11, 5, 1), (-11, 4, 3), (-3, 10, 2))

# what `strategy` prints for each row; the rows do not depend on the seed
STRATEGY_GOLDEN = {
    (-43, 10, 4): [269, 359, 379, 479],
    (-163, 9, 4): [41, 47, 53, 71],
    (-11, 5, 1): [8699],
    (-11, 4, 3): [3001, 3067, 3089],
    (-3, 10, 2): [163, 313],
}


def curve_spec(ainvs) -> str:
    return "[" + ",".join(str(a) for a in ainvs) + "]"


def discriminant(a1, a2, a3, a4, a6) -> int:
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6


def _nonzero(rng: random.Random, bound: int, low: int = 1) -> int:
    return rng.choice((-1, 1)) * rng.randint(low, bound)


def _has_integer_root(a4: int, a6: int) -> bool:
    # rational roots of the monic x^3 + a4 x + a6 are integers dividing a6
    if a6 == 0:
        return True
    n = abs(a6)
    divisors = {d for i in range(1, isqrt(n) + 1) if n % i == 0 for d in (i, n // i)}
    return any(r**3 + a4 * r + a6 == 0 for d in divisors for r in (d, -d))


def short_curve(rng: random.Random, low: int = 1, bound: int = 30, two_torsion: bool = False) -> tuple:
    """A nonsingular integral y^2 = x^3 + a4 x + a6 with low <= |a4|, |a6| <=
    bound.  With two_torsion the cubic has an integer root, so the curve has a
    rational 2-torsion point (and |a6| is not bounded); without it the cubic
    is irreducible over Q."""
    while True:
        if two_torsion:
            r, a4 = _nonzero(rng, 6), _nonzero(rng, bound, low)
            a6 = -(r**3) - a4 * r
        else:
            a4, a6 = _nonzero(rng, bound, low), _nonzero(rng, bound, low)
        if a6 == 0 or discriminant(0, 0, 0, a4, a6) == 0:
            continue
        if two_torsion or not _has_integer_root(a4, a6):
            return (0, 0, 0, a4, a6)


def long_curve(rng: random.Random) -> tuple:
    """A nonsingular integral long model with a1, a2, a3 all nonzero."""
    while True:
        a = (_nonzero(rng, 1), _nonzero(rng, 2), _nonzero(rng, 1), _nonzero(rng, 20, 10), _nonzero(rng, 20, 10))
        if discriminant(*a) != 0:
            return a


def galois_density_k2(a4: int, a6: int) -> tuple[int, int]:
    """Chebotarev density of permutation primes for L_2 on a short model
    whose 2-division cubic is irreducible: 2/3 when the cubic discriminant
    is a square (group C3), else 1/3 (group S3)."""
    d = -4 * a4**3 - 27 * a6 * a6
    return (2, 3) if d > 0 and isqrt(d) ** 2 == d else (1, 3)


# -- Eisenstein integers a + b*w with w^2 = -1 - w -------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, isqrt(n) + 1))


def eis_mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    a, b = x
    c, d = y
    return (a * c - b * d, a * d + b * c - b * d)


def eis_norm(x: tuple[int, int]) -> int:
    a, b = x
    return a * a - a * b + b * b


_UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1), (-1, -1), (1, 1))


def _is_primary(x) -> bool:
    return (x[0] - 2) % 3 == 0 and x[1] % 3 == 0


def _is_e_primary(x) -> bool:
    a, b = x
    if not (b % 3 == 0 and a % 3 in (1, 2)):
        return False
    c = eis_mul(eis_mul(x, x), x)
    return (c[0] + c[1]) % 4 == 1


def primary_prime(rng: random.Random, norm_max: int) -> tuple[int, int]:
    """A primary (= 2 mod 3) prime of Z[w]: split of prime norm p = 1 mod 3
    up to norm_max, or, one time in eight, an inert rational prime."""
    if rng.randrange(8) == 0:
        q = rng.choice([q for q in range(5, 100) if q % 3 == 2 and _is_prime(q)])
        return (q, 0)
    while True:
        p = rng.randrange(7, norm_max)
        if p % 3 == 1 and _is_prime(p):
            break
    for b in range(1, isqrt(4 * p // 3) + 1):
        # a^2 - a b + b^2 = p  <=>  (2a - b)^2 = 4p - 3b^2
        t2 = 4 * p - 3 * b * b
        t = isqrt(t2)
        if t * t == t2 and (b + t) % 2 == 0:
            z = next(w for u in _UNITS if _is_primary(w := eis_mul(u, ((b + t) // 2, b))))
            return z if rng.randrange(2) else (z[0] - z[1], -z[1])  # pi or its conjugate
    raise AssertionError(f"no element of norm {p}")


def e_primary(z: tuple[int, int]) -> tuple[int, int]:
    return z if _is_e_primary(z) else (-z[0], -z[1])


def symbol_inputs(rng: random.Random) -> dict:
    """Seeded arguments for the reciprocity, tower and point-count checks."""
    cubic, sextic, tower, ed = [], [], [], []
    while len(cubic) < SYMBOL_PAIRS:
        x, y = primary_prime(rng, SYMBOL_NORM_MAX), primary_prime(rng, SYMBOL_NORM_MAX)
        if eis_norm(x) != eis_norm(y):
            cubic.append((x, y))
    while len(sextic) < SYMBOL_PAIRS:
        x, y = primary_prime(rng, SYMBOL_NORM_MAX), primary_prime(rng, SYMBOL_NORM_MAX)
        if eis_norm(x) % 2 and eis_norm(y) % 2 and eis_norm(x) != eis_norm(y):
            sextic.append((e_primary(x), e_primary(y)))
    while len(tower) < SYMBOL_PAIRS:
        tower.append(((rng.randint(-30, 30), rng.randint(-30, 30)), primary_prime(rng, SYMBOL_NORM_MAX)))
    while len(ed) < SYMBOL_PAIRS // 3:
        pi = primary_prime(rng, ED_NORM_MAX)
        d = _nonzero(rng, 50)
        if pi[1] != 0 and (6 * d) % eis_norm(pi):
            ed.append((d, pi))
    return {"cubic": cubic, "sextic": sextic, "tower": tower, "ed": ed}


# -- per-workload inputs ----------------------------------------------------------


def make_inputs(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scan":
        ks = [6 * rng.randint(1, 3), rng.randint(2, 18), rng.randint(2, 18)]
        return {"curve": curve_spec(short_curve(rng)), "ks": ks, "pmax": SCAN_PMAX}
    if workload == "density":
        return {
            "curves": [curve_spec(short_curve(rng)), curve_spec(short_curve(rng, two_torsion=True))],
            "k": 2,
            "pmax": DENSITY_PMAX,
        }
    if workload == "perm":
        # coefficients of one size, so that the cost barely depends on the seed
        curves = [short_curve(rng, 20, 30), short_curve(rng, 20, 30), long_curve(rng)]
        return {
            "curves": [curve_spec(c) for c in curves],
            "kmax": PERM_KMAX,
            "pmax": PERM_PMAX,
            "primes": PERM_PRIMES,
            "map_k": PERM_MAP_K,
        }
    if workload == "cm-arith":
        return {"rows": [list(r) for r in STRATEGY_ROWS], **symbol_inputs(rng)}
    raise ValueError(f"unknown workload {workload!r}")
