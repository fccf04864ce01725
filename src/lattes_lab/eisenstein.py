"""Power residue symbols in Z[w], w = (-1+sqrt(-3))/2 a primitive cube root
of unity: primary and E-primary normalizations, the quadratic, cubic
and sextic symbols computed from their definition, the classical
reciprocity laws as executable checks, and the point-count formula for
y^2 = x^3 + d via the sextic symbol.

The symbol (alpha/pi)_n is the unique n-th root of unity congruent to
alpha^((N(pi)-1)/n) modulo pi.  It is computed by exponentiation in the
residue field - F_p for split pi with N(pi) = p, the quadratic extension
F_q[w]/(w^2+w+1) for inert pi = q - and the power is compared with the
residues of the n-th roots of unity +-w^e, read from one table of w^e, so
the result is an exact group element, never a residue.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import isqrt
from typing import Iterator

import numpy as np

from .elliptic import Curve, _pow_mod, count_points
from .intmath import binary_power, is_prime, prime_flags, primes_upto
from .quadorder import QuadInt, congruent, norm_solutions, quad_order

EISENSTEIN = quad_order(-3)
OMEGA = EISENSTEIN.omega
ONE = EISENSTEIN.element(1)


def eis(a: int, b: int = 0) -> QuadInt:
    """a + b*w in Z[w]."""
    return EISENSTEIN.element(a, b)


@dataclass(frozen=True)
class SymbolValue:
    """A sixth root of unity (-1)^s * w^e, or the absorbing zero."""

    s: int
    e: int
    zero: bool = False

    def __post_init__(self):
        object.__setattr__(self, "s", self.s % 2)
        object.__setattr__(self, "e", self.e % 3)

    def __mul__(self, other: "SymbolValue") -> "SymbolValue":
        if self.zero or other.zero:
            return SYMBOL_ZERO
        return SymbolValue(self.s + other.s, self.e + other.e)

    def __pow__(self, n: int) -> "SymbolValue":
        if self.zero:
            return SYMBOL_ZERO
        return SymbolValue(self.s * n, self.e * n)

    def conj(self) -> "SymbolValue":
        if self.zero:
            return SYMBOL_ZERO
        return SymbolValue(self.s, -self.e)

    @property
    def is_real(self) -> bool:
        """Whether the value lies in {1, -1}."""
        return not self.zero and self.e == 0

    def to_quadint(self) -> QuadInt:
        if self.zero:
            return eis(0)
        _, a, b = _W_POWERS[self.e]
        return eis(a, b) if self.s == 0 else eis(-a, -b)

    def __str__(self):
        if self.zero:
            return "0"
        return ("-" if self.s else "") + _W_POWERS[self.e][0]

    def __repr__(self):
        return f"SymbolValue({self})"


# w^e for e = 0, 1, 2: its name and its coordinates a, b in a + b*w
_W_POWERS = (("1", 1, 0), ("w", 0, 1), ("w^2", -1, -1))

SYMBOL_ONE = SymbolValue(0, 0)
SYMBOL_MINUS_ONE = SymbolValue(1, 0)
SYMBOL_ZERO = SymbolValue(0, 0, zero=True)


# -- residue fields -----------------------------------------------------------


def _classify_prime(pi: QuadInt) -> tuple[str, int]:
    """('split', p) for prime-norm pi, ('inert', q) for a unit multiple of a
    rational inert prime q; ramified elements (norm a power of 3) and
    non-primes are rejected."""
    n = pi.norm()
    if n == 3:
        raise ValueError("ramified modulus (norm 3) is not supported")
    if is_prime(n):
        return "split", n
    q = isqrt(n)
    if q * q == n and is_prime(q) and q % 3 == 2:
        if pi.a % q == 0 and pi.b % q == 0:
            return "inert", q
    raise ValueError(f"{pi} is not a prime element of Z[w]")


def _inert_mul(x, y, q):
    # multiplication in F_q[w]/(w^2 + w + 1)
    a, b = x
    c, d = y
    bd = b * d
    return ((a * c - bd) % q, (a * d + b * c - bd) % q)


def power_residue_symbol(alpha: QuadInt, pi: QuadInt, n: int) -> SymbolValue:
    """The n-th power residue symbol (alpha/pi)_n for n in {2, 3, 6}.

    Zero when pi divides alpha; otherwise the unique n-th root of unity
    congruent to alpha^((Npi-1)/n) mod pi.  The symbol depends only on the
    ideal (pi).
    """
    if n not in (2, 3, 6):
        raise ValueError("n must be one of 2, 3, 6")
    kind, p = _classify_prime(pi)
    size = p if kind == "split" else p * p
    if (size - 1) % n:
        raise ValueError(f"{n} does not divide N(pi)-1 = {size - 1}")
    if congruent(alpha, eis(0), pi):
        return SYMBOL_ZERO
    exp = (size - 1) // n
    # a + b*w mod pi: in F_p through w = r (mod pi) for a split pi, in
    # F_q[w] for an inert q
    if kind == "split":
        r = -pi.a * pow(pi.b, -1, p) % p

        def residue(a, b):
            return (a + b * r) % p

        z = pow(residue(alpha.a, alpha.b), exp, p)
    else:

        def residue(a, b):
            return a % p, b % p

        z = binary_power(residue(alpha.a, alpha.b), exp, lambda x, y: _inert_mul(x, y, p), (1, 0))
    # (-1)^s * w^e is an n-th root of unity when n*s is even and 3 | n*e
    for s, sign in ((0, 1), (1, -1)):
        for e, (_, a, b) in enumerate(_W_POWERS):
            if s * n % 2 == 0 and e * n % 3 == 0 and z == residue(sign * a, sign * b):
                return SymbolValue(s, e)
    raise ArithmeticError(f"{alpha}^{exp} is not an {n}-th root of unity mod {pi}")


# -- primary and E-primary normalization --------------------------------------


def is_primary(pi: QuadInt) -> bool:
    """Primary means pi = 2 (mod 3)."""
    return (pi.a - 2) % 3 == 0 and pi.b % 3 == 0


def primary_associate(pi: QuadInt) -> QuadInt:
    """The unique associate u*pi with u*pi = 2 (mod 3)."""
    kind, _ = _classify_prime(pi)
    hits = [u * pi for u in EISENSTEIN.units() if is_primary(u * pi)]
    if len(hits) != 1:
        raise ArithmeticError(f"expected exactly one primary associate of {pi}, got {hits}")
    return hits[0]


def is_e_primary(pi: QuadInt) -> bool:
    """Eisenstein's normalization: pi = +-1 (mod 3) and pi^3 = A + B*w with
    A + B = 1 (mod 4); requires pi coprime to 6."""
    n = pi.norm()
    if n % 2 == 0 or n % 3 == 0:
        return False
    if not (congruent(pi, ONE, eis(3)) or congruent(pi, -ONE, eis(3))):
        return False
    cube = pi**3
    return (cube.a + cube.b) % 4 == 1


def e_primary_associate(pi: QuadInt) -> QuadInt:
    """Whichever of +-pi is E-primary (exactly one is)."""
    n = pi.norm()
    if n % 2 == 0 or n % 3 == 0:
        raise ValueError("element must be coprime to 6")
    if not (congruent(pi, ONE, eis(3)) or congruent(pi, -ONE, eis(3))):
        raise ValueError(f"{pi} is not congruent to +-1 mod 3")
    hits = [c for c in (pi, -pi) if is_e_primary(c)]
    if len(hits) != 1:
        raise ArithmeticError(f"expected exactly one E-primary choice among +-{pi}")
    return hits[0]


# -- reciprocity laws as checks ------------------------------------------------


def cubic_reciprocity_check(pi1: QuadInt, pi2: QuadInt) -> bool:
    """(pi1/pi2)_3 == (pi2/pi1)_3 for primary primes of distinct norms."""
    for pi in (pi1, pi2):
        if not is_primary(pi):
            raise ValueError(f"{pi} is not primary")
        if pi.norm() == 3:
            raise ValueError("norm 3 is excluded")
    if pi1.norm() == pi2.norm():
        raise ValueError("norms must differ")
    return power_residue_symbol(pi1, pi2, 3) == power_residue_symbol(pi2, pi1, 3)


def sextic_reciprocity_check(pi1: QuadInt, pi2: QuadInt) -> bool:
    """(pi1/pi2)_6 == (-1)^((N1-1)/2 * (N2-1)/2) (pi2/pi1)_6 for coprime
    E-primary primes away from 6."""
    for pi in (pi1, pi2):
        if not is_e_primary(pi):
            raise ValueError(f"{pi} is not E-primary")
    if congruent(pi1, eis(0), pi2) or congruent(pi2, eis(0), pi1):
        raise ValueError("arguments must be coprime")
    n1, n2 = pi1.norm(), pi2.norm()
    sign = SYMBOL_MINUS_ONE if ((n1 - 1) // 2) * ((n2 - 1) // 2) % 2 else SYMBOL_ONE
    return power_residue_symbol(pi1, pi2, 6) == sign * power_residue_symbol(pi2, pi1, 6)


def symbol_tower_check(alpha: QuadInt, pi: QuadInt) -> bool:
    """The sextic symbol squares to the cubic one and cubes to the
    quadratic one."""
    s6 = power_residue_symbol(alpha, pi, 6)
    return s6**2 == power_residue_symbol(alpha, pi, 3) and s6**3 == power_residue_symbol(
        alpha, pi, 2
    )


# -- witnesses for the ell-divisibility lemma ---------------------------------

# residues alpha (symbols in {+-1}) and beta (symbols outside {+-1}) with
# verified behavior for every prime pi = 1 (mod 3) coprime to 6*ell
_HARDCODED_AB = {
    13: (eis(5), eis(0, 5)),
    19: (eis(5), eis(1, 3)),
}

# the largest norm bound the witness search and its check accept: the walk's
# sieve takes one byte per integer up to the bound, 10 MB here; norms below
# 2^24 keep every product in the walk's int64 powers below 2^48
LEMMA_AB_BOUND_MAX = 10**7
# lemma_ab_tallies walks as many rows b at a time as hold at most this many
# elements, or one row where a row holds more (row 0 holds 2109 elements at
# LEMMA_AB_BOUND_MAX); a chunk and the two ell^2 tables take about 0.4 MiB
# for ell = 5 and 1.6 MiB for ell = 251
_WALK_ELEMENTS = 8192


def qualifying_primes(ell: int, bound: int) -> Iterator[QuadInt]:
    """Prime elements pi = 1 (mod 3), coprime to 6*ell, of norm <= bound,
    covering both split and inert rational primes."""
    three = eis(3)
    for p in primes_upto(bound):
        if p in (2, 3, ell):
            continue
        if p % 3 == 1:
            pi0 = None
            for a, b in norm_solutions(-3, p):
                cand = eis(a, b)
                if is_primary(cand):
                    pi0 = cand
                    break
            if pi0 is None:
                raise ArithmeticError(f"no primary prime above {p}")
            for cand in (-pi0, -pi0.conj()):
                if not congruent(cand, ONE, three):
                    raise ArithmeticError(f"{cand} above {p} is not 1 mod 3")
                yield cand
        elif p * p <= bound:
            yield eis(-p)


def _residue_coords(z: QuadInt, ell: int) -> tuple[int, int]:
    return (z.a % ell, z.b % ell)


def _non_unit_mod(z: QuadInt, ell: int) -> bool:
    """z not congruent to any unit modulo every prime above ell."""
    lam_primes = []
    if ell % 3 == 1:
        a, b = norm_solutions(-3, ell)[0]
        lam = eis(a, b)
        lam_primes = [lam, lam.conj()]
    else:
        lam_primes = [eis(ell)]
    for lam in lam_primes:
        for u in EISENSTEIN.units():
            if congruent(z, u, lam):
                return False
    return True


def _check_bound(bound: int) -> None:
    if not 0 <= bound <= LEMMA_AB_BOUND_MAX:
        raise ValueError(f"bound must be in [0, {LEMMA_AB_BOUND_MAX}], got {bound}")


def _check_walk(ell: int, bound: int) -> None:
    # the walk's tables hold ell^2 classes, so ell is bounded before the sieve
    if not 2 <= ell < 256:
        raise ValueError(f"ell must be in [2, 256) for the walk's ell^2 tallies, got {ell}")
    _check_bound(bound)


def verify_lemma_ab(
    ell: int, alpha: QuadInt, beta: QuadInt, bound: int
) -> tuple[bool, int, int]:
    """Empirically verify the witness pair over all qualifying primes of
    norm <= bound.  Returns (ok, #alpha-class primes, #beta-class primes).

    This route finds each prime by Cornacchia and computes the full sextic
    symbol, independently of the integer walk behind lemma_ab_witness."""
    _check_bound(bound)
    ca, cb = _residue_coords(alpha, ell), _residue_coords(beta, ell)
    na = nb = 0
    for pi in qualifying_primes(ell, bound):
        c = _residue_coords(pi, ell)
        if c == ca:
            na += 1
            if not power_residue_symbol(eis(ell), pi, 6).is_real:
                return False, na, nb
        elif c == cb:
            nb += 1
            if power_residue_symbol(eis(ell), pi, 6).is_real:
                return False, na, nb
    return na > 0 and nb > 0, na, nb


def lemma_ab_tallies(ell: int, bound: int) -> dict[tuple[int, int], tuple[int, int]]:
    """{(a mod ell, b mod ell): (#primes, #primes with (ell/pi)_6 real)} over
    the primes pi = a + b*w that qualifying_primes yields for (ell, bound),
    for 2 <= ell < 256: the nonzero classes of _lemma_ab_tables."""
    count, real = _lemma_ab_tables(ell, bound)
    found = np.flatnonzero(count)
    return {divmod(c, ell): (n, r) for c, n, r in zip(found.tolist(), count[found].tolist(), real[found].tolist())}


def _lemma_ab_tables(ell: int, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Two int64 tables of ell^2 entries, keyed (a mod ell)*ell + (b mod ell):
    the number of primes pi = a + b*w that qualifying_primes yields for
    (ell, bound) in each class, and the number of them with (ell/pi)_6 real.

    Those are exactly the elements with a = 1, b = 0 (mod 3) and norm
    N = a^2 - ab + b^2 <= bound that is a prime p or the square of an inert
    prime q, with ell excluded.  One walk visits every such a + b*w with
    b >= 0 and tests N against one sieve; a hit with b > 0 also counts its
    conjugate (a - b) - b*w, which has the same norm and lies in the class
    ((a - b) mod ell, -b mod ell), and the row b = 0 is its own conjugate.
    The symbol is real exactly when ell^((N-1)/3) = 1 (mod pi); ell is
    rational, so that power is taken mod p at a split pi and mod q at an
    inert -q, the same for pi and its conjugate.

    The walk runs on int64 arrays, whole rows b at a time, at most
    _WALK_ELEMENTS elements (or one row) per chunk, so its memory beyond
    the sieve stays bounded at every bound.  Norms stay below 2^24, so
    every product in the power fits int64.  np.bincount adds each chunk's
    hits into two int64 tables of ell^2 entries, keyed (a mod ell)*ell +
    (b mod ell): below ell = 256 the two take at most 1 MiB.
    """
    _check_walk(ell, bound)
    # kind[N]: 1 for a split prime norm p, 2 for an inert norm q^2, else 0
    kind = prime_flags(bound)
    for q in compress(range(isqrt(bound) + 1), kind):
        if q % 3 == 2 and q not in (2, ell):
            kind[q * q] = 2
    # norms 2 and 3 never occur (N = 1 mod 3); norm ell is excluded
    if ell <= bound:
        kind[ell] = 0
    kind = np.frombuffer(kind, np.uint8)
    # row b holds the `width` elements a = first, first + 3, ...: every
    # a = 1 (mod 3) with a^2 - ab + b^2 <= bound, i.e. (2a - b)^2 <= 4*bound - 3b^2
    rows = np.arange(0, isqrt(4 * bound // 3) + 1, 3)
    t = np.array([isqrt(4 * bound - 3 * b * b) for b in rows.tolist()], dtype=np.int64)
    lo = (rows - t + 1) // 2
    first = lo + (1 - lo) % 3
    width = ((rows + t) // 2 - first + 3) // 3  # the last a is at least first - 3
    step = max(_WALK_ELEMENTS // max(int(width[0]), 1), 1)  # row 0 is the widest
    count = np.zeros(ell * ell, np.int64)
    real = np.zeros(ell * ell, np.int64)
    for r in range(0, len(rows), step):
        n = width[r : r + step]
        # the chunk's elements row by row: a = first + 3j in row b, with j
        # the element's index less the number of elements before its row
        b = np.repeat(rows[r : r + step], n)
        a = np.repeat(first[r : r + step] - 3 * (np.cumsum(n) - n), n) + 3 * np.arange(len(b))
        norm = a * (a - b) + b * b
        k = kind[norm]
        hit = np.flatnonzero(k)
        if not len(hit):
            continue
        a, b, norm = a[hit], b[hit], norm[hit]
        # the one element of norm q^2 with a = 1, b = 0 (mod 3) is -q
        modulus = np.where(k[hit] == 1, norm, -a)
        is_real = _pow_mod(ell % modulus, (norm - 1) // 3, modulus) == 1
        # each hit in its own class and, for b > 0, in its conjugate's
        conj = b > 0
        key = np.concatenate((a % ell * ell + b % ell, (a[conj] - b[conj]) % ell * ell + -b[conj] % ell))
        count += np.bincount(key, minlength=ell * ell)
        real += np.bincount(key[np.concatenate((is_real, is_real[conj]))], minlength=ell * ell)
    return count, real


def lemma_ab_witness(ell: int, bound: int = 100000) -> tuple[QuadInt, QuadInt]:
    """A witness pair (alpha, beta) of residues mod ell such that every
    prime pi = 1 (mod 3) coprime to 6*ell with pi = alpha (mod ell) has
    (ell/pi)_6 in {+-1}, while pi = beta (mod ell) forces the symbol out
    of {+-1}.  Both residues avoid the unit classes above ell, so matching
    primes pi also keep ell away from N((pi-1)(pi+1)).

    ell = 13 and 19 use fixed witnesses; other ell are searched over all
    qualifying primes of norm <= bound (the tables of lemma_ab_tallies,
    read in ascending class order up to the first admissible pair), and
    that search is itself the empirical check up to bound: a class is
    picked only if every one of its primes behaves.  verify_lemma_ab
    checks a pair at another bound.
    """
    if ell in (2, 3, 7) or not is_prime(ell):
        raise ValueError(f"ell must be a prime > 3, != 7, got {ell}")
    _check_walk(ell, bound)
    if ell in _HARDCODED_AB:
        return _HARDCODED_AB[ell]
    count, real = _lemma_ab_tables(ell, bound)
    alpha = beta = None
    # ascending keys (a mod ell)*ell + (b mod ell) are ascending classes
    for c in map(int, np.flatnonzero(count)):
        z = eis(*divmod(c, ell))
        if z.norm() % ell == 0 or not _non_unit_mod(z, ell):
            continue
        if alpha is None and real[c] == count[c]:
            alpha = z
        if beta is None and real[c] == 0:
            beta = z
        if alpha is not None and beta is not None:
            break
    if alpha is None or beta is None:
        raise ArithmeticError(f"witness search failed for ell={ell} at bound {bound}")
    return alpha, beta


# -- the point-count formula ---------------------------------------------------


def ed_count_check(d: int, pi: QuadInt) -> bool:
    """Check |E_d(F_p)| = p + 1 + conj(sigma)*pi + sigma*conj(pi) for the
    curve y^2 = x^3 + d, sigma = (4d/pi)_6, at a primary split prime pi of
    norm p not dividing 6d."""
    if not is_primary(pi):
        raise ValueError(f"{pi} is not primary")
    p = pi.norm()
    if not is_prime(p):
        raise ValueError(f"N({pi}) = {p} is not prime")
    if (6 * d) % p == 0:
        raise ValueError(f"p = {p} divides 6d")
    sigma = power_residue_symbol(eis(4 * d), pi, 6)
    rhs = sigma.conj().to_quadint() * pi + sigma.to_quadint() * pi.conj()
    if rhs.b != 0:
        raise ArithmeticError("trace term is not a rational integer")
    order, _ = count_points(Curve(0, 0, 0, 0, d), p)
    return order == p + 1 + rhs.a
