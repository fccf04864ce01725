"""The mod-m Galois viewpoint on the permutation criterion: the set C_m of
matrices A in GL_2(Z/m) with det(I-A)*det(I+A) invertible, exact densities
by enumeration, subgroup-restricted densities, the diagonal witness that
makes C_m nonempty, the bridge between the trace and torsion views of
ell | A_p, the complete k = 2 verdict from the 2-division cubic, and
empirical density scans over prime ranges, decided by the torsion root
test for ell = 2, 3 and by a_p for every other ell.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd, isqrt
from typing import Iterable, Optional

import numpy as np

from .elliptic import Curve, _frobenius_traces, count_points, division_poly, rational_roots
from .exceptionality import map_primes
from .intmath import check_int64_modulus, is_prime, prime_divisors
from .polyrat import _fp_gcd, _int_clear


@dataclass(frozen=True)
class Mat2Zm:
    """A matrix [[a, b], [c, d]] over Z/m, required invertible."""

    m: int
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("modulus must be >= 1")
        for f in "abcd":
            object.__setattr__(self, f, getattr(self, f) % self.m)
        if gcd(self.det(), self.m) != 1:
            raise ValueError(f"matrix not invertible mod {self.m}")

    def det(self) -> int:
        return (self.a * self.d - self.b * self.c) % self.m

    def __mul__(self, other: "Mat2Zm") -> "Mat2Zm":
        if self.m != other.m:
            raise ValueError("mixed moduli")
        m = self.m
        return Mat2Zm(
            m,
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    @staticmethod
    def identity(m: int) -> "Mat2Zm":
        return Mat2Zm(m, 1, 0, 0, 1)


def in_Cm(A: Mat2Zm) -> bool:
    """Membership in C_m: det(I - A) * det(I + A) is a unit mod m; this is
    exactly the condition for Frobenius data landing on A to let L_m
    permute the projective line."""
    m = A.m
    det_minus = ((1 - A.a) * (1 - A.d) - A.b * A.c) % m
    det_plus = ((1 + A.a) * (1 + A.d) - A.b * A.c) % m
    return gcd(det_minus * det_plus, m) == 1


def gl2_elements(m: int):
    """All of GL_2(Z/m) by enumeration (use only for small m)."""
    for a, b, c, d in itertools.product(range(m), repeat=4):
        if gcd((a * d - b * c) % m, m) == 1:
            yield Mat2Zm(m, a, b, c, d)


def cm_density_full(m: int) -> Fraction:
    """|C_m| / |GL_2(Z/m)| by full enumeration, for 2 <= m <= 12."""
    if m == 1:
        return Fraction(1)
    if not 2 <= m <= 12:
        raise ValueError("enumeration guard: 2 <= m <= 12")
    total = hits = 0
    for A in gl2_elements(m):
        total += 1
        if in_Cm(A):
            hits += 1
    return Fraction(hits, total)


@dataclass(frozen=True)
class SubgroupSpec:
    """A subgroup of GL_2(Z/m) given by generators; the closure is
    computed and must stay finite under the given bound."""

    m: int
    generators: tuple[Mat2Zm, ...]

    def closure(self, bound: int = 10**6) -> set[Mat2Zm]:
        elems = {Mat2Zm.identity(self.m)}
        frontier = list(elems)
        while frontier:
            nxt = []
            for x in frontier:
                for g in self.generators:
                    y = x * g
                    if y not in elems:
                        elems.add(y)
                        nxt.append(y)
                        if len(elems) > bound:
                            raise ValueError("subgroup closure exceeded bound")
            frontier = nxt
        return elems


def cm_density_subgroup(spec: SubgroupSpec) -> Fraction:
    """|C_m intersect H| / |H| over the generated closure H."""
    H = spec.closure()
    hits = sum(1 for A in H if in_Cm(A))
    return Fraction(hits, len(H))


def diag_witness(a: int, m: int) -> Mat2Zm:
    """diag(a, -a^{-1}) lies in C_m whenever a is a unit with a != +-1
    modulo every prime dividing m; the membership is re-checked."""
    if m < 2:
        raise ValueError("modulus must be >= 2")
    if gcd(a, m) != 1:
        raise ValueError(f"{a} is not a unit mod {m}")
    for ell in prime_divisors(m):
        if a % ell in (1 % ell, (-1) % ell):
            raise ValueError(f"{a} = +-1 mod {ell}")
    A = Mat2Zm(m, a, 0, 0, (-pow(a, -1, m)) % m)
    if not in_Cm(A):
        raise ArithmeticError("diagonal witness failed the C_m check")
    return A


def frobenius_congruence_check(curve: Curve, p: int, ell: int) -> bool:
    """The bridge between the trace view and the torsion view of ell | A_p.

    A_p = (p+1)^2 - a_p^2 = |E(F_p)| * |E^d(F_p)|, with a_p from the
    character sum, is divisible by the prime ell exactly when E or its
    quadratic twist has an F_p-point of order ell, that is, exactly when
    psi_ell (q for ell = 2) has a root in F_p.  Both sides are computed
    independently and compared: the root test runs here whichever route
    `coprime_verdicts` would take at p."""
    root = torsion_roots(curve, ell, [p])[0]
    _, ap = count_points(curve, p)
    return root == (((p + 1) ** 2 - ap * ap) % ell == 0)


def k2_verdict(curve: Curve) -> tuple[bool, str, Optional[Fraction]]:
    """(exceptional, galois_type, predicted_density) for k = 2.

    The 2-division cubic having a rational root makes L_2 non-exceptional
    ('reducible', no density).  Otherwise L_2 is exceptional, and the
    Galois group of the 2-division field, read from the square class of
    the cubic discriminant, predicts the density of permutation primes:
    2/3 for C3 and 1/3 for S3.
    """
    q = curve.psi2_squared
    if rational_roots(q):
        return False, "reducible", None
    # the discriminant of the integer cubic a x^3 + b x^2 + c x + d, a
    # rational multiple r q of q: r^4 disc(q), of the same square class
    d, c, b, a = q.ints
    disc = b * b * c * c - 4 * a * c**3 - 4 * b**3 * d - 27 * a * a * d * d + 18 * a * b * c * d
    if disc >= 0 and isqrt(disc) ** 2 == disc:
        return True, "C3", Fraction(2, 3)
    return True, "S3", Fraction(1, 3)


# -- the torsion root test ------------------------------------------------------

# int64 elements per batched array: blocks of primes are sized so that the
# largest temporary (primes x d x 2d) stays near 8 MiB
_BLOCK_ELEMS = 1 << 20
# the largest degree d whose d x 2d square fits in one block; psi_37
# (d = 684) is the last psi_ell below it
_MAX_ROOT_DEGREE = 724
# the ell that coprime_verdicts decides by the root test, at every p
# (its docstring gives the per-prime costs behind the choice)
_ROOT_TEST_ELLS = (2, 3)


def _torsion_degree(ell: int) -> int:
    """The degree of psi_ell (of q for ell = 2)."""
    return 3 if ell == 2 else (ell * ell - 1) // 2


@functools.lru_cache(maxsize=64)
def _torsion_poly(curve: Curve, ell: int) -> list[int]:
    """psi_ell (q for ell = 2) scaled to integers with content 1, constant
    first.

    Its roots are the x-coordinates of the points of order ell; the leading
    coefficient divides ell (4 for q) times the common denominator, so it is
    a unit at every good prime p != ell."""
    return _int_clear(curve.psi2_squared if ell == 2 else division_poly(curve, ell))[0]


def torsion_roots(curve: Curve, ell: int, primes: Iterable[int]) -> list[bool]:
    """Whether psi_ell (q for ell = 2) has a root in F_p, for each good
    prime p != ell in `primes`: exactly when ell | A_p, since every such
    root is the x-coordinate of a point of order ell on E or on its twist.

    The test is gcd(f, x^p - x) != 1 for the monic reduction f of degree
    d = (ell^2 - 1)/2 (3 for ell = 2): x^p mod f comes from
    square-and-multiply batched over blocks of primes in int64 arrays, and
    the gcd is taken per prime.  Raises ValueError for d > 724 (ell > 37),
    whose d x 2d square would not fit in one block."""
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if _torsion_degree(ell) > _MAX_ROOT_DEGREE:
        raise ValueError(f"the root test is limited to ell <= 37, got {ell}")
    primes = list(primes)
    if not primes:
        return []
    check_int64_modulus(max(primes))
    for p in primes:
        if p == ell:
            raise ValueError("p and ell must differ")
        curve._require_good(p)
    return _root_test(curve, ell, primes)


def _root_test(curve: Curve, ell: int, primes: list[int]) -> list[bool]:
    if not primes:
        return []
    cs = _torsion_poly(curve, ell)
    d = len(cs) - 1
    step = _BLOCK_ELEMS // (2 * d * d)
    out: list[bool] = []
    for i in range(0, len(primes), step):
        out += _has_root_block(cs, primes[i : i + step])
    return out


def _has_root_block(cs: list[int], block: list[int]) -> list[bool]:
    d = len(cs) - 1
    ps = np.array(block, dtype=np.int64)
    pc = ps[:, None]
    inv = np.array([pow(cs[-1], -1, p) for p in block], dtype=np.int64)[:, None]
    low = np.array([[c % p for c in cs[:-1]] for p in block], dtype=np.int64)
    monic = low * inv % pc  # f = x^d + monic[:, d-1] x^(d-1) + ... + monic[:, 0]
    xd = -monic % pc  # x^d mod f
    # xpow[:, j] = x^(d+j) mod f for j = 0..d-2, the rows that fold a square
    # of degree 2d-2 back below d
    xpow = np.empty((len(block), d - 1, d), dtype=np.int64)
    xpow[:, 0] = xd
    for j in range(1, d - 1):
        xpow[:, j] = _times_x(xpow[:, j - 1], xd, pc)
    r = np.zeros((len(block), d), dtype=np.int64)
    r[:, 0] = 1
    for b in range(int(ps.max()).bit_length() - 1, -1, -1):
        r = _square_mod(r, xpow, pc)
        odd = ((ps >> b) & 1).astype(bool)[:, None]
        r = np.where(odd, _times_x(r, xd, pc), r)
    out = []
    for p, f, g in zip(block, monic.tolist(), r.tolist()):
        g[1] = (g[1] - 1) % p  # x^p - x mod f
        while g and g[-1] == 0:
            g.pop()
        if not g:  # f divides x^p - x: every root lies in F_p
            out.append(True)
            continue
        common, _ = _fp_gcd(f + [1], g, p)
        out.append(len(common) > 1)
    return out


def _times_x(r: np.ndarray, xd: np.ndarray, pc: np.ndarray) -> np.ndarray:
    """x * r mod f, row by row (each product stays below p^2 + p)."""
    out = np.empty_like(r)
    out[:, 0] = 0
    out[:, 1:] = r[:, :-1]
    return (out + r[:, -1:] * xd) % pc


def _square_mod(r: np.ndarray, xpow: np.ndarray, pc: np.ndarray) -> np.ndarray:
    """r^2 mod f, row by row; every product is reduced below p before any
    sum, so sums of d terms stay far below 2^63."""
    n, d = r.shape
    pc3 = pc[:, :, None]
    prod = r[:, :, None] * r[:, None, :] % pc3
    # shift row i of prod right by i (the skew of a d x 2d block read as
    # d x (2d-1)), so that column sums are the coefficients of r^2
    skew = np.zeros((n, d, 2 * d), dtype=np.int64)
    skew[:, :, :d] = prod
    shifted = skew.reshape(n, 2 * d * d)[:, : d * (2 * d - 1)].reshape(n, d, 2 * d - 1)
    sq = shifted.sum(axis=1) % pc
    return (sq[:, :d] + (sq[:, d:, None] * xpow % pc3).sum(axis=1)) % pc


def _coprime_chunk(curve: Curve, k: int, primes: list[int]) -> list[bool]:
    # k is never factored: stripping the root-tested ell leaves 1 exactly
    # when k has no other prime factor
    rooted = [ell for ell in _ROOT_TEST_ELLS if k and k % ell == 0]
    rest = abs(k)
    for ell in rooted:
        while rest % ell == 0:
            rest //= ell
    # the root test removes the primes (all >= 5, so never ell) where some
    # ell | A_p; the survivors take a_p if k has a prime factor ell >= 5, or
    # if k = 0, whose gcd |A_p| the root test cannot decide
    alive = list(primes)
    for ell in rooted:
        alive = [p for p, root in zip(alive, _root_test(curve, ell, alive)) if not root]
    verdicts = dict.fromkeys(primes, False)
    if rest == 1:
        verdicts.update(dict.fromkeys(alive, True))
    else:
        for p, ap in zip(alive, _frobenius_traces(curve, alive)):
            verdicts[p] = gcd((p + 1) ** 2 - ap * ap, k) == 1
    return [verdicts[p] for p in primes]


def coprime_verdicts(
    curve: Curve, k: int, primes: Iterable[int], workers: int = 1
) -> list[bool]:
    """gcd(A_p, k) == 1 for each good prime p in `primes`, in order.

    A_p = (p+1)^2 - a_p^2 = |E(F_p)| * |E^d(F_p)|.  Each prime ell | k in
    (2, 3) is decided at every p by the root test of `torsion_roots`,
    which never needs a_p: O(d^2 log p) for psi_ell of degree d = 3, 4,
    measured at 15-27 and 19-38 us per prime from p = 500 to 10^6 (2-CPU
    Xeon VM, numpy 2.4).  a_p from `frobenius_trace` decides every other
    ell at once, at 85 us by the character sum below p = 2000 and 20-70 us
    above by Shanks-Mestre batched over the chunk's primes
    (`elliptic._shanks_mestre_batch`), where the root test already takes
    116-151 us for psi_5, 350-460 us for psi_7 and 2.5-3.4 ms for psi_11.
    So a prime that survives the root tests takes a_p if k has a prime
    factor ell >= 5, or if k = 0; the sign of k does not matter.  Every p
    is checked once, before any work (ValueError for p >= 2**31, p < 5, a
    composite p or bad reduction).  Output is identical for any worker
    count."""
    primes = list(primes)
    if not primes:
        return []
    check_int64_modulus(max(primes))
    for p in primes:
        curve._require_good(p)
    return _coprime_verdicts(curve, k, primes, workers)


def _coprime_verdicts(curve: Curve, k: int, primes: list[int], workers: int) -> list[bool]:
    """coprime_verdicts for primes the caller has checked."""
    verdicts = map_primes(partial(_coprime_chunk, curve, k), primes, workers)
    return [verdicts[p] for p in primes]


def empirical_density(
    curve: Curve, k: int, pmax: int, workers: int = 1
) -> Fraction:
    """Fraction of good primes p <= pmax at which the gcd criterion says
    L_k permutes P^1(F_p); bad primes are excluded from both sides."""
    if pmax < 100:
        raise ValueError("pmax must be >= 100")
    # sieve primes of good reduction: only the int64 limit is left to check
    good = curve.good_primes(pmax)
    check_int64_modulus(max(good, default=0))
    return Fraction(sum(_coprime_verdicts(curve, k, good, workers)), len(good))
