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
from typing import Iterable, NamedTuple, Optional

import numpy as np

from .elliptic import Curve, _frobenius_traces, _residues, count_points, division_poly, format_curve, rational_roots
from .exceptionality import map_primes
from .intmath import is_prime, prime_divisors
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


_CLOSURE_BOUND = 10**6


class SubgroupSpec(NamedTuple):
    """A subgroup of GL_2(Z/m) given by generators; the closure is
    computed and must stay within _CLOSURE_BOUND elements."""

    m: int
    generators: tuple[Mat2Zm, ...]

    def closure(self) -> set[Mat2Zm]:
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
                        if len(elems) > _CLOSURE_BOUND:
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


def frobenius_congruence_check(curve: Curve, primes: Iterable[int], ell: int) -> list[bool]:
    """The bridge between the trace view and the torsion view of ell | A_p,
    one bool per prime of `primes`, in order.

    A_p = (p+1)^2 - a_p^2 = |E(F_p)| * |E^d(F_p)|, with a_p from the
    character sum, is divisible by the prime ell exactly when E or its
    quadratic twist has an F_p-point of order ell, that is, exactly when
    psi_ell (q for ell = 2) has a root in F_p.  Both sides are computed
    independently and compared: the root test runs here, once for the
    whole list, whichever route `coprime_verdicts` would take at p."""
    primes = list(primes)
    roots = torsion_roots(curve, ell, primes)
    aps = [count_points(curve, p)[1] for p in primes]
    return [root == (((p + 1) ** 2 - ap * ap) % ell == 0) for p, ap, root in zip(primes, aps, roots)]


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

# blocks of n primes for the root test are sized so that its (d, n) rows hold
# at most _ROW_ELEMS int64 elements (256 KiB, measured fastest for d = 3..24
# at p near 10^6), and its largest array, the table of x^(d+j) mod f for
# j < d (d x d x n), at most _BLOCK_ELEMS (8 MiB), or one prime
_ROW_ELEMS = 1 << 15
_BLOCK_ELEMS = 1 << 20
# the largest degree the root test takes; psi_37 (d = 684) is the last
# psi_ell below it.  Its table is d^2 elements a prime (3.6 MiB) and a
# square makes about 2d numpy passes, about 0.25 s a prime near 10^6, so
# psi_41 (d = 840) and beyond are refused to keep the cost bounded
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

    The test is gcd(F, x^p - x) != 1 for F(x) = c^(d-1) f(x / c) mod p,
    where f is psi_ell of degree d = (ell^2 - 1)/2 (3 for ell = 2) and c
    its leading coefficient: F is monic with c times the roots of f.  Every
    step runs on blocks of primes at once, one int64 row per coefficient:
    x^p mod F by square-and-multiply (`_x_power_minus_x`) and the gcd
    decision by one remainder sequence (`_share_root`).  Every p is checked
    before any work by `Curve._require_all_good`: one sieve pass behind the
    int64 guard.  Raises ValueError for d > 724 (ell > 37)."""
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    if _torsion_degree(ell) > _MAX_ROOT_DEGREE:
        raise ValueError(f"the root test is limited to ell <= 37, got {ell}")
    primes = list(primes)
    if not primes:
        return []
    if ell in primes:
        curve._require_all_good(primes[: primes.index(ell)])
        raise ValueError("p and ell must differ")
    curve._require_all_good(primes)
    return _root_test(curve, ell, primes)


def _root_test(curve: Curve, ell: int, primes: list[int]) -> list[bool]:
    if not primes:
        return []
    cs = _torsion_poly(curve, ell)
    d = len(cs) - 1
    step = max(1, min(_ROW_ELEMS // d, _BLOCK_ELEMS // (d * d)))
    out: list[bool] = []
    for i in range(0, len(primes), step):
        ps = np.array(primes[i : i + step], dtype=np.int64)
        f = _monic_residues(cs, ps)
        out += _share_root(f, _x_power_minus_x(f, ps), ps).tolist()
    return out


def _monic_residues(cs: list[int], ps: np.ndarray) -> np.ndarray:
    """The (d + 1, n) coefficients of F(x) = c^(d-1) f(x / c) mod ps[j],
    column by column, for f = sum cs[i] x^i of degree d whose leading
    coefficient c is a unit mod every p: F is monic, its roots are c times
    those of f, and it takes no inverse mod p."""
    out = np.array([_residues(c, ps) for c in cs], dtype=np.int64)
    scale, lead = out[-1].copy(), out[-1].copy()
    for row in out[-3::-1]:  # row i takes c^(d-1-i)
        row *= scale
        row %= ps
        scale *= lead
        scale %= ps
    out[-1] = 1
    return out


def _x_power_minus_x(f: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """x^p - x mod f, column by column: f is (d + 1, n) and monic, with
    its coefficients mod ps[j] in column j; the result is (d, n).

    Left-to-right square-and-multiply over the bits of p, every column at
    once.  A product of two residues is at most (p - 1)^2, so one residue
    plus `group` products fits in int64, and a sum is reduced mod p only
    once per `group` products (group >= 2 for every p < 2^31)."""
    d, n = len(f) - 1, len(ps)
    pmax = int(ps.max())
    group = (2**63 - 1 - pmax) // (pmax - 1) ** 2
    # xpow[j] = x^(d+j) mod f for j < d: the rows that fold x * r^2, of
    # degree below 2d, back below d
    xpow = np.empty((d, d, n), dtype=np.int64)
    xpow[0] = -f[:d] % ps
    for j in range(1, d):
        xpow[j, 0] = 0
        xpow[j, 1:] = xpow[j - 1, :-1]
        xpow[j] += xpow[j - 1, -1] * xpow[0]
        xpow[j] %= ps
    # r starts as x^m for the leading bits m of p that stay below d, so
    # their squares are skipped
    low = max(pmax.bit_length() - (d.bit_length() - 1), 0)
    r = np.zeros((d, n), dtype=np.int64)
    r[ps >> low, np.arange(n)] = 1
    bits = ((ps >> np.arange(low)[:, None]) & 1).astype(bool)
    for b in range(low - 1, -1, -1):
        r = _square_step(r, bits[b], xpow, ps, group)
    r[1] -= 1
    r[1] %= ps
    return r


def _square_step(
    r: np.ndarray, odd: np.ndarray, xpow: np.ndarray, ps: np.ndarray, group: int
) -> np.ndarray:
    """x^odd * r^2 mod f, column by column, for (d, n) residues r."""
    d = len(r)
    # acc[k + 1] sums the x^k products of r^2 and acc[0] stays zero, so the
    # coefficients of x * r^2 are acc[k]: odd columns read one row lower
    acc = np.zeros((2 * d + 1, r.shape[1]), dtype=np.int64)
    for i in range(d):
        if i and i % group == 0:
            acc %= ps
        acc[i + 1 : i + d + 1] += r[i] * r
    count = (d - 1) % group + 1  # products in each sum since it was reduced
    shifted = np.where(odd, acc[:-1], acc[1:])
    lo, hi = shifted[:d], shifted[d:]
    hi %= ps
    for j in range(d):
        if count == group:
            lo %= ps
            count = 0
        lo += hi[j] * xpow[j]
        count += 1
    lo %= ps
    return lo


def _share_root(f: np.ndarray, g: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """Whether gcd(f, g) over F_p is not constant, column by column: f is
    (m + 1, n) with a nonzero leading row and g is (m, n), both holding
    residues mod ps[j] in column j.

    One pseudo-remainder sequence runs on every column at once, with no
    inverse: for b of degree m' with leading coefficient lb != 0,
    lb * a - t * x^e * b clears the lead t of a, and scaling by the unit lb
    keeps the gcd.  While each remainder is one degree below its divisor,
    a remainder that vanishes leaves that divisor, of degree >= 1, as the
    gcd, and a nonzero constant at the end means coprime (g = 0: f splits).
    A column whose remainder drops further but not to 0 takes `_fp_gcd` on
    its f and g."""
    share = np.zeros(len(ps), dtype=bool)
    live = np.ones(len(ps), dtype=bool)  # columns on the one-degree sequence
    a, b = f, g
    while True:
        ends = live & (b[-1] == 0)
        if ends.any():
            zero = ~b.any(axis=0)
            share |= ends & zero
            for i in np.flatnonzero(ends & ~zero):
                rest = g[:, i].tolist()
                while not rest[-1]:
                    rest.pop()
                share[i] = len(_fp_gcd(f[:, i].tolist(), rest, int(ps[i]))[0]) > 1
            live &= ~ends
        if len(b) == 1 or not live.any():
            return share
        lb, t = b[-1], a[-1]
        a = lb * a[:-1]
        a[1:] -= t * b[:-1]
        a %= ps
        rem = lb * a[:-1] - a[-1] * b[:-1]
        rem %= ps
        a, b = b, rem


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


def coprime_verdicts(curve: Curve, k: int, primes: Iterable[int]) -> list[bool]:
    """gcd(A_p, k) == 1 for each good prime p in `primes`, in order.

    A_p = (p+1)^2 - a_p^2 = |E(F_p)| * |E^d(F_p)|.  Each prime ell | k in
    (2, 3) is decided at every p by the root test of `torsion_roots`,
    which never needs a_p: O(d^2 log p) for psi_ell of degree d = 3, 4,
    measured at 2-3 and 3-4 us per prime from p = 500 to 10^6 on blocks
    of 300 primes (2-CPU Xeon VM, numpy 2.4).  a_p from `frobenius_trace`
    decides every other ell at once: by the character sum below p = 230,
    and from there by Shanks-Mestre batched over up to 4096 primes
    (`elliptic._frobenius_traces`), at 8-14 us a prime on 4096 primes
    from 10^4 to 10^6 and about 15 us from 230 to 2000, where the sum
    takes about 60 us.  On 4096 primes psi_5 takes 15-18 us, more than
    the batch from 10^4 to 10^6; psi_7 takes 52-64 us and psi_11
    224-279 us on 300.  So a prime that survives the
    root tests takes a_p if k has a prime factor ell >= 5, or if k = 0;
    the sign of k does not matter.  Every p is checked once, before any
    work, by `Curve._require_all_good`, one sieve pass behind the int64
    guard (ValueError for p >= 2**31, p < 5, a composite p or bad
    reduction).  The primes run in this process."""
    primes = list(primes)
    if not primes:
        return []
    curve._require_all_good(primes)
    return _coprime_verdicts(curve, k, primes)


def _coprime_verdicts(curve: Curve, k: int, primes: list[int], workers: int = 1) -> list[bool]:
    """coprime_verdicts for primes the caller has checked."""
    verdicts = map_primes(partial(_coprime_chunk, curve, k), primes, workers)
    return [verdicts[p] for p in primes]


def empirical_density(
    curve: Curve, k: int, pmax: int, workers: int = 1
) -> Fraction:
    """Fraction of good primes p <= pmax at which the gcd criterion says
    L_k permutes P^1(F_p); bad primes are excluded from both sides.
    k < 1, pmax < 100 or pmax >= 2**31 is a ValueError before any sieve,
    and so is a curve with no good prime up to pmax right after it."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if pmax < 100:
        raise ValueError("pmax must be >= 100")
    # primes of good reduction from the sieve: none is checked again
    good = curve.good_primes(pmax)
    if not good:
        raise ValueError(f"{format_curve(curve)} has no prime of good reduction up to pmax = {pmax}")
    return Fraction(sum(_coprime_verdicts(curve, k, good, workers)), len(good))
