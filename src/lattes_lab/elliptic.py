"""Weierstrass curves over Q: invariants, division polynomials, Lattes maps,
reduction and point counting over F_p, the group law, quadratic twists,
torsion with rational x-coordinate, and the curve catalog.

Curves are long Weierstrass models y^2 + a1*x*y + a3*y = x^3 + a2*x^2 +
a4*x + a6 with exact rational coefficients.  General models (a1, a3 != 0)
are handled natively through the b-invariants, so no coordinate change is
ever applied.  Division polynomials are kept as their x-parts: for odd n
the polynomial part is the full psi_n, for even n it is psi_n with one
factor psi_2 removed, and every psi_2^2 that appears is replaced by
q(x) = 4x^3 + b2*x^2 + 2*b4*x + b6.
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm as int_lcm
from typing import Optional

import numpy as np

from .intmath import (
    check_int64_modulus,
    factorize,
    is_prime,
    primes_upto,
    sqrt_mod,
    squarefree_part_known,
)
from .polyrat import GF, INFINITY, Poly, QQ, RatMap, rational_roots

Point = Optional[tuple[int, int]]  # None is the identity O


def _frac(v) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


@dataclass(frozen=True)
class Curve:
    """A nonsingular long Weierstrass model over Q."""

    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    a6: Fraction

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4", "a6"):
            object.__setattr__(self, name, _frac(getattr(self, name)))
        if self.discriminant == 0:
            raise ValueError(f"singular curve {self.ainvs()}")
        # standard identity between the b-invariants
        if 4 * self.b8 != self.b2 * self.b6 - self.b4**2:
            raise ArithmeticError(f"4*b8 != b2*b6 - b4^2 for {self.ainvs()}")

    def ainvs(self) -> tuple[Fraction, ...]:
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    @functools.cached_property
    def b2(self) -> Fraction:
        return self.a1**2 + 4 * self.a2

    @functools.cached_property
    def b4(self) -> Fraction:
        return 2 * self.a4 + self.a1 * self.a3

    @functools.cached_property
    def b6(self) -> Fraction:
        return self.a3**2 + 4 * self.a6

    @functools.cached_property
    def b8(self) -> Fraction:
        return (
            self.a1**2 * self.a6
            + 4 * self.a2 * self.a6
            - self.a1 * self.a3 * self.a4
            + self.a2 * self.a3**2
            - self.a4**2
        )

    @functools.cached_property
    def c4(self) -> Fraction:
        return self.b2**2 - 24 * self.b4

    @functools.cached_property
    def c6(self) -> Fraction:
        return -self.b2**3 + 36 * self.b2 * self.b4 - 216 * self.b6

    @functools.cached_property
    def discriminant(self) -> Fraction:
        b2, b4, b6, b8 = self.b2, self.b4, self.b6, self.b8
        return -(b2**2) * b8 - 8 * b4**3 - 27 * b6**2 + 9 * b2 * b4 * b6

    @functools.cached_property
    def j(self) -> Fraction:
        return self.c4**3 / self.discriminant

    @functools.cached_property
    def psi2_squared(self) -> Poly:
        """q(x) = 4x^3 + b2*x^2 + 2*b4*x + b6, the square of psi_2."""
        return Poly(QQ, (self.b6, 2 * self.b4, self.b2, Fraction(4)))

    @functools.cached_property
    def division_polys(self) -> "DivisionPolynomials":
        return DivisionPolynomials(self)

    @functools.cached_property
    def _cache_key(self) -> str:
        return hashlib.sha256(format_curve(self).encode()).hexdigest()[:12]

    def __repr__(self):
        return f"Curve{tuple(str(a) for a in self.ainvs())}"

    # -- reduction ----------------------------------------------------------

    @functools.cached_property
    def _bad_modulus(self) -> int:
        # a prime has bad reduction on this model exactly when it divides
        # the discriminant's numerator or an a-invariant's denominator
        return self.discriminant.numerator * int_lcm(*(a.denominator for a in self.ainvs()))

    def has_good_reduction(self, p: int) -> bool:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return self._bad_modulus % p != 0

    def primes_by_reduction(self, pmax: int) -> tuple[list[int], list[int]]:
        """The primes 5 <= p <= pmax of good and of bad reduction, from one
        sieve pass; the sieve's primes are not tested again."""
        bad_modulus = self._bad_modulus
        good, bad = [], []
        for p in primes_upto(pmax):
            if p >= 5:
                (good if bad_modulus % p else bad).append(p)
        return good, bad

    def good_primes(self, pmax: int) -> list[int]:
        return self.primes_by_reduction(pmax)[0]

    def bad_primes_in(self, pmax: int) -> list[int]:
        return self.primes_by_reduction(pmax)[1]

    def _require_good(self, p: int):
        if p < 5:
            raise ValueError("reduction is supported for primes p >= 5 only")
        if not self.has_good_reduction(p):
            raise ValueError(f"bad reduction at {p} for {self}")

    def coeffs_mod(self, p: int) -> tuple[int, ...]:
        F = GF(p)
        return tuple(F.coerce(a) for a in self.ainvs())


def parse_curve(text: str) -> Curve:
    """Parse the bracketed coefficient format '[a1,a2,a3,a4,a6]'."""
    t = text.strip()
    if not (t.startswith("[") and t.endswith("]")):
        raise ValueError(f"curve spec must look like [a1,a2,a3,a4,a6], got {text!r}")
    parts = t[1:-1].split(",")
    if len(parts) != 5:
        raise ValueError(f"curve spec needs 5 coefficients, got {len(parts)}")
    return Curve(*(Fraction(s.strip()) for s in parts))


def format_curve(curve: Curve) -> str:
    return "[" + ",".join(str(a) for a in curve.ainvs()) + "]"


def curve_hash(curve: Curve) -> str:
    """Stable short hash of the coefficient vector, used as a cache key."""
    return curve._cache_key


# -- division polynomials ----------------------------------------------------


class DivisionPolynomials:
    """Cache of the x-parts of the division polynomials of one curve.

    self[n] is psi_n for odd n and psi_n / psi_2 for even n, both as
    polynomials in x alone.  The leading coefficient is n for odd n and
    n/2 for even n; the degree is (n^2-1)/2 resp. (n^2-4)/2.
    """

    def __init__(self, curve: Curve):
        b2, b4, b6, b8 = curve.b2, curve.b4, curve.b6, curve.b8
        self.curve = curve
        self.q = curve.psi2_squared
        self._cache: dict[int, Poly] = {
            0: Poly.zero(QQ),
            1: Poly.one(QQ),
            2: Poly.one(QQ),
            3: Poly(QQ, (b8, 3 * b6, 3 * b4, b2, Fraction(3))),
            4: Poly(
                QQ,
                (
                    b4 * b8 - b6**2,
                    b2 * b8 - b4 * b6,
                    10 * b8,
                    10 * b6,
                    5 * b4,
                    b2,
                    Fraction(2),
                ),
            ),
        }

    def __getitem__(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("division polynomial index must be >= 0")
        cached = self._cache.get(n)
        if cached is not None:
            return cached
        m = n // 2
        if n % 2:
            # psi_{2m+1} = psi_{m+2} psi_m^3 - psi_{m-1} psi_{m+1}^3, with a
            # q^2 on whichever side carries the even indices
            a = self[m + 2] * self[m] ** 3
            b = self[m - 1] * self[m + 1] ** 3
            q2 = self.q * self.q
            out = q2 * a - b if m % 2 == 0 else a - q2 * b
        else:
            out = self[m] * (self[m + 2] * self[m - 1] ** 2 - self[m - 2] * self[m + 1] ** 2)
        self._cache[n] = out
        return out


def division_poly(curve: Curve, n: int) -> Poly:
    """The x-part of the n-th division polynomial (memoized per curve)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return curve.division_polys[n]


# a fixed bound: 128 holds every map one suite pass builds (at most the 12
# catalog curves x k = 2..10)
@functools.lru_cache(maxsize=128)
def lattes_map(curve: Curve, k: int) -> RatMap:
    """The k-th Lattes map: the rational function with
    L_k(x(P)) = x([k]P), written purely in x.

    L_k = x - psi_{k-1} psi_{k+1} / psi_k^2, with every psi_2^2 replaced by
    q(x); the numerator is monic of degree k^2 and the denominator has
    degree k^2 - 1 and leading coefficient k^2 before normalization.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    x = Poly.x(QQ)
    if k == 1:
        return RatMap(x, Poly.one(QQ))
    ps = curve.division_polys
    q = curve.psi2_squared
    pk, lo, hi = ps[k], ps[k - 1], ps[k + 1]
    pk2 = pk * pk
    if k % 2:
        den = pk2
        num = x * den - q * lo * hi
    else:
        den = q * pk2
        num = x * den - lo * hi
    return RatMap(num, den)


# -- point counting and the group law over F_p -------------------------------


def count_points(curve: Curve, p: int) -> tuple[int, int]:
    """(|E(F_p)|, a_p) by the quadratic-character sum over the completed
    square: |E(F_p)| = p + 1 + sum_x chi(4x^3 + b2 x^2 + 2 b4 x + b6).

    O(p) time and memory, and independent of `frobenius_trace`: it is the
    oracle the faster route is tested against, and the checks that compare
    two routes (`frobenius_congruence_check`, `twist_product_check`, the
    Deuring and E_d checks) call it.  Vectorized; all intermediates stay
    below 2**63 for p < 2**31, which is checked before anything is
    allocated.  Raises ValueError for p >= 2**31, p < 5, a composite p or
    a prime of bad reduction.
    """
    check_int64_modulus(p)
    curve._require_good(p)
    F = GF(p)
    b2, b4, b6 = F.coerce(curve.b2), F.coerce(2 * curve.b4), F.coerce(curve.b6)
    xs = np.arange(p, dtype=np.int64)
    v = (4 * xs + b2) % p
    v = (v * xs + b4) % p
    v = (v * xs + b6) % p
    sq = np.zeros(p, dtype=bool)
    sq[(xs * xs) % p] = True
    s = int(np.count_nonzero(sq[v] & (v != 0))) - int(np.count_nonzero(~sq[v] & (v != 0)))
    order = p + 1 + s
    ap = -s
    if ap * ap > 4 * p:
        raise RuntimeError(f"Hasse bound violated at p={p}: a_p={ap}")
    return order, ap


# -- a_p by baby-step giant-step ---------------------------------------------

# frobenius_trace takes the character sum below this p and Shanks-Mestre
# above it.  Measured over the catalog curves on a 2-CPU Xeon VM (numpy
# 2.4), the two cost within 10% of each other per prime from p = 1400 to
# 2400 (80-130 us), and this is the middle of that band; at 10^4 the sum
# takes 3x as long, at 10^6 over 100x.  It must stay above 229: from
# p = 230 on, E or its quadratic twist has a point whose order has a single
# multiple in the Hasse interval (Mestre's theorem, as given in Schoof,
# "Counting points on elliptic curves over finite fields", 1995), so the
# search below ends.
_BSGS_FROM = 2000
# random x drawn per prime before Shanks-Mestre gives up; each point
# settles the order with high probability, so the cap is never reached at
# a prime above 229 unless the route is broken
_BSGS_DRAWS = 64


def frobenius_trace(curve: Curve, p: int) -> int:
    """a_p = p + 1 - |E(F_p)| at a good prime 5 <= p < 2**31.

    Below p = 2000 this is the character sum of `count_points`; above it,
    Shanks-Mestre baby-step giant-step on the short model
    y^2 = x^3 - 27 c4 x - 54 c6, about 4 p^(1/4) group operations per
    point on Python ints.  A point whose order leaves several group orders
    in the Hasse interval is combined with points on the quadratic twist,
    whose order is p + 1 + a_p, until one a_p fits both.  The points come
    from an RNG seeded by p, so the result and its cost are the same in
    every process.  Raises ValueError like `count_points`, and
    ArithmeticError if no a_p is settled after 64 points.
    """
    check_int64_modulus(p)
    curve._require_good(p)
    return _frobenius_trace(curve, p)


def _frobenius_trace(curve: Curve, p: int) -> int:
    """frobenius_trace for a p the caller has checked.  Below the crossover
    it calls count_points by its public name, so that a wrapper bound to
    that name sees every sum; count_points checks p again there, at 2-7%
    of the sum's cost (0.5-3 us against 20-90 us)."""
    if p < _BSGS_FROM:
        return count_points(curve, p)[1]
    F = GF(p)
    ap = _shanks_mestre(F.coerce(-27 * curve.c4), F.coerce(-54 * curve.c6), p)
    if ap * ap > 4 * p:
        raise RuntimeError(f"Hasse bound violated at p={p}: a_p={ap}")
    return ap


def _shanks_mestre(a: int, b: int, p: int) -> int:
    """a_p of y^2 = x^3 + a x + b over F_p, for a prime p > 229.

    No square root is needed for a point: for f = x^3 + a x + b != 0,
    (f x, f^2) lies on y^2 = x^3 + a f^2 x + b f^3, which is the curve
    itself when f is a square mod p and its quadratic twist otherwise.
    The orders found on each side are kept as an lcm, and a_p is the one
    trace in the Hasse interval that both lcms divide into."""
    rng = random.Random(p)
    T = isqrt(4 * p)
    lcms = {1: 1, -1: 1}  # Legendre symbol of f -> lcm of the orders seen
    for _ in range(_BSGS_DRAWS):
        x = rng.randrange(p)
        f = (x * x * x + a * x + b) % p
        if f == 0:
            continue
        side = 1 if pow(f, (p - 1) // 2, p) == 1 else -1
        ms = _hasse_multiples((f * x % p, f * f % p), a * f * f % p, p)
        # one multiple is the group order; several are spaced by the order of the point
        lcms[side] = int_lcm(lcms[side], ms[0] if len(ms) == 1 else ms[1] - ms[0])
        fits = _traces_fitting(p, T, lcms[1], lcms[-1])
        if len(fits) == 1:
            return fits[0]
        if not fits:
            raise ArithmeticError(f"no trace fits the point orders at p={p}")
    raise ArithmeticError(f"Shanks-Mestre left a_p open after {_BSGS_DRAWS} points at p={p}")


def _traces_fitting(p: int, T: int, on_curve: int, on_twist: int) -> list[int]:
    """The first two a with |a| <= T, on_curve | p + 1 - a and
    on_twist | p + 1 + a, stepping through the progression of the larger
    modulus."""
    if on_curve >= on_twist:
        step, r = on_curve, (p + 1) % on_curve
    else:
        step, r = on_twist, -(p + 1) % on_twist
    out = []
    for a in range(-T + (r + T) % step, T + 1, step):
        if (p + 1 - a) % on_curve == 0 and (p + 1 + a) % on_twist == 0:
            out.append(a)
            if len(out) == 2:
                break
    return out


def _hasse_multiples(P: tuple[int, int], a: int, p: int) -> list[int]:
    """Every m with |p + 1 - m| <= 2 sqrt(p) and [m]P = O, ascending, for
    an affine point P of y^2 = x^3 + a x + b over F_p.

    Baby steps store x([j]P) for 0 < j <= s; since x([-j]P) = x([j]P),
    giant steps [p + 1 - i w]P with w = 2s + 1 then cover every
    t = p + 1 - m in the interval.  An order n <= 2s - 1 shows during the
    baby steps, as [n]P = O or as x([j]P) = x([n - j]P) for the first
    j > n/2, and its multiples are returned directly; a larger order has
    at most one multiple per giant step, or two when that step lands on
    a point of order 2 (n = 2s)."""
    T = isqrt(4 * p)
    s = isqrt(T) + 1
    baby: dict[int, tuple[int, int]] = {}
    R: Point = P
    for j in range(1, s + 1):
        if R is None or R[0] in baby:
            n = j if R is None else j + baby[R[0]][0]
            return list(range(-(-(p + 1 - T) // n) * n, p + 2 + T, n))
        baby[R[0]] = (j, R[1])
        R = _ec_add(R, P, a, p)
    w = 2 * s + 1
    W = _ec_mul(w, P, a, p)
    minus_w = None if W is None else (W[0], -W[1] % p)
    lo = -(T // w) - 1
    ts = set()
    R = _ec_mul(p + 1 - lo * w, P, a, p)
    for i in range(lo, T // w + 2):
        if R is None:
            ts.add(i * w)
        elif R[0] in baby:
            j, y = baby[R[0]]
            if R[1] == y:
                ts.add(i * w + j)
            if R[1] == -y % p:
                ts.add(i * w - j)
        R = _ec_add(R, minus_w, a, p)
    return sorted(p + 1 - t for t in ts if -T <= t <= T)


def _ec_add(P: Point, Q: Point, a: int, p: int) -> Point:
    """P + Q on y^2 = x^3 + a x + b over F_p (b is not needed)."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def _ec_mul(k: int, P: Point, a: int, p: int) -> Point:
    """[k]P for k >= 0 by double-and-add on y^2 = x^3 + a x + b."""
    R: Point = None
    while k:
        if k & 1:
            R = _ec_add(R, P, a, p)
        k >>= 1
        if k:
            P = _ec_add(P, P, a, p)
    return R


def is_on_curve(curve: Curve, pt: Point, p: int) -> bool:
    if pt is None:
        return True
    a1, a2, a3, a4, a6 = curve.coeffs_mod(p)
    x, y = pt[0] % p, pt[1] % p
    lhs = (y * y + a1 * x * y + a3 * y) % p
    rhs = (((x + a2) * x + a4) * x + a6) % p
    return lhs == rhs


def negate_point(curve: Curve, pt: Point, p: int) -> Point:
    if pt is None:
        return None
    a1, _, a3, _, _ = curve.coeffs_mod(p)
    x, y = pt
    return (x % p, (-y - a1 * x - a3) % p)


def add_points(curve: Curve, P: Point, Q: Point, p: int) -> Point:
    """Chord-tangent addition on the reduced curve."""
    if P is None:
        return Q
    if Q is None:
        return P
    if not (is_on_curve(curve, P, p) and is_on_curve(curve, Q, p)):
        raise ValueError("operand not on the curve")
    a1, a2, a3, a4, a6 = curve.coeffs_mod(p)
    x1, y1 = P[0] % p, P[1] % p
    x2, y2 = Q[0] % p, Q[1] % p
    if x1 == x2 and (y1 + y2 + a1 * x2 + a3) % p == 0:
        return None
    if x1 == x2 and y1 == y2:
        d = (2 * y1 + a1 * x1 + a3) % p
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) * pow(d, -1, p) % p
        nu = (-(x1**3) + a4 * x1 + 2 * a6 - a3 * y1) * pow(d, -1, p) % p
    else:
        d = (x2 - x1) % p
        lam = (y2 - y1) * pow(d, -1, p) % p
        nu = (y1 * x2 - y2 * x1) * pow(d, -1, p) % p
    x3 = (lam * lam + a1 * lam - a2 - x1 - x2) % p
    y3 = (-(lam + a1) * x3 - nu - a3) % p
    return (x3, y3)


def scalar_mul(curve: Curve, k: int, P: Point, p: int) -> Point:
    """[k]P by double-and-add."""
    if k < 0:
        return scalar_mul(curve, -k, negate_point(curve, P, p), p)
    result: Point = None
    addend = P
    while k:
        if k & 1:
            result = add_points(curve, result, addend, p)
        addend = add_points(curve, addend, addend, p)
        k >>= 1
    return result


def random_point(curve: Curve, p: int, rng: random.Random) -> Point:
    """A uniform-ish affine point on the reduced curve."""
    curve._require_good(p)
    F = GF(p)
    a1, _, a3, _, _ = curve.coeffs_mod(p)
    b2, b4, b6 = F.coerce(curve.b2), F.coerce(curve.b4), F.coerce(curve.b6)
    inv2 = pow(2, -1, p)
    while True:
        x = rng.randrange(p)
        s = (((4 * x + b2) * x + 2 * b4) * x + b6) % p
        t = sqrt_mod(s, p)
        if t is None:
            continue
        if rng.randrange(2):
            t = (-t) % p
        y = (t - a1 * x - a3) * inv2 % p
        return (x, y)


# -- twists, torsion, CM models ----------------------------------------------


def eval_lattes_vs_group_law(
    curve: Curve, pmax: int, kmax: int, points: int, rng: random.Random
):
    """Cross-oracle: x([k]P) must equal L_k(x(P)) for random points P on
    the reduced curve, with O mapping to infinity.  Returns None when all
    checks agree, else a (p, k, point) descriptor of the first mismatch."""
    maps = {k: lattes_map(curve, k) for k in range(1, kmax + 1)}
    for p in curve.good_primes(pmax):
        reduced = {k: maps[k].reduce_mod_p(p) for k in maps}
        for _ in range(points):
            P = random_point(curve, p, rng)
            for k in range(1, kmax + 1):
                Q = scalar_mul(curve, k, P, p)
                expected = INFINITY if Q is None else Q[0]
                got = reduced[k].eval_proj(P[0])
                if got != expected and not (Q is None and got is INFINITY):
                    return (p, k, P)
    return None


def quadratic_twist(curve: Curve, d: int) -> Curve:
    """The quadratic twist y^2 = x^3 + d^2*a4*x + d^3*a6 of a short model."""
    if curve.a1 != 0 or curve.a2 != 0 or curve.a3 != 0:
        raise ValueError("quadratic_twist requires a short Weierstrass model")
    if d == 0 or not squarefree_part_known(d):
        raise ValueError(f"twist parameter {d} must be a nonzero squarefree integer")
    return Curve(0, 0, 0, d * d * curve.a4, d * d * d * curve.a6)


def torsion_x_rational(curve: Curve, k: int) -> set[Fraction]:
    """Rational x-coordinates of points P != O with [k]P = O.

    For even k the 2-torsion x-coordinates (roots of q) are included
    alongside the roots of the x-part of psi_k.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    roots = rational_roots(division_poly(curve, k)) if division_poly(curve, k).degree > 0 else set()
    if k % 2 == 0:
        roots |= rational_roots(curve.psi2_squared)
    return roots


def torsion_classify_Ed(d: int) -> str:
    """Torsion of y^2 = x^3 + d over Q for sixth-power-free d: one of
    'C1', 'C2', 'C3', 'C6'."""
    if d == 0:
        raise ValueError("d must be nonzero")
    exponents = factorize(d).values()
    if any(e >= 6 for e in exponents):
        raise ValueError(f"{d} is not sixth-power-free")
    if d == 1:
        return "C6"
    if (d > 0 and all(e % 2 == 0 for e in exponents)) or d == -432:
        return "C3"
    if all(e % 3 == 0 for e in exponents):
        return "C2"
    return "C1"


# -- CM models and the curve catalog ------------------------------------------

_FIXED_CM_CURVES = {
    -4: (0, 0, 0, 1, 0),
    -8: (0, 1, 0, -3, 1),
    -7: (0, 0, 0, -35, 98),
    -19: (0, 0, 1, -38, 90),
}


def cm_model(D: int, u=1) -> Curve:
    """A rational model with CM by the order of discriminant D.

    D in {-3, -11, -12, -27} gives the one-parameter family in u; the other
    supported discriminants return a fixed representative curve (u is
    ignored for those).
    """
    u = _frac(u)
    if u == 0:
        raise ValueError("u must be nonzero")
    if D == -3:
        return Curve(0, 0, 0, 0, u)
    if D == -11:
        return Curve(0, 0, 0, -264 * u**2, 1694 * u**3)
    if D == -12:
        return Curve(0, 0, 0, -15 * u**2, 22 * u**3)
    if D == -27:
        return Curve(0, 0, 0, -120 * u**2, 506 * u**3)
    if D in _FIXED_CM_CURVES:
        return Curve(*_FIXED_CM_CURVES[D])
    raise ValueError(f"unsupported CM discriminant {D}")


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    curve: Curve
    cm_disc: Optional[int]
    note: str


def _build_catalog() -> tuple[CatalogEntry, ...]:
    return (
        CatalogEntry("d4", cm_model(-4), -4, "j = 1728, torsion C2"),
        CatalogEntry("d8", cm_model(-8), -8, "j = 8000, torsion C2"),
        CatalogEntry("d7", cm_model(-7), -7, "j = -3375, torsion C2"),
        CatalogEntry("d12", cm_model(-12), -12, "j = 54000, torsion C6"),
        CatalogEntry("d19", cm_model(-19), -19, "j = -96^3, trivial torsion"),
        CatalogEntry("d27", cm_model(-27), -27, "j = -12288000, trivial torsion"),
        CatalogEntry("d3", cm_model(-3, 2), -3, "j = 0, trivial torsion"),
        CatalogEntry("d11", cm_model(-11), -11, "j = -2^15, trivial torsion"),
        CatalogEntry("noncm-e", Curve(0, 0, 0, -9, 12), None, "j = -5184, obstructed for 6 | k"),
        CatalogEntry("noncm-f", Curve(0, 0, 0, -60, 180), None, "j = -138240, obstructed for 6 | k"),
        CatalogEntry("k2-s3", Curve(0, 0, 0, 1, 1), None, "2-division field with group S3"),
        CatalogEntry("k2-c3", Curve(0, 0, 0, -3, 1), None, "2-division field with group C3"),
    )


CATALOG: tuple[CatalogEntry, ...] = _build_catalog()
CATALOG_BY_NAME: dict[str, CatalogEntry] = {e.name: e for e in CATALOG}


def cm_disc_for(curve: Curve, disc: Optional[int] = None) -> Optional[int]:
    """disc when one is given, else the catalog's CM discriminant of the
    curve (None for a non-CM or uncatalogued curve)."""
    if disc is not None:
        return disc
    for entry in CATALOG:
        if entry.curve.ainvs() == curve.ainvs():
            return entry.cm_disc
    return None


def noncm_family(family: str, u: int) -> Curve:
    """The two obstructed non-CM families: 'E' is y^2 = x^3 - 9u^2 x + 12u^3
    and 'F' is y^2 = x^3 - 60u^2 x + 180u^3."""
    if u == 0:
        raise ValueError("u must be nonzero")
    if family == "E":
        return Curve(0, 0, 0, -9 * u * u, 12 * u**3)
    if family == "F":
        return Curve(0, 0, 0, -60 * u * u, 180 * u**3)
    raise ValueError("family must be 'E' or 'F'")
