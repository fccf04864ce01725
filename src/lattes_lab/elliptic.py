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
import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm as int_lcm
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .intmath import (
    INT64_MODULUS_LIMIT,
    _non_primes,
    binary_power,
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


def _rational(text: str, what: str) -> Fraction:
    """Fraction(text), or a ValueError that names `what`."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{what}: {text!r} is not a rational number") from None


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
            raise ValueError(f"singular curve {format_curve(self)}")
        # standard identity between the b-invariants
        if 4 * self.b8 != self.b2 * self.b6 - self.b4**2:
            raise ArithmeticError(f"4*b8 != b2*b6 - b4^2 for {format_curve(self)}")

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
        # only a run with an a_p cache hashes a curve, so hashlib (about 3 ms
        # of OpenSSL loading) is imported here, not with the module
        import hashlib

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
        sieve pass; the sieve's primes are not tested again.  pmax >= 2**31
        is a ValueError before the sieve."""
        if pmax >= INT64_MODULUS_LIMIT:
            raise ValueError(f"pmax = {pmax} is too large for int64 arithmetic mod p (need pmax < 2**31)")
        bad_modulus = self._bad_modulus
        good, bad = [], []
        for p in primes_upto(pmax):
            if p >= 5:
                (good if bad_modulus % p else bad).append(p)
        return good, bad

    def good_primes(self, pmax: int) -> list[int]:
        return self.primes_by_reduction(pmax)[0]

    def _require_good(self, p: int):
        if p < 5:
            raise ValueError("reduction is supported for primes p >= 5 only")
        if not self.has_good_reduction(p):
            raise ValueError(f"bad reduction at {p} for {self}")

    def _require_all_good(self, primes: Sequence[int]):
        """_require_good for every p in primes by one sieve pass, raising
        its ValueError for the first offending p in the given order.  The
        int64 guard of every route that takes a list of primes: a prime
        >= 2**31 is a ValueError before the sieve."""
        check_int64_modulus(max(primes, default=0))
        composite = _non_primes({p for p in primes if p >= 5})
        bad_modulus = self._bad_modulus
        for p in primes:
            if p < 5 or p in composite or bad_modulus % p == 0:
                self._require_good(p)

    def coeffs_mod(self, p: int) -> tuple[int, ...]:
        F = GF(p)
        return tuple(F.coerce(a) for a in self.ainvs())


def parse_curve(text: str) -> Curve:
    """Parse the bracketed coefficient format '[a1,a2,a3,a4,a6]'."""
    t = text.strip()
    if not (t.startswith("[") and t.endswith("]")):
        raise ValueError(f"curve spec must look like [a1,a2,a3,a4,a6], got {text!r}")
    parts = [s.strip() for s in t[1:-1].split(",")]
    if len(parts) != 5:
        raise ValueError(f"curve spec needs 5 coefficients, got {len(parts)}")
    return Curve(*(_rational(s, f"{name} in {text}") for name, s in zip(("a1", "a2", "a3", "a4", "a6"), parts)))


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


# count_points allocates arrays of length p: one call raises peak RSS by
# about 39 MiB at p = 999983 and by 306 MiB at p = 9999991 (fresh processes)
COUNT_POINTS_MAX = 10**6


def count_points(curve: Curve, p: int) -> tuple[int, int]:
    """(|E(F_p)|, a_p) by the quadratic-character sum over the completed
    square: |E(F_p)| = p + 1 + sum_x chi(4x^3 + b2 x^2 + 2 b4 x + b6).

    O(p) time and memory, and independent of `frobenius_trace`: it is the
    oracle the faster route is tested against, and the checks that compare
    two routes (`frobenius_congruence_check`, `twist_product_check`, the
    Deuring and E_d checks) call it.  Vectorized; all intermediates stay
    below 2**63 for p < 2**31.  Raises ValueError, before anything is
    allocated, for p > COUNT_POINTS_MAX (which keeps p below 2**31), p < 5,
    a composite p or a prime of bad reduction.
    """
    if p > COUNT_POINTS_MAX:
        raise ValueError(f"count_points stops at p = {COUNT_POINTS_MAX}, got {p}: use frobenius_trace")
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

# From p = 230 on, E or its quadratic twist has a point whose order has a
# single multiple in the Hasse interval (Mestre's theorem, as given in
# Schoof, "Counting points on elliptic curves over finite fields", 1995),
# so the Shanks-Mestre search ends; below it only the character sum is
# used.  Both frobenius_trace and the batch over a chunk of primes switch
# here.
_MESTRE_FROM = 230
# points drawn per prime, by the arrays and then on Python ints, before
# Shanks-Mestre gives up; each point settles the order with high
# probability, so the cap is never reached at a prime above 229 unless the
# route is broken
_BSGS_DRAWS = 64


def frobenius_trace(curve: Curve, p: int) -> int:
    """a_p = p + 1 - |E(F_p)| at a good prime 5 <= p < 2**31.

    Below _MESTRE_FROM this is the character sum of `count_points`, which
    checks p; from there on, `_shanks_mestre` on Python ints, about
    4 p^(1/4) group operations per point.  Raises ValueError like
    `count_points`, and ArithmeticError if no a_p is settled after 64
    points.

    This route takes one prime at a time.  Scans and verdicts take a whole
    chunk of primes through `_frobenius_traces`, which runs the same search
    on int64 arrays; near 10^6 it costs 14-23 us a prime (on 4096 and on
    300 primes) against about 310 us for this route.
    """
    if p < _MESTRE_FROM:
        return count_points(curve, p)[1]
    check_int64_modulus(p)
    curve._require_good(p)
    F = GF(p)
    ap = _shanks_mestre(F.coerce(-27 * curve.c4), F.coerce(-54 * curve.c6), p)
    if ap * ap > 4 * p:
        raise RuntimeError(f"Hasse bound violated at p={p}: a_p={ap}")
    return ap


def _frobenius_traces(curve: Curve, primes: Sequence[int]) -> list[int]:
    """frobenius_trace at each of a list of checked primes, in order: the
    character sum below _MESTRE_FROM, and `_batch_traces` on the distinct
    primes from there on, ascending, in equal sub-batches of at most
    _BATCH_ROWS.  The sum is called by its module name, so that a wrapper
    bound to that name sees every call."""
    order = sorted({p for p in primes if p >= _MESTRE_FROM})
    nsub = -(-len(order) // _BATCH_ROWS)
    traces: dict[int, int] = {}
    for i in range(nsub):
        traces.update(_batch_traces(curve, order[i * len(order) // nsub : (i + 1) * len(order) // nsub]))
    return [traces[p] if p >= _MESTRE_FROM else count_points(curve, p)[1] for p in primes]


def _shanks_mestre(a: int, b: int, p: int, done: Sequence[tuple[int, int]] = ()) -> int:
    """a_p of y^2 = x^3 + a x + b over F_p, for a prime p > 229.

    No square root is needed for a point: for f = x^3 + a x + b != 0,
    (f x, f^2) lies on y^2 = x^3 + a f^2 x + b f^3, which is the curve
    itself when f is a square mod p and its quadratic twist otherwise.
    The orders found on each side are kept as an lcm, and a_p is the one
    trace in the Hasse interval that both lcms divide into.

    Draw d tries the x that `_batch_x` gives it, as on the arrays.  `done`
    holds the (side, step) of the draws the arrays already made, in
    order; they are folded first, and the search goes on from draw
    len(done) on Python ints (`_scalar_draw`)."""
    T = isqrt(4 * p)
    lcms = {1: 1, -1: 1}  # Legendre symbol of f -> lcm of the orders seen
    for d in range(_BSGS_DRAWS):
        drawn = done[d] if d < len(done) else _scalar_draw(a, b, p, d)
        if drawn is None:
            continue
        side, step = drawn
        lcms[side] = int_lcm(lcms[side], step)
        fits = _traces_fitting(p, T, lcms[1], lcms[-1])
        if len(fits) == 1:
            return fits[0]
        if not fits:
            raise ArithmeticError(f"no trace fits the point orders at p={p}")
    raise ArithmeticError(f"Shanks-Mestre left a_p open after {_BSGS_DRAWS} points at p={p}")


def _scalar_draw(a: int, b: int, p: int, d: int) -> Optional[tuple[int, int]]:
    """Draw d of `_shanks_mestre` on Python ints: (side, step) as
    `_batch_draw` gives them, or None when f = 0.  Any order is served,
    small ones included."""
    x = _batch_x(p, d)
    f = (x * x * x + a * x + b) % p
    if f == 0:
        return None
    ms = _hasse_multiples((f * x % p, f * f % p), a * f * f % p, p)
    # one multiple is the group order; several are spaced by the order of the point
    return 1 if pow(f, (p - 1) // 2, p) == 1 else -1, ms[0] if len(ms) == 1 else ms[1] - ms[0]


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
    return binary_power(P, k, lambda Q, R: _ec_add(Q, R, a, p), None)


# -- Shanks-Mestre for a chunk of primes on int64 arrays ----------------------
#
# Each row of an array is one prime p.  Every residue is below p < 2**31
# (the callers' prime checks run check_int64_modulus before any work), and
# every operand is reduced mod p before it enters a product, so no product
# of two residues, nor a product plus a few residues, reaches 2**63.

# _frobenius_traces runs at most this many primes at a time, so that its
# arrays stay bounded whatever the length of the list.  The largest are the
# baby table's x and y and the factors of its Z, (s + 1) x rows each in
# int64, with s = 45 near 10^6 and s <= 305 below 2**31.  Once the table is
# affine, its factors are freed and its x and y are copied to int32 tables,
# each int64 table freed before the next array is made; the giant steps'
# x and y (2g + 1 rows each, int32) and their Z factors (2g rows, int64)
# are arrays of their own, with 2g about s.  The pass that takes the
# second and third draws has at most 2 x 4096 rows.
_BATCH_ROWS = 4096
# points drawn per prime on the arrays before a row still open continues on
# Python ints
_BATCH_DRAWS = 3
# draw d takes x = (d + 1) * _X_STRIDE mod p, fixed per p, on either engine
_X_STRIDE = 2**61 - 1


def _batch_traces(curve: Curve, ps: list[int]) -> dict[int, int]:
    """{p: a_p} for at most _BATCH_ROWS primes, ascending; every p must be
    at least _MESTRE_FROM and already checked by the caller.

    The search of `_shanks_mestre`, run on the short model on int64 arrays,
    a row per prime.  Every row takes draw 0 (`_batch_draw`).  A row whose
    point has one multiple m of its order in the Hasse interval is settled
    on the arrays, a_p = p + 1 - m on the curve and m - p - 1 on the
    twist: the one a that `_traces_fitting` gives.  The rows draw 0 leaves
    open take draws 1 and 2 in one more pass, with a row per (prime, draw).
    Every row not settled on the arrays goes to `_shanks_mestre` with its
    draws up to its first bad one, which folds them and goes on from
    there; a bad draw (f = 0, or an order of at most 2s + 1) is made again
    on Python ints, which serve small orders and skip f = 0.  Raises
    ArithmeticError where `_shanks_mestre` does, and when a point's order
    has no multiple in the Hasse interval, which only broken arithmetic
    can give."""
    P = np.array(ps, dtype=np.int64)
    a, b = _residues(-27 * curve.c4, P), _residues(-54 * curve.c6, P)
    T = np.array([isqrt(4 * p) for p in ps], dtype=np.int64)
    side, step, bad = _batch_draw(a, b, P, T, np.zeros_like(P))
    # step is the one multiple m of the order in the Hasse interval, or the
    # spacing of several, at most 2T, which leaves |p + 1 - step| above T
    ap = side * (P + 1 - step)
    settled = ~bad & (np.abs(ap) <= T)
    traces = dict(zip(P[settled].tolist(), ap[settled].tolist()))
    open_rows = np.flatnonzero(~bad & ~settled)
    draws = [v[open_rows, None] for v in (side, step, bad)]
    rows = np.repeat(open_rows, _BATCH_DRAWS - 1)
    if len(rows):
        later = _batch_draw(a[rows], b[rows], P[rows], T[rows], np.tile(np.arange(1, _BATCH_DRAWS), len(open_rows)))
        draws = [np.concatenate((v, w.reshape(len(open_rows), -1)), axis=1) for v, w in zip(draws, later)]
    # each open row's draws up to its first bad one
    rows_done = zip(open_rows.tolist(), *(v.tolist() for v in draws))
    done = {r: list(zip(sides, steps))[: (bads + [True]).index(True)] for r, sides, steps, bads in rows_done}
    for r in np.flatnonzero(~settled).tolist():
        traces[ps[r]] = _shanks_mestre(int(a[r]), int(b[r]), ps[r], done.get(r, ()))
    return traces


def _residues(c: Fraction, p: np.ndarray) -> np.ndarray:
    """c mod p at each prime; a good prime never divides the denominator."""
    num, den = (
        np.remainder(v, p) if -(1 << 63) <= v < 1 << 63 else np.array([v % q for q in p.tolist()])
        for v in (c.numerator, c.denominator)
    )
    return num if c.denominator == 1 else num * _pow_mod(den, p - 2, p) % p


def _batch_x(p, draw):
    """The x-coordinate that draw `draw` tries at the prime p, row by row on
    arrays or for one p on Python ints: the one point rule of both
    engines."""
    return (draw + 1) * (_X_STRIDE % p) % p


def _batch_draw(a, b, p, T, draw):
    """One point per row on y^2 = x^3 + a x + b mod p, the row's draw, and
    what its order says of the group order, as (side, step, bad).

    side is the Legendre symbol of f, +1 for a point on the curve and -1
    for one on the twist.  step is the one multiple m of the order with
    |p + 1 - m| <= T when there is one, else the spacing of those multiples,
    which is the order; `_hasse_multiples` gives the same.  bad marks the
    rows this draw cannot serve: f = 0, or an order of at most 2s + 1.

    The baby table and then the giant steps, kept in a table of their own,
    are made affine by one Fermat power per prime each; a giant step
    matches a baby step when their x are equal, and the sign of y is read
    on those hits only."""
    x = _batch_x(p, draw)
    f = (x * x % p * x % p + a * x % p + b) % p
    bad = f == 0
    sides = np.where(_pow_mod(f, (p - 1) // 2, p) == 1, 1, -1)
    # (f x, f^2) lies on y^2 = x^3 + a f^2 x + b f^3
    px, py = f * x % p, f * f % p
    A = a * py % p
    one = np.ones_like(p)
    s = isqrt(int(T.max())) + 1
    w = 2 * s + 1
    # rows 0..s-1 hold [1]P..[s]P, row s holds [w]P = 2[s]P + P.  Each baby
    # step multiplies Z by one factor, 2Y for the doubling and H = x2 Z^2 - X
    # for an addition.  fac keeps those factors instead of Z, so Z of row j
    # is the product of fac[0..j], and 1/Z of row s - 1 gives 1/Z of every
    # earlier row by one product each, on the way back: Montgomery's
    # simultaneous inversion with the factors in place of a table of prefix
    # products.  One Fermat power per prime inverts Z of rows s - 1 and s at
    # once.  An addition that meets O or two equal points leaves the chain
    # only after a zero factor, so a row is bad exactly when some Z is 0.
    X, Y = (np.empty((s + 1, len(p)), dtype=np.int64) for _ in range(2))
    fac = np.empty((s, len(p)), dtype=np.int64)
    X[0], Y[0], fac[0] = px, py, one
    X[1], Y[1], z = _jac_double(px, py, one, A, p)
    fac[1] = z
    for j in range(2, s):
        fac[j] = (px * (z * z % p) - X[j - 1]) % p
        X[j], Y[j], z = _jac_add_affine(X[j - 1], Y[j - 1], z, px, py, A, p)
    X[s], Y[s], zw = _jac_add_affine(*_jac_double(X[s - 1], Y[s - 1], z, A, p), px, py, A, p)
    bad |= (fac == 0).any(axis=0) | (zw == 0)
    # the table made affine in place, (X, Y) -> (X / Z^2, Y / Z^3)
    both = _pow_mod(np.where(bad, 1, z * zw % p), p - 2, p)
    inv = both * z % p
    for j in range(s, -1, -1):
        inv2 = inv * inv % p
        X[j] = X[j] * inv2 % p
        Y[j] = Y[j] * (inv2 * inv % p) % p
        inv = both * zw % p if j == s else inv * fac[j] % p
    del fac
    # the orders n <= 2s + 1 that would spoil the search show as
    # [j]P = O or [w]P = O (Z = 0 above) and as y = 0 (n = 2j, where a match
    # would give only one of t = i w +- j); the other small orders give
    # several baby steps with one x, and a giant step then matches each
    # of them, each a true multiple
    bad |= (Y[:s] == 0).any(axis=0)
    # giant steps R_i = [p + 1 - i w]P for |i| <= g; R_i = +-[j]P puts
    # t = i w +- j in the list of traces, and R_i = O puts t = i w, which
    # covers every |t| <= T
    g = (int(T.max()) + s) // w
    gx, gy, gz = _jac_mul(p + 1 + g * w, X[:s], Y[:s], A, p)
    # every residue fits int32: the table is kept in int32, and each int64
    # table is freed before the next array is made
    minus_wx, minus_wy = X[s].copy(), (p - Y[s]) % p
    table_x = X[:s].astype(np.int32)
    del X
    table_y = Y[:s].astype(np.int32)
    del Y
    # the giant steps' x and y in int32, and their Z factors, H as for a
    # baby step, in int64.  A row that meets O leaves the chain: the step
    # to O (H = 0) takes factor 1, and the two after it, -W and 2(-W), come
    # from -W alone with Z = 1 and Z = 2y, so they are scaled by the Z the
    # chain had before O (kept in `last`) and take that Z as their factor.
    # The chain's last Z then inverts every step.
    gsx, gsy = (np.empty((2 * g + 1, len(p)), dtype=np.int32) for _ in range(2))
    gfac = np.empty((2 * g, len(p)), dtype=np.int64)
    last = np.ones_like(p)
    found_r, found_t = [], []
    for k in range(2 * g + 1):
        if k:
            h = (minus_wx * (gz * gz % p) - gx) % p
            nx, ny, nz = _jac_add_affine(gx, gy, gz, minus_wx, minus_wy, A, p)
            off = np.flatnonzero((gz == 0) | (h == 0))  # rows off the chain
            if len(off):
                po, zo = p[off], nz[off]
                c = np.where(gz[off] == 0, last[off], gz[off])
                last[off] = c
                h[off] = np.where(zo == 0, 1, zo)
                cc = c * c % po
                nx[off], ny[off], nz[off] = nx[off] * cc % po, ny[off] * (cc * c % po) % po, zo * c % po
            gfac[k - 1] = h
            gx, gy, gz = nx, ny, nz
        gsx[k], gsy[k] = gx, gy
        if not gz.all():
            # O matches no baby step: -1 marks it
            at_o = np.flatnonzero(gz == 0)
            gsx[k, at_o] = -1
            found_r.append(at_o)
            found_t.append(np.full(len(at_o), (k - g) * w))
    inv = _pow_mod(np.where(gz == 0, last, gz), p - 2, p)
    match = np.empty(table_x.shape, dtype=bool)
    for k in range(2 * g, -1, -1):
        inv2 = inv * inv % p
        gxk = gsx[k]
        # flat indices: np.nonzero on the 2-d mask costs several times as much
        js, rs = np.divmod(np.flatnonzero(np.equal(table_x, (gxk * inv2 % p).astype(np.int32), out=match)), len(p))
        keep = gxk[rs] >= 0
        js, rs = js[keep], rs[keep]
        pr = p[rs]
        up = gsy[k, rs] * (inv2[rs] * inv[rs] % pr) % pr == table_y[js, rs]
        found_r.append(rs)
        found_t.append((k - g) * w + np.where(up, js + 1, -js - 1))
        if k:
            inv = inv * gfac[k - 1] % p
    rs, ts = np.concatenate(found_r), np.concatenate(found_t)
    inside = np.abs(ts) <= T[rs]
    rs, ts = rs[inside], ts[inside]
    # each row's traces ascending, one row after another, behind a 0 that
    # rows with no trace point at
    order = np.lexsort((ts, rs))
    ts = np.concatenate(([0], ts[order]))
    hits = np.bincount(rs, minlength=len(p))
    end = np.cumsum(hits)
    if (~bad & (hits == 0)).any():
        raise ArithmeticError("a point has no multiple of its order in the Hasse interval")
    return sides, np.where(hits == 1, p + 1 - ts[end], ts[end] - ts[end - 1]), bad


def _jac_double(X, Y, Z, A, p):
    """2(X : Y : Z) on y^2 = x^3 + A x + B in Jacobian coordinates, row by
    row; O (Z = 0) stays O."""
    XX = X * X % p
    YY = Y * Y % p
    ZZ = Z * Z % p
    S = 4 * (X * YY % p) % p
    M = (3 * XX + A * (ZZ * ZZ % p)) % p
    X3 = (M * M - 2 * S) % p
    Y3 = (M * ((S - X3) % p) - 8 * (YY * YY % p)) % p
    return X3, Y3, 2 * (Y * Z % p) % p


def _jac_add_affine(X, Y, Z, x2, y2, A, p):
    """(X : Y : Z) + (x2, y2) in Jacobian coordinates, row by row.
    O + (x2, y2) is (x2 : y2 : 1), P + (-P) comes out as O (Z = 0) by
    itself, and the rows where the two points are equal (H = r = 0) are
    doubled instead; on a CM curve each inert prime meets that once in its
    giant steps, after R = O at t = 0."""
    ZZ = Z * Z % p
    H = (x2 * ZZ - X) % p
    r = (y2 * (ZZ * Z % p) - Y) % p
    HH = H * H % p
    HHH = H * HH % p
    V = X * HH % p
    X3 = (r * r - HHH - 2 * V) % p
    Y3 = (r * ((V - X3) % p) - Y * HHH) % p
    Z3 = Z * H % p
    same = np.flatnonzero(H == 0)
    if len(same):
        same = same[(r[same] == 0) & (Z[same] != 0)]
        X3[same], Y3[same], Z3[same] = _jac_double(x2[same], y2[same], 1, A[same], p[same])
    at_o = Z == 0
    if at_o.any():
        return np.where(at_o, x2, X3), np.where(at_o, y2, Y3), np.where(at_o, 1, Z3)
    return X3, Y3, Z3


def _jac_mul(k, table_x, table_y, A, p):
    """[k]P for k >= 1 per row in Jacobian coordinates, from the affine
    table_x[j - 1], table_y[j - 1] = [j]P (j = 1..s), by fixed windows of
    b bits with 2^b <= s: b doublings, then one addition of [digit]P."""
    b = len(table_x).bit_length() - 1
    cols = np.arange(len(p))
    X, Y, Z = np.ones_like(p), np.ones_like(p), np.zeros_like(p)
    for shift in range((int(k.max()).bit_length() - 1) // b * b, -1, -b):
        if Z.any():
            for _ in range(b):
                X, Y, Z = _jac_double(X, Y, Z, A, p)
        digit = (k >> shift) & ((1 << b) - 1)
        on = digit > 0
        if on.any():
            j = np.maximum(digit - 1, 0)
            X2, Y2, Z2 = _jac_add_affine(X, Y, Z, table_x[j, cols], table_y[j, cols], A, p)
            X, Y, Z = np.where(on, X2, X), np.where(on, Y2, Y), np.where(on, Z2, Z)
    return X, Y, Z


def _pow_mod(base, e, p):
    """base^e mod p, row by row, by square-and-multiply."""
    out = np.ones_like(base)
    for bit in range(int(e.max()).bit_length() - 1, -1, -1):
        out = out * out % p
        out = np.where((e >> bit) & 1 == 1, out * base % p, out)
    return out


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
    """[k]P by double-and-add; P is checked to lie on the curve for k != 0."""
    if k < 0:
        return scalar_mul(curve, -k, negate_point(curve, P, p), p)
    if k and not is_on_curve(curve, P, p):
        raise ValueError("operand not on the curve")
    return binary_power(P, k, lambda Q, R: add_points(curve, Q, R, p), None)


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
    -16: (0, 0, 0, -11, -14),
    -19: (0, 0, 1, -38, 90),
    -28: (0, 0, 0, -595, 5586),
    -43: (0, 0, 1, -860, 9707),
    -67: (0, 0, 1, -7370, 243528),
    -163: (0, 0, 1, -2174420, 1234136692),
}


def cm_model(D: int, u=1) -> Curve:
    """A rational model with CM by the order of discriminant D.

    D in {-3, -11, -12, -27} gives the one-parameter family in u; the
    other nine class-number-one discriminants return a fixed representative
    curve and take no u other than 1 (ValueError).  Every model has the j
    of CM_J_INVARIANTS[D], so cm_disc_for(cm_model(D)) == D.
    """
    u = _frac(u)
    if u == 0:
        raise ValueError("u must be nonzero")
    if D in _FIXED_CM_CURVES and u != 1:
        raise ValueError(f"the CM model of D = {D} is one curve and takes no u (got {u})")
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


class CatalogEntry(NamedTuple):
    name: str
    curve: Curve
    note: str


def _build_catalog() -> tuple[CatalogEntry, ...]:
    return (
        CatalogEntry("d4", cm_model(-4), "j = 1728, torsion C2"),
        CatalogEntry("d8", cm_model(-8), "j = 8000, torsion C2"),
        CatalogEntry("d7", cm_model(-7), "j = -3375, torsion C2"),
        CatalogEntry("d12", cm_model(-12), "j = 54000, torsion C6"),
        CatalogEntry("d19", cm_model(-19), "j = -96^3, trivial torsion"),
        CatalogEntry("d27", cm_model(-27), "j = -12288000, trivial torsion"),
        CatalogEntry("d3", cm_model(-3, 2), "j = 0, trivial torsion"),
        CatalogEntry("d11", cm_model(-11), "j = -2^15, trivial torsion"),
        CatalogEntry("noncm-e", Curve(0, 0, 0, -9, 12), "j = -5184, obstructed for 6 | k"),
        CatalogEntry("noncm-f", Curve(0, 0, 0, -60, 180), "j = -138240, obstructed for 6 | k"),
        CatalogEntry("k2-s3", Curve(0, 0, 0, 1, 1), "2-division field with group S3"),
        CatalogEntry("k2-c3", Curve(0, 0, 0, -3, 1), "2-division field with group C3"),
    )


CATALOG: tuple[CatalogEntry, ...] = _build_catalog()
CATALOG_BY_NAME: dict[str, CatalogEntry] = {e.name: e for e in CATALOG}


# the j-invariant of each class-number-one discriminant; its keys, in this
# order, are quadorder.CLASS_NUMBER_ONE_DISCS
CM_J_INVARIANTS = {
    -3: 0,
    -4: 1728,
    -7: -3375,
    -8: 8000,
    -11: -(2**15),
    -12: 54000,
    -16: 287496,
    -19: -(96**3),
    -27: -12288000,
    -28: 16581375,
    -43: -(960**3),
    -67: -(5280**3),
    -163: -(640320**3),
}


_CM_DISC_BY_J = {j: D for D, j in CM_J_INVARIANTS.items()}


def cm_disc_for(curve: Curve, disc: Optional[int] = None) -> Optional[int]:
    """The curve's CM discriminant: the class-number-one discriminant whose
    j-invariant is the curve's (None when j is none of the 13).  A `disc`
    from the user, such as the CLI's --D, is checked against it: ValueError
    unless it is a class-number-one discriminant with the curve's j."""
    D = _CM_DISC_BY_J.get(curve.j)
    if disc is not None and disc != D:
        if disc not in CM_J_INVARIANTS:
            raise ValueError(f"D = {disc} is not a class-number-one discriminant")
        raise ValueError(f"D = {disc} needs j = {CM_J_INVARIANTS[disc]}, but the curve has j = {curve.j}")
    return D


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
