"""Arithmetic in imaginary quadratic orders of class number one.

An order of discriminant D < 0 is handled on the basis {1, w} where

* D = 0 (mod 4):  w = sqrt(D/4),          so w^2 = D/4,
* D = -3:         w = (-1 + sqrt(-3))/2,  a primitive cube root of unity,
* other D = 1 (mod 4):  w = (1 + sqrt(D))/2.

The cube-root convention for D = -3 is what makes the Eisenstein symbol
machinery read naturally (elements like -1+3w have norm 13); the remaining
odd discriminants use the (1+sqrt(D))/2 generator, so for D = -11 the
element w itself has norm 3.  Norms come from the binary quadratic form
N(a + b*w) = a^2 + s*a*b + n*b^2 where s = w + wbar and n = w*wbar.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from itertools import islice
from math import isqrt, lcm
from typing import Iterable, Iterator, Optional

from .elliptic import CM_J_INVARIANTS, Curve, count_points
from .intmath import _sqrt_mod_prime, binary_power, is_prime, kronecker, primes_in_classes

CLASS_NUMBER_ONE_DISCS = tuple(CM_J_INVARIANTS)


@functools.lru_cache(maxsize=None)
def quad_order(D: int) -> "QuadOrder":
    return QuadOrder(D)


class QuadOrder:
    """An imaginary quadratic order of class number one; use quad_order(D)."""

    def __init__(self, D: int):
        if D not in CLASS_NUMBER_ONE_DISCS:
            raise ValueError(f"unsupported discriminant {D}")
        self.D = D
        if D % 4 == 0:
            self.s, self.n = 0, -D // 4
        elif D == -3:
            self.s, self.n = -1, 1
        else:
            self.s, self.n = 1, (1 - D) // 4

    def __repr__(self):
        return f"QuadOrder({self.D})"

    @property
    def omega(self) -> "QuadInt":
        return QuadInt(self, 0, 1)

    def element(self, a: int, b: int = 0) -> "QuadInt":
        return QuadInt(self, a, b)

    def units(self) -> list["QuadInt"]:
        one = self.element(1)
        if self.D == -3:
            w = self.omega
            w2 = w * w
            return [one, -one, w, -w, w2, -w2]
        if self.D == -4:
            i = self.omega
            return [one, -one, i, -i]
        return [one, -one]


@dataclass(frozen=True)
class QuadInt:
    """a + b*w in a fixed imaginary quadratic order."""

    order: QuadOrder
    a: int
    b: int

    def __add__(self, other: "QuadInt") -> "QuadInt":
        self._check(other)
        return QuadInt(self.order, self.a + other.a, self.b + other.b)

    def __sub__(self, other: "QuadInt") -> "QuadInt":
        self._check(other)
        return QuadInt(self.order, self.a - other.a, self.b - other.b)

    def __neg__(self) -> "QuadInt":
        return QuadInt(self.order, -self.a, -self.b)

    def __mul__(self, other: "QuadInt") -> "QuadInt":
        self._check(other)
        s, n = self.order.s, self.order.n
        a, b, c, d = self.a, self.b, other.a, other.b
        return QuadInt(self.order, a * c - n * b * d, a * d + b * c + s * b * d)

    def __pow__(self, k: int) -> "QuadInt":
        if k < 0:
            raise ValueError("negative power in the order")
        return binary_power(self, k, QuadInt.__mul__, QuadInt(self.order, 1, 0))

    def conj(self) -> "QuadInt":
        return QuadInt(self.order, self.a + self.order.s * self.b, -self.b)

    def norm(self) -> int:
        s, n = self.order.s, self.order.n
        return self.a * self.a + s * self.a * self.b + n * self.b * self.b

    def trace(self) -> int:
        return 2 * self.a + self.order.s * self.b

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_unit(self) -> bool:
        return self.norm() == 1

    def _check(self, other: "QuadInt"):
        if self.order is not other.order:
            raise ValueError("mixed quadratic orders")

    def __repr__(self):
        return f"({format_quadint(self)} : D={self.order.D})"


def format_quadint(z: QuadInt) -> str:
    """Render as 'a+b*w' with minimal clutter, e.g. '47+11*w', '-1+3*w', '5'."""
    a, b = z.a, z.b
    if b == 0:
        return str(a)
    if b == 1:
        wpart = "w"
    elif b == -1:
        wpart = "-w"
    else:
        wpart = f"{b}*w"
    if a == 0:
        return wpart
    sign = "+" if not wpart.startswith("-") else ""
    return f"{a}{sign}{wpart}"


def _parse_wterm(t: str) -> int:
    # 'w', '-w', '3w', '-3*w', '+11w' -> the coefficient of w
    m = re.fullmatch(r"([+-]?)(\d*)\*?w", t)
    if not m:
        raise ValueError(f"cannot parse {t!r} as a w-term")
    sign, digits = m.groups()
    b = int(digits) if digits else 1
    return -b if sign == "-" else b


def parse_quadint(text: str, D: int) -> QuadInt:
    """Parse 'a+b*w' (also bare 'a', 'b*w', 'bw', 'w', '-w') in the order
    of discriminant D."""
    order = quad_order(D)
    t = text.replace(" ", "")
    if re.fullmatch(r"[+-]?\d+", t):
        return order.element(int(t))
    m = re.fullmatch(r"([+-]?\d+)([+-]\d*\*?w)", t)
    if m:
        return order.element(int(m.group(1)), _parse_wterm(m.group(2)))
    return order.element(0, _parse_wterm(t))


def congruent(alpha: QuadInt, beta: QuadInt, mu: QuadInt) -> bool:
    """Whether mu divides alpha - beta exactly in the order.

    Exact division: mu | z iff N(mu) divides both coordinates of z*conj(mu).
    """
    if mu.is_zero:
        raise ValueError("zero modulus")
    alpha._check(beta)
    alpha._check(mu)
    z = (alpha - beta) * mu.conj()
    nm = mu.norm()
    return z.a % nm == 0 and z.b % nm == 0


def splitting_type(D: int, p: int) -> str:
    """'split', 'inert' or 'ramified' per the Kronecker symbol (D/p)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    k = kronecker(D, p)
    return {1: "split", -1: "inert", 0: "ramified"}[k]


def _norm_solution_key(ab: tuple[int, int]) -> tuple:
    return (abs(ab[1]), abs(ab[0]), ab[0] < 0, ab[1] < 0)


def _split_prime_solutions(order: QuadOrder, p: int) -> list[tuple[int, int]]:
    """All (a, b) with N(a + b*w) = p, for an odd prime p with (D/p) = 1,
    in the order of norm_solutions.

    Cornacchia's algorithm for 4p = t^2 + |D| s^2 (Cohen, A Course in
    Computational Algebraic Number Theory, 1.5.3) gives one element z of
    norm p.  It generates a prime above p, which does not divide the
    conductor, and the order has class number one, so every element of
    norm p is u*z or u*conj(z) for a unit u.
    """
    D, s, n = order.D, order.s, order.n
    x = _sqrt_mod_prime(D, p)
    if (x - D) % 2:
        x = p - x
    r0, r1 = 2 * p, x
    limit = isqrt(4 * p)
    while r1 > limit:
        r0, r1 = r1, r0 % r1
    b2, rem = divmod(4 * p - r1 * r1, -D)
    b = isqrt(b2)
    if rem or b * b != b2:
        raise ArithmeticError(f"no element of norm {p} in the order of discriminant {D}")
    # 4 N(a + b*w) = (2a + s*b)^2 + |D| b^2, so 2a + s*b = t
    a = (r1 - s * b) // 2
    # the units are the powers of w for D = -3 and -4 (with -1), else +-1
    turns = {-3: 3, -4: 2}.get(D, 1)
    sols = []
    for x, y in ((a, b), (a + s * b, -b)):  # z and conj(z)
        for _ in range(turns):
            sols += [(x, y), (-x, -y)]
            x, y = -n * y, x + s * y  # times w
    return sorted(sols, key=_norm_solution_key)


def norm_solutions(D: int, m: int) -> list[tuple[int, int]]:
    """All (a, b) with N(a + b*w) = m, ordered by (|b|, |a|, a < 0, b < 0).

    An odd split prime m is solved by Cornacchia's algorithm; other m
    (2, ramified, inert or composite) by enumerating |b| <= sqrt(4m/|D|).
    """
    order = quad_order(D)
    if m > 2 and m % 2 and kronecker(D, m) == 1 and is_prime(m):
        return _split_prime_solutions(order, m)
    s = order.s
    sols = []
    absD = -D
    bmax = isqrt(4 * m // absD)
    for b in range(-bmax, bmax + 1):
        # a = (-s*b +- t)/2 with t^2 = 4m - |D| b^2
        t2 = 4 * m - absD * b * b
        if t2 < 0:
            continue
        t = isqrt(t2)
        if t * t != t2:
            continue
        for tt in {t, -t}:
            num = -s * b + tt
            if num % 2 == 0:
                a = num // 2
                if order.element(a, b).norm() == m:
                    sols.append((a, b))
    return sorted(set(sols), key=_norm_solution_key)


def prime_above(D: int, ell: int) -> QuadInt:
    """An element of norm ell when ell splits or ramifies, or ell itself
    when inert; ties are broken by minimal (|b|, |a|) with positive signs
    preferred, so outputs are reproducible."""
    if not is_prime(ell):
        raise ValueError(f"{ell} is not prime")
    order = quad_order(D)
    if splitting_type(D, ell) == "inert":
        return order.element(ell)
    sols = norm_solutions(D, ell)
    if not sols:
        # splits in the field but not represented by the (non-maximal) order
        raise ValueError(f"no element of norm {ell} in the order of discriminant {D}")
    a, b = sols[0]
    return order.element(a, b)


def cornacchia(D: int, p: int) -> Optional[tuple[int, int]]:
    """A solution (t, s) of 4p = t^2 + |D| s^2 with s >= 1, or None when p
    is inert, for D in CLASS_NUMBER_ONE_DISCS (another D raises
    quad_order's ValueError, whether p splits or not).  The solution with
    smallest s is returned: 4 N(a + b*w) = (2a + (w + wbar) b)^2 + |D| b^2,
    so s is the least |b| over norm_solutions(D, p).
    """
    quad_order(D)  # ValueError for a D outside CLASS_NUMBER_ONE_DISCS
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p % abs(D) == 0 or kronecker(D, p) == 0:
        raise ValueError(f"{p} ramifies in discriminant {D}")
    if kronecker(D, p) != 1:
        return None
    s = min(abs(b) for _, b in norm_solutions(D, p))
    return isqrt(4 * p + D * s * s), s


# the norm-class mask enumerates the ell^2 classes mod ell for each prime ell
# up to _MASK_ELL_MAX that a modulus divides, while the mask's period stays
# at most _MASK_PERIOD_MAX; at the CLI bounds (k <= 50) the period is at most
# 163 * 47 (k = 47), and the other moduli are left to the exact test
_MASK_ELL_MAX = 256
_MASK_PERIOD_MAX = 1 << 16


@functools.lru_cache(maxsize=None)
def _split_residues(D: int) -> bytes:
    """f[r] = 1 exactly when (D/p) = 1 for the primes p = r (mod |D|): the
    symbol (D/.) of a discriminant is periodic mod |D| (Cox, Primes of the
    Form x^2 + ny^2, section 1)."""
    return bytes(kronecker(D, r - D) == 1 for r in range(-D))


def _meets(a: int, b: int, tests, s: int, n: int) -> bool:
    # z = target (mod m) iff N(m) divides both coordinates of
    # (z - target)*conj(m) = z*conj(m) - target*conj(m)
    return all(
        (a * c - n * b * d - ta) % nm == 0 and (a * d + b * c + s * b * d - tb) % nm == 0
        for c, d, ta, tb, nm in tests
    )


def _norm_class_mask(order: QuadOrder, tests) -> tuple[int, bytes]:
    """(L, mask) such that every split prime that is N(z) for some z meeting
    the tests has mask[p % L] = 1.

    A modulus m divides a rational prime ell iff N(m) divides both
    coordinates of ell*conj(m); then z = target (mod m) depends only on z
    mod ell, and so does N(z) mod ell, so the ell^2 classes a + b*w mod ell
    give the exact set of norm residues mod ell.  The mask joins those sets
    with the split condition mod |D|.  An all-zero mask proves that no
    element meets the tests."""
    s, n = order.s, order.n
    by_ell: dict[int, list] = {}
    for test in tests:
        c, d, _, _, nm = test
        r = isqrt(nm)
        ell = r if r * r == nm else nm
        if ell <= _MASK_ELL_MAX and is_prime(ell) and ell * c % nm == 0 and ell * d % nm == 0:
            by_ell.setdefault(ell, []).append(test)
    period = -order.D
    classes = []
    for ell in sorted(by_ell):
        norms = {
            (a * a + s * a * b + n * b * b) % ell
            for a in range(ell)
            for b in range(ell)
            if _meets(a, b, by_ell[ell], s, n)
        }
        if not norms:
            return 1, bytes(1)
        joined = lcm(period, ell)
        if joined <= _MASK_PERIOD_MAX:
            period = joined
            classes.append((ell, norms))
    split = _split_residues(order.D)
    absD = -order.D
    mask = bytes(
        split[r % absD] and all(r % ell in norms for ell, norms in classes) for r in range(period)
    )
    return period, mask


def prime_elements(
    D: int,
    constraints: Iterable[tuple[QuadInt, QuadInt]],
    norm_bound: int,
) -> Iterator[QuadInt]:
    """The elements pi, ascending in norm, such that N(pi) is a split
    rational prime <= norm_bound and pi = target (mod modulus) for every
    (target, modulus) constraint.  Ties in norm are ordered as in
    norm_solutions.

    The constraints are checked at the call (ValueError).  The walk over
    the split primes is lazy: a caller that stops early sieves only the
    windows up to the norm of the last element it read.  Only the primes in
    the classes of the norm-class mask (_norm_class_mask) reach the norm
    equation and the exact test, read by intmath.primes_in_classes; a mask
    that admits no class prime to its period L leaves only primes dividing
    L, and no sieve runs.
    """
    order = quad_order(D)
    s, n = order.s, order.n
    tests = []
    for target, modulus in constraints:
        if modulus.is_zero:
            raise ValueError("zero modulus in constraint")
        if target.order is not order or modulus.order is not order:
            raise ValueError("mixed quadratic orders")
        mc = modulus.conj()
        tc = target * mc
        tests.append((mc.a, mc.b, tc.a, tc.b, modulus.norm()))
    period, mask = _norm_class_mask(order, tests)
    classes = [r for r in range(period) if mask[r]]

    def solve(p: int) -> Iterator[QuadInt]:
        sols = _split_prime_solutions(order, p) if p > 2 else norm_solutions(D, p)
        for a, b in sols:
            if _meets(a, b, tests, s, n):
                yield order.element(a, b)

    def walk() -> Iterator[QuadInt]:
        for p in primes_in_classes(period, classes, norm_bound):
            yield from solve(p)

    return walk()


def find_prime_element(
    D: int,
    constraints: Iterable[tuple[QuadInt, QuadInt]],
    norm_bound: int,
    count: int,
) -> list[QuadInt]:
    """The first `count` elements of prime_elements(D, constraints,
    norm_bound): the first `count` of the exhaustive list up to the bound,
    deterministic, and found without walking past the norm of the last."""
    return list(islice(prime_elements(D, constraints, norm_bound), count))


def deuring_consistency(curve: Curve, D: int, p: int) -> bool:
    """Check the CM trace constraint (cm_trace_consistent) on the trace of
    the curve at a prime p not dividing D."""
    if p % abs(D) == 0:
        raise ValueError(f"{p} divides the discriminant {D}")
    _, ap = count_points(curve, p)
    return cm_trace_consistent(D, p, ap)


def cm_trace_consistent(D: int, p: int, ap: int) -> bool:
    """The CM trace constraint of Deuring's theorem: an inert prime p
    forces a_p = 0 and any other 4p - a_p^2 = |D| s^2 for some s >= 1."""
    if splitting_type(D, p) == "inert":
        return ap == 0
    rem = 4 * p - ap * ap
    if rem % (-D) != 0:
        return False
    s2 = rem // (-D)
    return s2 >= 1 and isqrt(s2) ** 2 == s2
