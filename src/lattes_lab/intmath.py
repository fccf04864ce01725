"""Exact integer arithmetic: primality, Kronecker symbols, modular square
roots, and sieves, among them one walk over the primes in given residue
classes that both prime-selection routes read; and binary_power, the one
square-and-multiply behind every scalar power and multiple [k]P of the
package.

Everything works on plain Python integers and is deterministic: primality
uses a strong-pseudoprime witness set proven correct below 2**64, modular
square roots are tie-broken to the root in [0, p/2], and prime walks are
emitted in ascending order.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import chain, compress
from math import gcd, isqrt
from typing import Iterable, Iterator, Optional

import numpy as np

# Strong-pseudoprime witnesses proving correctness for all n < 3.317e24
# (covers the full 64-bit range).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_EXTRA_ROUNDS = 40

# Smaller proven witness sets: the first j primes decide every n below the
# bound (Pomerance, Selfridge and Wagstaff; Jaeschke).  Each bound is the
# least strong pseudoprime to all j bases, so the sets are tight.
_MR_TIERS = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _strong_probable_prime(n: int, a: int) -> bool:
    if a % n == 0:
        return True
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(r - 1):
        x = (x * x) % n
        if x == n - 1:
            return True
    return False


def _mr_witnesses(n: int) -> tuple[int, ...]:
    for bound, j in _MR_TIERS:
        if n < bound:
            return _MR_WITNESSES[:j]
    return _MR_WITNESSES


def is_prime(n: int) -> bool:
    """Primality of |n|.

    Deterministic for |n| < 2**64 (a proven witness set, smallest for the
    size of n); above that the test is probabilistic with 40 extra
    pseudorandom rounds seeded by n, so repeated calls agree.
    """
    n = abs(n)
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    for a in _mr_witnesses(n):
        if not _strong_probable_prime(n, a):
            return False
    if n >= 1 << 64:
        rng = random.Random(n)
        for _ in range(_MR_EXTRA_ROUNDS):
            if not _strong_probable_prime(n, rng.randrange(2, n - 1)):
                return False
    return True


def binary_power(x, n: int, op, one):
    """x combined with itself n >= 0 times under the associative op, by
    right-to-left square-and-multiply (Knuth, TAOCP vol. 2, 4.6.3): one
    for n = 0 with no call of op, else (n.bit_length() - 1) squarings and
    one op per set bit of n, and no squaring after the top bit.  A square
    is op(x, x) on one object, so op may take a cheaper path for a is b."""
    result = one
    while True:
        if n & 1:
            result = op(result, x)
        n >>= 1
        if not n:
            return result
        x = op(x, x)


def _jacobi(a: int, m: int) -> int:
    # m odd and positive
    a %= m
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if m % 8 in (3, 5):
                result = -result
        a, m = m, a
        if a % 4 == 3 and m % 4 == 3:
            result = -result
        a %= m
    return result if m == 1 else 0


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n), n != 0.

    For an odd prime n and gcd(a, n) = 1 this is the Legendre symbol.
    """
    if n == 0:
        raise ValueError("Kronecker symbol undefined for modulus 0")
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        # (a/2) per a mod 8
        two = 1 if a % 8 in (1, 7) else -1
        while n % 2 == 0:
            n //= 2
            result *= two
    return result * _jacobi(a, n) if n > 1 else result


def sqrt_mod(a: int, p: int) -> Optional[int]:
    """Square root of a modulo an odd prime p, or None for a non-residue.

    Returns the root in [0, p/2] so results are reproducible.
    """
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError("modulus must be an odd prime")
    return _sqrt_mod_prime(a, p)


def _sqrt_mod_prime(a: int, p: int) -> Optional[int]:
    """sqrt_mod for a modulus the caller knows to be an odd prime."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    else:
        # Tonelli-Shanks
        q = p - 1
        s = 0
        while q % 2 == 0:
            q //= 2
            s += 1
        z = 2
        while pow(z, (p - 1) // 2, p) != p - 1:
            z += 1
        m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
        while t != 1:
            i, t2 = 0, t
            while t2 != 1:
                t2 = (t2 * t2) % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            m, c = i, (b * b) % p
            t, r = (t * c) % p, (r * b) % p
    return min(r, p - r)


def _merge_classes(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    """The one class (r, lcm(m1, m2)) of the n with n = r1 (mod m1) and
    n = r2 (mod m2), by the Chinese remainder theorem; ArithmeticError when
    the two classes disagree mod gcd(m1, m2)."""
    g = gcd(m1, m2)
    if (r2 - r1) % g:
        raise ArithmeticError(f"{r1} mod {m1} and {r2} mod {m2} disagree mod {g}")
    # r1 + m1*t = r2 (mod m2)  =>  t = (r2-r1)/g * inv(m1/g) (mod m2/g)
    t = (r2 - r1) // g * pow(m1 // g, -1, m2 // g)
    m = m1 // g * m2
    return (r1 + m1 * t) % m, m


def primes_in_classes(period: int, residues: Iterable[int], limit: int) -> Iterator[int]:
    """The primes p <= limit with p % period in residues, ascending, lazily:
    a caller that stops early sieves only the windows it reached.

    A class sharing a factor with the period holds at most one prime, one
    dividing the period; the classes prime to it are read from each window
    of _prime_windows by one strided slice apiece, and when no such class
    is admitted no window is sieved."""
    admitted = {r % period for r in residues}
    coprime = [r for r in admitted if gcd(r, period) == 1]
    few = [q for q in prime_divisors(period) if q % period in admitted and q <= limit]
    if not coprime:
        yield from few
        return
    for lo, flags in _prime_windows(limit):
        hi = lo + len(flags)
        offsets = [(r - lo) % period for r in coprime]
        yield from sorted(
            chain(
                (q for q in few if lo <= q < hi),
                *(compress(range(lo + o, hi, period), flags[o::period]) for o in offsets),
            )
        )


def primes_upto(limit: int) -> list[int]:
    """All primes <= limit by sieve of Eratosthenes."""
    return primes_between(2, limit + 1)


def _sieve_segment(lo: int, hi: int) -> bytearray:
    """seg[i] = 1 exactly when lo + i is prime, for 2 <= lo + i < hi; the
    entries of 0 and 1 (lo = 0) are left to the caller."""
    seg = bytearray([1]) * (hi - lo)
    for q in primes_between(2, isqrt(hi - 1) + 1):
        start = max(q * q, -(-lo // q) * q) - lo
        seg[start::q] = bytes(len(range(start, hi - lo, q)))
    return seg


def primes_between(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p < hi, ascending, by a segmented sieve of
    Eratosthenes: memory is O(hi - lo + sqrt(hi)) whatever lo is.  The
    segment is read by numpy, the indices of its nonzero bytes plus lo, so
    no int is made for a composite."""
    lo = max(lo, 2)
    if hi <= lo:
        return []
    return (np.flatnonzero(np.frombuffer(_sieve_segment(lo, hi), np.uint8)) + lo).tolist()


# _non_primes and _prime_windows sieve in windows of at most this width, so
# a far member or a high limit costs more windows and no more memory
_SIEVE_WINDOW = 1 << 20


def _prime_windows(limit: int) -> Iterator[tuple[int, bytearray]]:
    """The sieve of [2, limit] in ascending windows (lo, flags), flags[i] = 1
    exactly when lo + i is prime: [2, 1024), then windows that double in
    width up to _SIEVE_WINDOW and stay at that width."""
    lo, hi = 2, 1024
    while lo <= limit:
        hi = min(hi, limit + 1)
        yield lo, _sieve_segment(lo, hi)
        lo, hi = hi, hi + min(hi, _SIEVE_WINDOW)


def _non_primes(ns: set[int]) -> set[int]:
    """The members of ns that are not prime, by one segmented sieve per
    window of width 2**20 that holds a member, from its least member to its
    largest."""
    ordered = sorted(ns)
    out = set(ns)
    i = 0
    while i < len(ordered):
        j = bisect_right(ordered, ordered[i] | (_SIEVE_WINDOW - 1))
        out.difference_update(primes_between(ordered[i], ordered[j - 1] + 1))
        i = j
    return out


def prime_flags(limit: int) -> bytearray:
    """A bytearray f of length limit + 1 with f[n] = 1 exactly when n is
    prime: one byte per integer, for walks that test many values <= limit."""
    if limit < 2:
        return bytearray(max(limit + 1, 0))
    flags = _sieve_segment(0, limit + 1)
    flags[0] = flags[1] = 0
    return flags


def squarefree_part_known(n: int) -> bool:
    """True if n is squarefree (trial division; intended for desk-scale n)."""
    return n != 0 and all(e == 1 for e in factorize(n).values())


# factorize trial-divides by d up to this bound, so its cost is bounded
_TRIAL_DIVISION_MAX = 10**6


def factorize(n: int) -> dict[int, int]:
    """The factorization {prime: exponent} of |n|, ascending, by trial
    division up to 10**6; factorize(1) == {}.  The cofactor left is a prime
    factor when it is below 10**12 (it has no factor up to its square root)
    or passes is_prime, and a prime power r^e when exact integer roots
    reach a prime r; any other is a ValueError, since splitting it would
    need a factoring algorithm this desk-scale package does not have."""
    n0 = n = abs(n)
    if n == 0:
        raise ValueError("0 has no prime factorization")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n and d <= _TRIAL_DIVISION_MAX:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        cofactor, e = n, 1
        while d * d <= n and not is_prime(n):
            root = _prime_power_root(n)
            if root is None:
                raise ValueError(
                    f"cannot factorize {n0}: its cofactor {cofactor} is composite with no prime factor up to {_TRIAL_DIVISION_MAX}"
                )
            n, e = root[0], e * root[1]
        out[n] = out.get(n, 0) + e
    return out


def _prime_power_root(n: int) -> Optional[tuple[int, int]]:
    """(r, e) with r^e = n for the least prime e that has one, or None, for
    an n with no prime factor up to _TRIAL_DIVISION_MAX: then r > 2^19, so
    e < log2(n) / 19 bounds the exponents tried."""
    for e in primes_between(2, n.bit_length() // 19 + 1):
        r = _integer_root(n, e)
        if r**e == n:
            return r, e
    return None


def _integer_root(n: int, e: int) -> int:
    """The floor of n^(1/e) for n >= 0 and e >= 1, exactly, by Newton's
    method on the integers from an upper bound, with no float."""
    if n < 2:
        return n
    r = 1 << -(-n.bit_length() // e)  # 2^ceil(bits/e) > n^(1/e)
    while True:
        s = ((e - 1) * r + n // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


def prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending."""
    return list(factorize(n))


# the numpy routes mod p hold residues in int64; for p below this limit a
# product of two residues plus one more residue stays below 2**63
INT64_MODULUS_LIMIT = 1 << 31


def check_int64_modulus(p: int) -> None:
    """Raise ValueError unless p < INT64_MODULUS_LIMIT = 2**31.  Callers
    run the check before allocating anything."""
    if p >= INT64_MODULUS_LIMIT:
        raise ValueError(f"p = {p} is too large for int64 arithmetic mod p (need p < 2**31)")
