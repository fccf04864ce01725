"""Univariate polynomials and rational maps over exact coefficient fields.

Two coefficient fields are supported: the rationals QQ and prime fields
GF(p).  Over both, a polynomial is stored in one form: a tuple of integer
coefficients, constant term first and with no trailing zeros (the zero
polynomial is the empty tuple), over one positive integer denominator.
Over QQ the pair is reduced, gcd(content, den) = 1, so equal polynomials
have equal pairs; over GF(p) the coefficients are residues in [0, p) and
den = 1.  Every ring operation runs on the integers and hands its result
to one normaliser, which over QQ cancels the content against the
denominator and over GF(p) divides by it and reduces mod p.  The field
elements a caller reads (coefficients, leading coefficient, values) are
Fractions over QQ and ints in [0, p) over GF(p).

A rational map is read in canonical form, numerator and denominator
coprime, so equal maps have equal representations and projective
evaluation is total: over QQ the pair is the content-1 integer pair
(integer coefficients with joint content 1 and a positive leading
denominator coefficient, each over denominator 1), which is also the
printed form and the model that reduction mod p reduces; over GF(p) the
denominator is monic.

Cancellation is eager everywhere except after reduction mod p.  There the
coefficient-wise reduced pair is kept and its gcd is taken only when the
result can depend on it: when num or den is read (degree, equality, hash,
composition, printing), or when an evaluation meets 0/0.  Evaluating the
uncancelled pair is exact otherwise: a common factor with no F_p-root
changes no affine value, and it raises both degrees equally, so the value
at infinity stays too.  At good p the reduced Lattes pair is already
coprime (phi_k and psi_k^2 share no root on a nonsingular curve;
Washington, Elliptic Curves, Lemma 3.5), so the brute-force check there
never runs the gcd.

The kernels work on whole ints or int64 rows: a long product is one
big-int product of the integer coefficients by Kronecker substitution,
over the product of the denominators; division is pseudo-division over Z
or elimination over GF(p), a long Euclid over GF(p) eliminates by slices
of int64 rows, and value tables are one Horner pass over all of F_p with
exponents folded below p.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd as int_gcd, lcm as int_lcm
from typing import Iterable, Optional, Sequence

import numpy as np

from .intmath import check_int64_modulus, is_prime


class _Infinity:
    """The point at infinity of the projective line."""

    __slots__ = ()

    def __repr__(self):
        return "inf"


INFINITY = _Infinity()


class RationalField:
    """The field of rational numbers, with Fraction elements."""

    p = None

    def coerce(self, v):
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int):
            return Fraction(v)
        raise TypeError(f"cannot coerce {v!r} into QQ")

    zero = Fraction(0)
    one = Fraction(1)

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class PrimeField:
    """GF(p) with int elements in [0, p); use GF(p) to obtain instances."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1

    def coerce(self, v):
        p = self.p
        if isinstance(v, int):
            return v % p
        if isinstance(v, Fraction):
            den = v.denominator % p
            if den == 0:
                raise ZeroDivisionError(f"denominator of {v} vanishes mod {p}")
            return v.numerator * pow(den, -1, p) % p
        raise TypeError(f"cannot coerce {v!r} into GF({p})")

    def __repr__(self):
        return f"GF({self.p})"


@functools.lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    return PrimeField(p)


class Poly:
    """Univariate polynomial over QQ or GF(p), constant term first.

    Stored as `ints`, a tuple of integer coefficients with no trailing
    zeros, over `den`, a positive integer: over QQ with gcd(content, den)
    = 1, over GF(p) as residues in [0, p) with den = 1.  `coeffs` and
    `leading` read field elements (Fractions over QQ).  Each operation
    computes integers and passes them, with their denominator, to
    `_normalize`, the only place where content is cancelled and residues
    are taken."""

    __slots__ = ("field", "ints", "den")

    def __init__(self, field, coeffs: Iterable = ()):
        cs = [field.coerce(c) for c in coeffs]
        den = int_lcm(*(c.denominator for c in cs))
        self._normalize(field, [c.numerator * (den // c.denominator) for c in cs], den)

    def _normalize(self, field, ints: Sequence[int], den: int):
        # store ints/den in the reduced form: over QQ divided by
        # gcd(content, den) with den made positive, over GF(p) multiplied by
        # den^-1 mod p; trailing zeros stripped
        p = field.p
        if p is None:
            g = int_gcd(den, *ints)
            if den < 0:
                g = -g
            ints = [c // g for c in ints] if g != 1 else list(ints)
            den //= g
        else:
            inv = pow(den, -1, p) if den != 1 else 1
            ints = [c * inv % p for c in ints] if inv != 1 else [c % p for c in ints]
            den = 1
        while ints and ints[-1] == 0:
            ints.pop()
        self.field, self.ints, self.den = field, tuple(ints), den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(field) -> "Poly":
        return _poly(field, [])

    @staticmethod
    def one(field) -> "Poly":
        return _poly(field, [1])

    @staticmethod
    def x(field) -> "Poly":
        return _poly(field, [0, 1])

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients as field elements, constant term first."""
        if self.field is QQ:
            return tuple(Fraction(c, self.den) for c in self.ints)
        return self.ints

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self.ints

    @property
    def leading(self):
        if not self.ints:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.ints[-1], self.den) if self.field is QQ else self.ints[-1]

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.field is other.field
            and self.ints == other.ints
            and self.den == other.den
        )

    def __hash__(self):
        return hash((id(self.field), self.ints, self.den))

    def __repr__(self):
        return f"Poly({self.field}, {format_poly(self)!r})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return self._add(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._add(other, -1)

    def _add(self, other: "Poly", sign: int) -> "Poly":
        # self + sign * other over the common denominator
        den = int_lcm(self.den, other.den)
        out = [c * (den // self.den) for c in self.ints] if self.den != den else list(self.ints)
        out += [0] * (len(other.ints) - len(out))
        m = sign * (den // other.den)
        for i, c in enumerate(other.ints):
            out[i] += m * c
        return _poly(self.field, out, den)

    def __neg__(self) -> "Poly":
        return _poly(self.field, [-c for c in self.ints], self.den)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self.scale(other)
        if not self.ints or not other.ints:
            return Poly.zero(self.field)
        return _poly(self.field, _int_mul(self.ints, other.ints), self.den * other.den)

    __rmul__ = __mul__

    def scale(self, c) -> "Poly":
        n, d = self.field.coerce(c).as_integer_ratio()
        return _poly(self.field, [n * a for a in self.ints], self.den * d)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one(self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        # s a = q b + r on the integer parts gives self = (q b.den / (s den)) other
        # + r / (s den), with den = self.den
        F = self.field
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if F is QQ:
            q, r, s = _int_pdivmod(self.ints, other.ints)
        else:
            (q, r), s = _fp_divmod(self.ints, other.ints, F.p), 1
        den = s * self.den
        return _poly(F, [c * other.den for c in q], den), _poly(F, r, den)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    # -- maps --------------------------------------------------------------

    def __call__(self, x):
        """Evaluate by Horner's rule on the integers: over QQ at x = u/v as
        sum_i ints[i] u^i v^(n-i) over den v^n, over GF(p) mod p."""
        F = self.field
        u, v = F.coerce(x).as_integer_ratio()
        acc = 0
        if F is QQ:
            vpow = 1
            for c in reversed(self.ints):
                acc = acc * u + c * vpow
                vpow *= v
            return Fraction(acc * v, self.den * vpow)
        p = F.p
        for c in reversed(self.ints):
            acc = (acc * u + c) % p
        return acc

    def derivative(self) -> "Poly":
        return _poly(self.field, [i * c for i, c in enumerate(self.ints)][1:], self.den)

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return _poly(self.field, self.ints, self.ints[-1])


def _poly(field, ints: Sequence[int], den: int = 1) -> Poly:
    # the Poly ints/den over field, normalized
    f = object.__new__(Poly)
    f._normalize(field, ints, den)
    return f


# below this many coefficients in the shorter factor, the schoolbook double
# loop beats packing (measured crossover 12-16 on 30- to 1000-bit inputs)
_KRONECKER_MIN = 16


def _int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    # the product of two nonempty integer coefficient lists; long factors by
    # Kronecker substitution: a(2^(8w)) * b(2^(8w)) as one big-int product,
    # each coefficient in w bytes plus the bias 2^(8w-1), where every input
    # and output coefficient is below 2^(8w-1) in absolute value
    n, m = len(a), len(b)
    if min(n, m) < _KRONECKER_MIN:
        out = [0] * (n + m - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return out
    bits = (max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
            + min(n, m).bit_length())
    w = bits // 8 + 1
    half = 1 << (8 * w - 1)
    slot = b"\0" * (w - 1) + b"\x80"  # half in one slot, little-endian

    def pack(cs):
        return (int.from_bytes(b"".join((c + half).to_bytes(w, "little") for c in cs), "little")
                - int.from_bytes(slot * len(cs), "little"))

    r = n + m - 1
    buf = (pack(a) * pack(b) + int.from_bytes(slot * r, "little")).to_bytes(r * w, "little")
    return [int.from_bytes(buf[i : i + w], "little") - half for i in range(0, r * w, w)]


def format_poly(f: Poly, var: str = "x") -> str:
    """Human-readable form, descending powers, e.g. 'x^4 - 16x'."""
    if f.is_zero:
        return "0"
    parts = []
    for i in range(f.degree, -1, -1):
        if not f.ints[i]:
            continue
        c = Fraction(f.ints[i], f.den)
        if i == 0:
            term = str(c)
        else:
            xpow = var if i == 1 else f"{var}^{i}"
            if c == 1:
                term = xpow
            elif c == -1:
                term = f"-{xpow}"
            elif "/" in str(c):
                term = f"({c}){xpow}"
            else:
                term = f"{c}{xpow}"
        parts.append(term)
    text = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            text += " - " + term[1:]
        else:
            text += " + " + term
    return text


# -- gcd machinery ----------------------------------------------------------


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd.  Over QQ a primitive remainder sequence on the integer
    coefficients avoids the coefficient blow-up of naive Fraction Euclid."""
    if f.field is not g.field:
        raise TypeError("gcd of polynomials over different fields")
    F = f.field
    if f.is_zero:
        return g.monic()
    if g.is_zero:
        return f.monic()
    if F is QQ:
        return _qq_gcd(f, g)
    a, _ = _fp_gcd(f.ints, g.ints, F.p)
    return _poly(F, a, a[-1])


# the divisor length from which _fp_gcd runs its Euclid steps on int64 rows
# (measured crossover 16-24 coefficients); shorter divisors stay on lists,
# where numpy's per-call overhead would dominate: the root test's psi_ell for
# ell <= 5 has at most 13 coefficients
_ROW_EUCLID_MIN = 24


def _fp_gcd(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    # Euclid over GF(p) on coefficient lists: (last nonzero remainder, [])
    if len(b) >= _ROW_EUCLID_MIN and p < 1 << 31:
        a, b = _fp_gcd_rows(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), p)
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    return a, b


def _fp_gcd_rows(a: np.ndarray, b: np.ndarray, p: int) -> tuple[list[int], list[int]]:
    # Euclid on int64 rows while the divisor is long: each elimination step
    # is one slice update, and q * b[j] < 2^62 for p < 2^31
    while len(b) >= _ROW_EUCLID_MIN:
        db = len(b) - 1
        inv = pow(int(b[-1]), -1, p)
        for i in range(len(a) - 1, db - 1, -1):
            c = int(a[i])
            if c:
                seg = a[i - db : i + 1]
                seg -= c * inv % p * b
                seg %= p
        nz = np.flatnonzero(a[:db])
        a, b = b, a[: nz[-1] + 1 if len(nz) else 0]
    return a.tolist(), b.tolist()


def _fp_divmod(a: Sequence[int], b: Sequence[int], p: int) -> tuple[list[int], list[int]]:
    # (quotient, remainder) of residue lists over GF(p); each step stores
    # its quotient coefficient in the slot of a it clears, so the quotient
    # costs Euclid nothing beyond the final slice
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            q = a[i] = c * inv % p
            for j in range(db):
                a[i - db + j] = (a[i - db + j] - q * b[j]) % p
    r = a[:db]
    while r and r[-1] == 0:
        r.pop()
    return a[db:], r


def _int_clear(*polys: Poly) -> list[list[int]]:
    """The integer coefficient lists of the polynomials over QQ put over one
    denominator, divided by their joint content and signed so that the last
    one, which must be nonzero, has a positive leading coefficient."""
    den = int_lcm(*(f.den for f in polys))
    ints = [[c * (den // f.den) for c in f.ints] for f in polys]
    content = int_gcd(*(c for cs in ints for c in cs))
    if ints[-1][-1] < 0:
        content = -content
    if content != 1:
        ints = [[c // content for c in cs] for cs in ints]
    return ints


def _int_pdivmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int], int]:
    # pseudo-division over Z: (q, r, s) with s a = q b + r, deg r < deg b and
    # s a nonzero integer.  A step scales by lead(b) / gcd(lead(b), c) for
    # the leading c only, so an exact division by a primitive b never
    # scales; as in _fp_divmod, the quotient fills the slots of a it clears
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    s = 1
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            g = int_gcd(c, lb)
            t = lb // g
            if t != 1:
                a = [x * t for x in a]
                s *= t
            q = a[i] = c // g
            for j in range(db):
                a[i - db + j] -= q * b[j]
    r = a[:db]
    while r and r[-1] == 0:
        r.pop()
    return a[db:], r, s


def _qq_gcd(f: Poly, g: Poly) -> Poly:
    a, b = f.ints, g.ints
    if len(a) < len(b):
        a, b = b, a
    while b:
        _, r, _ = _int_pdivmod(a, b)
        if r:
            content = int_gcd(*r)
            r = [c // content for c in r]
        a, b = b, r
    return _poly(QQ, a, a[-1])


_PROBE_PRIMES = (2147483647, 2147483629, 2147483587, 2147483563, 2147483549)


def _coprime_certificate(f: Sequence[int], g: Sequence[int]) -> bool:
    """True if a single good reduction certifies that the nonzero integer
    polynomials f and g are coprime over QQ.

    gcd degree can only grow under reduction (when the leading coefficients
    survive), so a coprime image certifies coprimality; an inconclusive
    probe returns False.
    """
    for p in _PROBE_PRIMES:
        if f[-1] % p and g[-1] % p:
            a, _ = _fp_gcd([c % p for c in f], [c % p for c in g], p)
            return len(a) == 1
    return False


# -- rational maps ----------------------------------------------------------


class RatMap:
    """A rational function num/den in canonical form: gcd(num, den) = 1,
    and over QQ the content-1 integer pair (integer coefficients, joint
    content 1, positive leading denominator coefficient), over GF(p) a
    monic den.  The canonical form makes equality tests and value tables
    reproducible and projective evaluation total.

    The constructor cancels at once.  A map made by reduce_mod_p keeps the
    reduced pair with its cancellation pending: num and den cancel on first
    read, and evaluation (eval_proj, value_table, is_bijection) uses the
    pair as it is, cancelling only if it meets 0/0 at a shared F_p-root."""

    __slots__ = ("_num", "_den", "_coprime")

    def __init__(self, num: Poly, den: Poly):
        if num.field is not den.field:
            raise TypeError("numerator and denominator over different fields")
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        self._num, self._den = _canonicalize(num, den)
        self._coprime = True

    def _cancel(self):
        if not self._coprime:
            self._num, self._den = _canonicalize(self._num, self._den)
            self._coprime = True

    @property
    def num(self) -> Poly:
        self._cancel()
        return self._num

    @property
    def den(self) -> Poly:
        self._cancel()
        return self._den

    @property
    def field(self):
        return self._num.field

    @property
    def degree(self) -> int:
        return max(self.num.degree, self.den.degree)

    def __eq__(self, other):
        return (
            isinstance(other, RatMap)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatMap({format_ratmap(self)})"

    def __call__(self, x):
        return self.eval_proj(x)

    def eval_proj(self, x):
        """Evaluate at a point of P^1: a field element or INFINITY."""
        F = self.field
        num, den = self._num, self._den
        if x is INFINITY:
            dn, dd = num.degree, den.degree
            if dn > dd:
                return INFINITY
            if dn < dd:
                return F.zero
            return F.coerce(Fraction(num.leading, den.leading))
        nv = num(x)
        dv = den(x)
        if dv == 0:
            if nv == 0:
                if self._coprime:
                    raise ArithmeticError("0/0 during projective evaluation: map not canonical")
                self._cancel()
                return self.eval_proj(x)
            return INFINITY
        return F.coerce(Fraction(nv, dv))

    def compose(self, inner: "RatMap") -> "RatMap":
        """self(inner(x)) as a canonical rational map."""
        F = self.field
        n, d = inner.num, inner.den
        deg = max(self.num.degree, self.den.degree)
        powers_n = [Poly.one(F)]
        powers_d = [Poly.one(F)]
        for _ in range(deg):
            powers_n.append(powers_n[-1] * n)
            powers_d.append(powers_d[-1] * d)
        num_out = Poly.zero(F)
        for i, c in enumerate(self.num.ints):
            if c:
                num_out = num_out + (powers_n[i] * powers_d[deg - i]).scale(c)
        den_out = Poly.zero(F)
        for i, c in enumerate(self.den.ints):
            if c:
                den_out = den_out + (powers_n[i] * powers_d[deg - i]).scale(c)
        return RatMap(num_out, den_out)

    def reduce_mod_p(self, p: int) -> "RatMap":
        """Reduce a map over QQ modulo p coefficient by coefficient.  Any
        common factor the reduction creates is cancelled when the image's
        num or den is first read, or when its evaluation meets 0/0.

        The canonical pair over QQ is the content-1 integer pair, so a map
        that is perfectly p-integral reduces without any rescaling.  A
        denominator that vanishes identically mod p (e.g. x/5 at p = 5) is
        an error.
        """
        if self.field is not QQ:
            raise TypeError("reduce_mod_p applies to maps over QQ")
        F = GF(p)
        num, den = (_poly(F, f.ints) for f in (self.num, self.den))
        if den.is_zero:
            raise ZeroDivisionError(f"denominator vanishes identically mod {p}")
        if num.is_zero:
            return RatMap(num, den)
        reduced = object.__new__(RatMap)
        reduced._num, reduced._den, reduced._coprime = num, den, False
        return reduced

    def is_bijection(self):
        """Whether the map permutes P^1(F_p), with a certificate.

        Returns (True, value_table) where value_table lists the image of
        0, 1, ..., p-1, INFINITY in order, or (False, (x1, x2)) with the
        first colliding pair in that scan order.
        """
        F = self.field
        if F is QQ:
            raise TypeError("bijection testing is over a prime field")
        table = self.value_table()
        seen = {}
        for i, v in enumerate(table):
            key = F.p if v is INFINITY else v
            if key in seen:
                x1 = seen[key] if seen[key] < F.p else INFINITY
                x2 = i if i < F.p else INFINITY
                return False, (x1, x2)
            seen[key] = i
        return True, table

    def value_table(self) -> list:
        """Images of 0, 1, ..., p-1, INFINITY under the map."""
        p = self.field.p
        check_int64_modulus(p)
        nv, dv = _horner_pair(self._num, self._den, p)
        if not self._coprime and np.any((nv == 0) & (dv == 0)):
            self._cancel()
            nv, dv = _horner_pair(self._num, self._den, p)
        poles = dv == 0
        vals = nv * _modinv_many(np.where(poles, 1, dv), p) % p
        out = [INFINITY if pole else v for v, pole in zip(vals.tolist(), poles.tolist())]
        out.append(self.eval_proj(INFINITY))
        return out


def _canonicalize(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    F = num.field
    if num.is_zero:
        return Poly.zero(F), Poly.one(F)
    if F is QQ:
        ni, di = _int_clear(num, den)
        if not _coprime_certificate(ni, di):
            g = poly_gcd(num, den)
            if g.degree > 0:
                ni, di = _int_clear(num // g, den // g)
        return _poly(QQ, ni), _poly(QQ, di)
    g = poly_gcd(num, den)
    if g.degree > 0:
        num = num // g
        den = den // g
    lead = den.ints[-1]
    return _poly(F, num.ints, lead), _poly(F, den.ints, lead)


def _horner_pair(num: Poly, den: Poly, p: int) -> np.ndarray:
    # num and den over GF(p) at x = 0..p-1, as the two rows of one Horner
    # pass; cs[j] holds the x^j coefficients, the shorter polynomial padded
    # with leading zeros
    cs = np.zeros((max(len(num.ints), len(den.ints)), 2), dtype=np.int64)
    cs[: len(num.ints), 0] = num.ints
    cs[: len(den.ints), 1] = den.ints
    return _horner_rows(cs, p)


def _horner_rows(cs: np.ndarray, p: int) -> np.ndarray:
    # row i: sum_j cs[j, i] x^j at x = 0..p-1, for int64 cs in [0, p) and
    # p < 2^31.  On F_p, x^j = x^((j-1) mod (p-1) + 1) for j >= 1, so
    # exponents from p on are folded below p first: at most p Horner steps.
    # The fold changes degrees: a value at infinity must not come from it.
    if len(cs) > p:
        folded = cs[:p].copy()
        for j in range(p, len(cs), p - 1):  # x^j..x^(j+p-2) are x^1..x^(p-1)
            block = cs[j : j + p - 1]
            folded[1 : 1 + len(block)] += block
        cs = folded % p
    xs = np.arange(p, dtype=np.int64)
    acc = np.empty((cs.shape[1], p), dtype=np.int64)
    acc[:] = cs[-1][:, None]
    for c in cs[-2::-1, :, None]:
        acc *= xs
        acc += c
        acc %= p
    return acc


def _modinv_many(vals: np.ndarray, p: int) -> np.ndarray:
    # elementwise vals**(p-2) mod p by square-and-multiply (p prime)
    result = np.ones_like(vals)
    base = vals % p
    e = p - 2
    while e:
        if e & 1:
            result = (result * base) % p
        base = (base * base) % p
        e >>= 1
    return result


def format_ratmap(f: RatMap, var: str = "x") -> str:
    """The canonical pair as '(num)/(den)' with descending powers, e.g.
    '(x^4 - 16x)/(4x^3 + 8)' over QQ; just 'num' when den is 1."""
    num, den = f.num, f.den
    if den == Poly.one(f.field):
        return format_poly(num, var)
    return f"({format_poly(num, var)})/({format_poly(den, var)})"


# -- rational roots ----------------------------------------------------------


def rational_roots(f: Poly) -> set[Fraction]:
    """All rational roots of a nonzero polynomial over QQ.

    Roots are found by Hensel-lifting the roots of a squarefree reduction
    modulo a well-chosen prime until candidates can be recovered exactly by
    rational reconstruction (denominators divide the leading coefficient,
    numerators are bounded by the Cauchy bound), then certified by exact
    evaluation.  This stays fast when the constant term is far too large
    to enumerate divisors, and when the leading coefficient is too large
    to try each denominator.
    """
    if f.field is not QQ:
        raise TypeError("rational_roots applies to polynomials over QQ")
    if f.is_zero:
        raise ValueError("rational_roots of the zero polynomial")
    roots: set[Fraction] = set()
    [cs] = _int_clear(f)
    # strip powers of x
    k = 0
    while cs[k] == 0:
        k += 1
    if k:
        roots.add(Fraction(0))
        cs = cs[k:]
    if len(cs) == 1:
        return roots
    lead = abs(cs[-1])
    # Cauchy bound on |root|
    bound = 1 + max(abs(c) for c in cs[:-1]) // abs(cs[-1]) + 1
    p = _squarefree_prime(cs)
    if p is None:
        # repeated factors over QQ: recurse on the squarefree part
        sq = _poly(QQ, cs)
        sq = sq // poly_gcd(sq, sq.derivative())
        return roots | rational_roots(sq)
    mod_roots = _roots_mod_p(cs, p)
    if not mod_roots:
        return roots
    # a root u/v in lowest terms has 0 < v <= lead and |u| <= lead*bound;
    # above 2*lead^2*bound the p-adic lift determines it uniquely
    num_bound = lead * bound
    target = 2 * lead * num_bound
    pe = p
    while pe <= target:
        pe *= p
    fprime = [i * c for i, c in enumerate(cs)][1:]
    for r in mod_roots:
        rl = _hensel_lift(cs, fprime, r, p, pe)
        cand = _rational_reconstruction(rl, pe, num_bound, lead)
        if cand is not None and _is_root(cs, cand):
            roots.add(cand)
    return roots


def _rational_reconstruction(r: int, m: int, num_bound: int, den_bound: int) -> Optional[Fraction]:
    """The u/v with |u| <= num_bound, 0 < v <= den_bound, gcd(u, v) = 1 and
    u = v*r (mod m), or None; unique when 2*num_bound*den_bound < m (von zur
    Gathen and Gerhard, Modern Computer Algebra, 5.26)."""
    r0, r1 = m, r % m
    t0, t1 = 0, 1
    while r1 > num_bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > den_bound or int_gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _is_root(cs: Sequence[int], x: Fraction) -> bool:
    # a root mod a prime q not dividing v rejects most candidates cheaply;
    # then v^n f(u/v) = sum c_i u^i v^(n-i) exactly, by Horner on ints
    u, v = x.numerator, x.denominator
    q = _PROBE_PRIMES[0]
    if v % q:
        xq, acc = u * pow(v, -1, q) % q, 0
        for c in reversed(cs):
            acc = (acc * xq + c) % q
        if acc:
            return False
    acc, vpow = 0, 1
    for c in reversed(cs):
        acc = acc * u + c * vpow
        vpow *= v
    return acc == 0


def _squarefree_prime(cs: Sequence[int], tries: int = 60) -> Optional[int]:
    p = 1009
    der = [i * c for i, c in enumerate(cs)][1:]
    for _ in range(tries):
        while not is_prime(p):
            p += 2
        if cs[-1] % p:
            a = [c % p for c in cs]
            b = [c % p for c in der]
            while b and b[-1] == 0:
                b.pop()
            if b:
                g, _ = _fp_gcd(a, b, p)
                if len(g) == 1:
                    return p
        p += 2
    return None


def _roots_mod_p(cs: Sequence[int], p: int) -> list[int]:
    # the x in 0..p-1 with f(x) = 0 mod p, from one Horner pass over all x
    red = np.array([[c % p] for c in cs], dtype=np.int64)
    return np.flatnonzero(_horner_rows(red, p)[0] == 0).tolist()


def _hensel_lift(cs: Sequence[int], der: Sequence[int], r: int, p: int, pe: int) -> int:
    modulus = p
    while modulus < pe:
        modulus = min(modulus * modulus, pe)
        fr = 0
        for c in reversed(cs):
            fr = (fr * r + c) % modulus
        dr = 0
        for c in reversed(der):
            dr = (dr * r + c) % modulus
        r = (r - fr * pow(dr, -1, modulus)) % modulus
    return r % pe
