"""The correctness gate: independent-route checks on workload outputs.

Each check returns True when the output is right.  They run after the timed
section of a sample; a failed check marks its op as failed.  The checks take
plain values (a_p, verdicts, CSV text) so that the benchmark's tests can feed
them wrong ones.
"""

from __future__ import annotations

import hashlib
import random
import re
from fractions import Fraction
from math import gcd

from lattes_lab import elliptic


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_ap(curve, p: int, ap: int, rng: random.Random, points: int = 2) -> bool:
    """a_p from the character sum against the group law: the Hasse bound
    holds and [p + 1 - a_p] sends random points to the identity."""
    if ap * ap > 4 * p:
        return False
    order = p + 1 - ap
    for _ in range(points):
        pt = elliptic.random_point(curve, p, rng)
        if elliptic.scalar_mul(curve, order, pt, p) is not None:
            return False
    return True


def check_verdict(curve, k: int, p: int, permutes: bool) -> bool:
    """A verdict against brute force on L_k mod p."""
    brute, _ = elliptic.lattes_map(curve, k).reduce_mod_p(p).is_bijection()
    return brute == permutes


_TERM = re.compile(r"(-?)(\d*)(x(?:\^(\d+))?)?")


def parse_poly(text: str) -> dict[int, int]:
    """{exponent: coefficient} of an integer polynomial as `map` prints it,
    e.g. 'x^4 - 16x + 3'; exponents must strictly descend."""
    coeffs: dict[int, int] = {}
    parts = re.split(r" ([+-]) ", text)
    for i in range(0, len(parts), 2):
        m = _TERM.fullmatch(parts[i])
        if not parts[i] or m is None or (i and m.group(1)) or not (m.group(2) or m.group(3)):
            raise ValueError(f"malformed term {parts[i]!r}")
        sign = -1 if m.group(1) or (i and parts[i - 1] == "-") else 1
        exp = 0 if m.group(3) is None else int(m.group(4) or 1)
        if coeffs and exp >= min(coeffs):
            raise ValueError(f"exponents do not descend in {text!r}")
        coeffs[exp] = sign * int(m.group(2) or 1)
    return coeffs


def parse_ratmap(text: str) -> tuple[dict[int, int], dict[int, int]]:
    """(numerator, denominator) of `map` output '(num)/(den)'."""
    m = re.fullmatch(r"\(([^()]*)\)/\(([^()]*)\)", text.strip())
    if m is None:
        raise ValueError(f"not a rational map: {text[:80]!r}")
    return parse_poly(m.group(1)), parse_poly(m.group(2))


def check_map(curve, k: int, text: str, p: int, rng: random.Random, points: int = 2) -> bool:
    """Printed L_k reduced mod p against the group law: num(x)/den(x) =
    x([k]P) at random P, and den(x) = 0 exactly when [k]P is the identity."""
    try:
        num, den = parse_ratmap(text)
    except ValueError:
        return False
    for _ in range(points):
        pt = elliptic.random_point(curve, p, rng)
        q = elliptic.scalar_mul(curve, k, pt, p)
        nv = sum(c * pow(pt[0], e, p) for e, c in num.items()) % p
        dv = sum(c * pow(pt[0], e, p) for e, c in den.items()) % p
        if q is None:
            if dv or not nv:
                return False
        elif not dv or nv != q[0] * dv % p:
            return False
    return True


def parse_scan_csv(text: str) -> list[tuple[int, int, int, bool]]:
    """(p, a_p, gcd, permutes) rows of `scan --format csv` output."""
    lines = text.splitlines()
    if not lines or lines[0] != "p,symbol,ap,gcd,permutes":
        raise ValueError("not scan CSV output")
    rows = []
    for line in lines[1:]:
        p, _, ap, g, verdict = line.split(",")
        rows.append((int(p), int(ap), int(g), verdict == "yes"))
    return rows


def check_scan_rows(rows, k: int, good: list[int]) -> bool:
    """The p column is exactly the good primes, and each gcd and verdict
    follows from its a_p."""
    if [r[0] for r in rows] != good:
        return False
    return all(g == gcd((p + 1) ** 2 - ap * ap, k) and perm == (g == 1) for p, ap, g, perm in rows)


def check_warm_scan(cold_rows, warm_rows) -> bool:
    """A scan answered from the cache has the p and a_p columns of the scan
    that filled it."""
    return [(r[0], r[1]) for r in cold_rows] == [(r[0], r[1]) for r in warm_rows]


def parse_density(text: str) -> Fraction:
    frac, _, rest = text.strip().partition(" ")
    value = Fraction(frac)
    if rest != f"({float(value):.6f})":
        raise ValueError(f"malformed density output {text!r}")
    return value


def check_density(text: str, expected: Fraction, tolerance: Fraction) -> bool:
    try:
        value = parse_density(text)
    except ValueError:
        return False
    return abs(value - expected) <= tolerance


def check_perm(verdicts: list[tuple[int, bool]], traces: dict[int, int], k: int, torsion: bool) -> bool:
    """Brute-force verdicts equal the gcd criterion on the same a_p, and a
    rational k-torsion x-coordinate leaves no permutation prime."""
    for p, brute in verdicts:
        ap = traces[p]
        if brute != (gcd((p + 1) ** 2 - ap * ap, k) == 1):
            return False
        if torsion and brute:
            return False
    return True
