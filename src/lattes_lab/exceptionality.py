"""The core pipeline: Frobenius trace records A_p(E), the gcd permutation
criterion next to the brute-force bijection test, table-style scans over
prime ranges, prime-selection strategies per CM discriminant, and the
verifiers for the two obstructed families (CM by discriminant -11 and the
non-CM families E and F) where the k-torsion criterion fails for 6 | k.

Scans partition their prime range across worker processes; records merge
ascending in p, so output never depends on the worker count.  An optional
flat-file cache ("curvehash,p,ap" lines) makes repeated scans cheap.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .eisenstein import lemma_ab_witness
from .elliptic import (
    CM_J_INVARIANTS,
    Curve,
    _frobenius_traces,
    cm_disc_for,
    cm_model,
    count_points,
    curve_hash,
    frobenius_trace,
    lattes_map,
    noncm_family,
    quadratic_twist,
    torsion_x_rational,
)
from .intmath import (
    INT64_MODULUS_LIMIT,
    _merge_classes,
    _non_primes,
    is_prime,
    kronecker,
    prime_divisors,
    primes_in_classes,
)
from .quadorder import congruent, prime_above, prime_elements, quad_order, splitting_type

# -- trace records -------------------------------------------------------------


@dataclass(frozen=True)
class TraceRecord:
    """Per-prime Frobenius data: A_p = (p+1)^2 - a_p^2."""

    p: int
    splitting: Optional[str]  # split/inert/ramified for CM curves, else None
    ap: int
    Ap: int


def trace_record(curve: Curve, p: int) -> TraceRecord:
    """The trace record at a good prime.  The splitting symbol is filled in
    when the curve has a CM discriminant (`cm_disc_for`, by j); for other
    curves it is left out rather than inferred."""
    disc = cm_disc_for(curve)
    ap = frobenius_trace(curve, p)
    splitting = None
    if disc is not None:
        splitting = splitting_type(disc, p)
    return TraceRecord(p, splitting, ap, (p + 1) ** 2 - ap * ap)


# map_primes forks only for more than this many primes, and then deals
# min(workers, ceil(n / _CHUNK_PRIMES)) chunks, so that each chunk is worth
# more than starting the pool and paying the a_p batch's fixed cost once
# more.  Measured on a 2-CPU Xeon VM (numpy 2.4): one process against two
# on the a_p batch of [0,0,0,1,1] broke even near 4000 primes below 10^5.
_CHUNK_PRIMES = 4096


def map_primes(fn: Callable[[list[int]], list], primes: Sequence[int], workers: int = 1) -> dict:
    """{p: value} for every p in `primes`, where fn(chunk) returns the
    values of a list of primes in order.

    `workers` is an upper bound: the primes are dealt round-robin into
    min(workers, ceil(n / _CHUNK_PRIMES)) chunks, so a list of at most
    _CHUNK_PRIMES primes runs in this process with no pool.  With several
    chunks, all but the first run in a process pool while this process
    runs the first, so fn must pickle (a module-level function or a
    partial of one).  Long chunks suit the a_p batch, whose fixed cost per
    call is spread over more primes.  Results are keyed by p, so the
    outcome is identical for any worker count."""
    primes = list(primes)
    nchunks = min(workers, -(-len(primes) // _CHUNK_PRIMES))
    if nchunks > 1:
        chunks = [primes[i::nchunks] for i in range(nchunks)]
        with ProcessPoolExecutor(max_workers=nchunks - 1) as pool:
            rest = pool.map(fn, chunks[1:])
            parts = [fn(chunks[0]), *rest]
    else:
        chunks, parts = [primes], [fn(primes)]
    out = {}
    for chunk, values in zip(chunks, parts):
        out.update(zip(chunk, values))
    return out


def frobenius_scan(
    curve: Curve,
    primes: Sequence[int],
    workers: int = 1,
    cache: Optional["TraceCache"] = None,
) -> dict[int, int]:
    """a_p for every prime in `primes` by the batch `_frobenius_traces`
    (the character sum below 230, Shanks-Mestre from there on), computed
    with up to `workers` processes.  Every p is checked here, cached or not,
    before any work, by `Curve._require_all_good`: one sieve pass behind
    the int64 guard (ValueError for p >= 2**31, p < 5, a composite p or
    bad reduction).
    Results are keyed by p, so the outcome is identical for any worker
    count and chunking."""
    primes = sorted(primes)
    curve._require_all_good(primes)
    out: dict[int, int] = {}
    todo = []
    for p in primes:
        if cache is not None and (hit := cache.get(curve, p)) is not None:
            out[p] = hit
        else:
            todo.append(p)
    if todo:
        out.update(map_primes(functools.partial(_frobenius_traces, curve), todo, workers))
        if cache is not None:
            for p in todo:
                cache.put(curve, p, out[p])
    return out


class TraceCache:
    """Flat-file a_p cache with human-inspectable lines 'curvehash,p,ap'.

    Loading checks every row: three integer fields, 5 <= p < 2**31 prime,
    a_p^2 <= 4p and no other a_p for the same curve hash and p on an
    earlier line, else ValueError naming the line.  Good reduction needs
    the curve, so `get` checks it.  `save` writes only when a `put` has
    changed the data since the load or the last save; it writes a temporary
    file in the same directory and renames it over the old one, so a reader
    never sees a half-written cache."""

    def __init__(self, path: str):
        self.path = path
        self._data: dict[tuple[str, int], int] = {}
        self._changed = False
        if os.path.exists(path):
            try:
                self._load(path)
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: not a UTF-8 text file ({exc})") from None

    def _load(self, path: str):
        data: dict[tuple[str, int], int] = {}
        first_line: dict[int, int] = {}  # p -> the first line that holds it
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    h, p, ap = line.split(",")
                    p, ap = int(p), int(ap)
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: expected 'curvehash,p,ap', got {line!r}"
                    ) from None
                if not 5 <= p < INT64_MODULUS_LIMIT:
                    raise ValueError(f"{path}:{lineno}: p = {p} is outside 5..2**31")
                if ap * ap > 4 * p:
                    raise ValueError(
                        f"{path}:{lineno}: a_p = {ap} breaks the Hasse bound at p = {p}"
                    )
                if (held := data.setdefault((h, p), ap)) != ap:
                    raise ValueError(
                        f"{path}:{lineno}: a_p = {ap} at p = {p} conflicts with "
                        f"a_p = {held} on an earlier line"
                    )
                first_line.setdefault(p, lineno)
        composite = _non_primes(set(first_line))
        if composite:
            p = min(composite, key=first_line.__getitem__)
            raise ValueError(f"{path}:{first_line[p]}: {p} is not prime")
        self._data = data

    def get(self, curve: Curve, p: int) -> Optional[int]:
        ap = self._data.get((curve_hash(curve), p))
        if ap is not None and curve._bad_modulus % p == 0:
            raise ValueError(
                f"{self.path}: cached a_p at {p}, a prime of bad reduction for {curve}"
            )
        return ap

    def put(self, curve: Curve, p: int, ap: int):
        key = (curve_hash(curve), p)
        if self._data.get(key) != ap:
            self._data[key] = ap
            self._changed = True

    def save(self):
        if not self._changed:
            return
        tmp = f"{self.path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w") as fh:
                fh.writelines(f"{h},{p},{ap}\n" for (h, p), ap in sorted(self._data.items()))
            os.replace(tmp, self.path)
            self._changed = False
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)


# -- permutation verdicts -------------------------------------------------------


@dataclass(frozen=True)
class PermutationVerdict:
    p: int
    k: int
    gcd_value: Optional[int]
    permutes: bool
    method: str


def permutes(curve: Curve, k: int, p: int, method: str = "criterion") -> PermutationVerdict:
    """Whether L_k permutes P^1(F_p), by the gcd criterion
    (gcd((p+1)^2 - a_p^2, k) = 1), by brute force over all p+1 points, or
    by both with mandatory agreement."""
    if method not in ("criterion", "bruteforce", "both"):
        raise ValueError(f"unknown method {method!r}")
    if k < 1:
        raise ValueError("k must be >= 1")
    g = verdict_c = verdict_b = None
    if method in ("criterion", "both"):
        rec = trace_record(curve, p)
        g = gcd(rec.Ap, k)
        verdict_c = g == 1
    if method in ("bruteforce", "both"):
        reduced = lattes_map(curve, k).reduce_mod_p(p)
        verdict_b, _ = reduced.is_bijection()
    if method == "both" and verdict_c != verdict_b:
        raise ArithmeticError(
            f"criterion ({verdict_c}) and brute force ({verdict_b}) disagree "
            f"at p={p}, k={k} on {curve}"
        )
    verdict = verdict_c if verdict_c is not None else verdict_b
    return PermutationVerdict(p, k, g, bool(verdict), method)


# -- scans ----------------------------------------------------------------------


class ScanRow(NamedTuple):
    """One scan row.  A named tuple, so `scan` builds a scan's rows in one
    map over its columns, and a row compares equal to the plain tuple
    (p, symbol, ap, gcd_value, permutes, note)."""

    p: int
    symbol: Optional[int]  # kronecker(D, p) for CM curves, else None
    ap: int
    gcd_value: int
    permutes: bool
    note: str = ""


def scan(
    curve: Curve,
    k: int,
    primes: Iterable[int],
    workers: int = 1,
    cache: Optional[TraceCache] = None,
) -> list[ScanRow]:
    """One row per good prime: (p, (D/p), a_p, gcd(A_p, k), verdict), D
    the curve's CM discriminant by `cm_disc_for` (no symbol without one).

    Verdicts come from the gcd criterion; rows with p | k are annotated.
    Primes of bad reduction are rejected outright (by frobenius_scan) -
    callers filter with Curve.good_primes so nothing is silently skipped.
    k < 1 is a ValueError before any a_p is computed.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    disc = cm_disc_for(curve)
    primes = sorted(primes)
    traces = frobenius_scan(curve, primes, workers=workers, cache=cache)
    aps = [traces[p] for p in primes]
    gcds = [gcd((p + 1) ** 2 - ap * ap, k) for p, ap in zip(primes, aps)]
    symbols = [None] * len(primes) if disc is None else [kronecker(disc, p) for p in primes]
    notes = ["p|k" if k % p == 0 else "" for p in primes]
    return list(map(ScanRow, primes, symbols, aps, gcds, [g == 1 for g in gcds], notes))


def render_scan_csv(rows: Sequence[ScanRow]) -> str:
    lines = ["p,symbol,ap,gcd,permutes"]
    lines += [
        f"{p},{'' if sym is None else format(sym, '+d')},{ap},{g},{'yes' if ok else 'no'}"
        for p, sym, ap, g, ok, _ in rows
    ]
    return "\n".join(lines) + "\n"


def render_scan_markdown(rows: Sequence[ScanRow], k: int, disc: Optional[int] = None) -> str:
    dcol = "(D/p)" if disc is None else f"({disc}/p)"
    head = f"| p | {dcol} | a_p | gcd(A_p,{k}) | permutes? |"
    sep = "|---|---|---|---|---|"
    lines = [head, sep]
    lines += [
        f"| {p} | {'' if sym is None else format(sym, '+d')} | {ap} | {g} | "
        f"{'Yes' if ok else 'No'}{f' ({note})' if note else ''} |"
        for p, sym, ap, g, ok, note in rows
    ]
    return "\n".join(lines) + "\n"


# -- prime-selection strategies --------------------------------------------------


@dataclass(frozen=True)
class StrategyRow:
    """One row of the per-discriminant prime-selection strategy table."""

    discs: tuple[int, ...]
    torsion: str
    condition: str
    recipe: str


STRATEGY_TABLE: tuple[StrategyRow, ...] = (
    StrategyRow((-4, -16), "C2, C2xC2, C4", "k odd", "p = 3 (mod 4), p = 1 (mod k)"),
    StrategyRow((-8,), "C2", "k odd", "p = 5 (mod 8), p = 1 (mod k)"),
    StrategyRow((-7, -28), "C2", "k odd", "p = 5 (mod 7), p = -2 (mod k)"),
    StrategyRow((-19, -43, -67, -163), "C1", "any k >= 2", "Chebotarev (splitting primes)"),
    StrategyRow((-12,), "C2, C6", "gcd(k,6) = 1", "p = 2 (mod 3), p = 1 (mod k)"),
    StrategyRow(
        (-27,),
        "C1, C3",
        "(i) gcd(k,6) = 1; (ii) gcd(k,6) = 2",
        "(i) p = 2 (mod 3), p = 1 (mod k); (ii) Chebotarev (splitting primes)",
    ),
    StrategyRow(
        (-3,),
        "C1, C2, C3, C6",
        "(i) gcd(k,6) = 1; (ii) gcd(k,6) = 2",
        "(i) p = 2 (mod 3), p = 1 (mod k); (ii) Chebotarev (splitting primes)",
    ),
    StrategyRow(
        (-11,),
        "C1",
        "(i) k odd, 3 | k; (ii) 3 does not divide k",
        "(i) p = 1 (mod 3), p = 1 (mod l_i), p = 2 (mod 11); (ii) Chebotarev (splitting primes)",
    ),
)


# the "k odd" rows of STRATEGY_TABLE: D -> (residue, modulus, class of p
# mod k) for p = residue (mod modulus), p = class (mod k)
_ODD_K_RECIPES = {
    -4: (3, 4, 1),
    -16: (3, 4, 1),
    -8: (5, 8, 1),
    -7: (5, 7, -2),
    -28: (5, 7, -2),
}


def _congruence_recipe(D: int, k: int) -> Optional[tuple[int, int]]:
    """The one class (r, m), p = r (mod m), of the rational primes the row
    for (D, k) takes, merged from the row's two congruences; None when the
    row calls for element (Chebotarev) search; raises for inadmissible k."""
    if D in _ODD_K_RECIPES:
        if k % 2 == 0:
            raise ValueError(f"D={D} requires odd k")
        residue, modulus, mod_k = _ODD_K_RECIPES[D]
        # the classes agree mod 7 for 7 | k on D = -7 and -28: -2 = 5 (mod 7)
        return _merge_classes(residue, modulus, mod_k, k)
    if D == -12:
        if gcd(k, 6) != 1:
            raise ValueError("D=-12 requires gcd(k, 6) = 1")
        return _merge_classes(2, 3, 1, k)
    if D in (-3, -27):
        if gcd(k, 6) == 1:
            return _merge_classes(2, 3, 1, k)
        if gcd(k, 6) == 2:
            return None
        raise ValueError(f"D={D} requires gcd(k, 6) in {{1, 2}}")
    if D in (-19, -43, -67, -163):
        if k < 2:
            raise ValueError("k must be >= 2")
        return None
    if D == -11:
        if k % 6 == 0:
            raise ValueError("D=-11 admits no strategy when 6 | k")
        if k % 3 == 0:  # k odd with 3 | k
            # p = 1 mod 3 and mod every other prime l | k but 11; p = 2 mod 11
            return _merge_classes(1, 3 * prod(set(prime_divisors(k)) - {3, 11}), 2, 11)
        return None
    raise ValueError(f"no strategy row for discriminant {D}")


def _element_constraints(D: int, k: int):
    """Congruence constraints on a splitting prime element, following the
    per-discriminant construction."""
    if D in (-3, -27):
        # gcd(k, 6) = 2 route, in the maximal order Z[w]
        zw = quad_order(-3)
        w = zw.omega
        constraints = [(w, zw.element(2)), (zw.element(1), zw.element(3))]
        for ell in prime_divisors(k):
            if ell == 2:
                continue
            alpha = w if ell == 7 else lemma_ab_witness(ell)[0]
            constraints.append((alpha, zw.element(ell)))
        return constraints
    # the discs with trivial torsion and units {+-1}; D = -11 (reached only
    # when 3 does not divide k) adds its 3 mod 11 constraint first
    order = quad_order(D)
    constraints = [(order.element(3), order.element(11))] if D == -11 else []
    for ell in prime_divisors(k):
        if D == -11 and ell == 11:
            continue
        lam = prime_above(D, ell)
        a = _non_unit_residue(D, lam)
        constraints.append((a, lam))
        if lam.b != 0:  # split: constrain the conjugate too
            constraints.append((a.conj(), lam.conj()))
    return constraints


def _non_unit_residue(D: int, lam):
    """The first small element invertible mod lam and not congruent to +-1."""
    order = quad_order(D)
    one = order.element(1)
    zero = order.element(0)
    for y in range(0, 3):
        for x in range(0, max(3, abs(lam.norm()))):
            cand = order.element(x, y)
            if cand.is_zero or congruent(cand, zero, lam):
                continue
            if not congruent(cand, one, lam) and not congruent(cand, -one, lam):
                return cand
    raise ArithmeticError(f"no non-unit residue found mod {lam}")


@functools.cache
def _check_curve(D: int) -> Curve:
    """The curve strategy_primes checks the rows of D on: cm_model(D), but
    y^2 = x^3 + 2 for D = -3.  The strategies constrain splitting data, and
    A_p sees only a_p^2, which a quadratic twist or an isogeny keeps; but
    y^2 = x^3 + 1 has a rational point of order 2, so its A_p is always
    even and every row with gcd(k, 6) = 2 would fail on it.  Built on first
    use, not at import, since a model costs about 0.1 ms."""
    return cm_model(D, 2 if D == -3 else 1)


# both routes walk the primes up to this bound, 2000 * 4**8 (the norm of a
# prime element on the element search), before they give up on a row
_STRATEGY_NORM_CAP = 131_072_000


def strategy_primes(D: int, k: int, count: int) -> list[int]:
    """The first `count` primes from the strategy row for (D, k); each one
    is checked to satisfy gcd(A_p, k) = 1 for the check curve of the
    discriminant (`_check_curve`), so an unsound recipe fails loudly."""
    if count < 1:
        raise ValueError("count must be >= 1")
    recipe = _congruence_recipe(D, k)
    curve = _check_curve(D)
    if recipe is not None:
        r, m = recipe
        stream = primes_in_classes(m, [r], _STRATEGY_NORM_CAP)
    else:
        search_D = -3 if D in (-3, -27) else D
        elements = prime_elements(search_D, _element_constraints(D, k), _STRATEGY_NORM_CAP)
        stream = (z.norm() for z in elements)
    primes: list[int] = []
    # one ascending walk, so a repeated norm is the last one kept
    for p in stream:
        if p < 5 or p in primes[-1:] or not curve.has_good_reduction(p):
            continue
        primes.append(p)
        if len(primes) == count:
            break
    else:
        raise ArithmeticError(f"strategy search exhausted for D={D}, k={k}")
    for p in primes:
        ap = frobenius_trace(curve, p)
        g = gcd((p + 1) ** 2 - ap * ap, k)
        if g != 1:
            raise ArithmeticError(f"strategy for D={D}, k={k} emitted p={p} with gcd {g}")
    return primes


# -- obstruction verifiers -------------------------------------------------------


def twist_product_check(curve: Curve, p: int, d: int) -> bool:
    """A_p(E) = |E(F_p)| * |E^d(F_p)| for a non-square twist class d."""
    if kronecker(d, p) != -1:
        raise ValueError(f"{d} is a square (or zero) mod {p}: not a twist direction")
    n1, ap = count_points(curve, p)
    n2, _ = count_points(quadratic_twist(curve, d), p)
    return (p + 1) ** 2 - ap * ap == n1 * n2


def is_cubic_residue(a: int, p: int) -> bool:
    """Whether a is a cube mod p (p prime, p not dividing a)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if a % p == 0:
        raise ValueError(f"{p} divides {a}")
    if p % 3 != 1:
        return True  # cubing is a bijection mod p
    return pow(a, (p - 1) // 3, p) == 1


@dataclass(frozen=True)
class ObstructionReport:
    curve: Curve
    pmax: int
    checked: int
    skipped: tuple[int, ...]  # bad/excluded primes in range, never silent
    violations: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _obstruction_report(
    curve: Curve, pmax: int, good: list[int], skipped: Iterable[int], divisor: Callable[[int], int]
) -> ObstructionReport:
    """The report of a scan of `good`: p is a violation when divisor(p), the
    factor the obstruction forces at p, does not divide A_p."""
    traces = frobenius_scan(curve, good)
    violations = tuple(p for p in good if ((p + 1) ** 2 - traces[p] ** 2) % divisor(p))
    return ObstructionReport(curve, pmax, len(good), tuple(sorted(skipped)), violations)


def verify_d11_obstruction(curve: Curve, pmax: int) -> ObstructionReport:
    """For every good prime 5 <= p <= pmax away from 11: inert primes must
    give 2 | A_p and split primes 3 | A_p, which forces gcd(A_p, k) > 1
    whenever 6 | k.  Reports any violation (expected: none); a curve
    without CM by -11 raises ValueError."""
    if cm_disc_for(curve) != -11:
        raise ValueError(f"{curve} has no CM by -11 (j = {curve.j}, not -32768)")
    good, bad = curve.primes_by_reduction(pmax)
    good = [p for p in good if p != 11]
    skipped = set(bad) | ({11} if 11 <= pmax else set())
    # every good p is split or inert: 11, the one ramified prime, is skipped
    return _obstruction_report(
        curve, pmax, good, skipped, lambda p: 2 if splitting_type(-11, p) == "inert" else 3
    )


def verify_noncm_counterexample(family: str, u: int, pmax: int) -> ObstructionReport:
    """For the non-CM families E (y^2 = x^3 - 9u^2 x + 12u^3, constant 3)
    and F (y^2 = x^3 - 60u^2 x + 180u^3, constant 10): at every good prime,
    2 | A_p when the constant is a cubic residue mod p and 3 | A_p when it
    is not.  Also checks that no k-torsion x-coordinate is rational for
    k in {2, 3, 6}."""
    curve = noncm_family(family, u)
    constant = 3 if family == "E" else 10
    for k in (2, 3, 6):
        if torsion_x_rational(curve, k):
            raise ArithmeticError(f"family {family}, u={u}: unexpected rational torsion x")
    good, bad = curve.primes_by_reduction(pmax)
    return _obstruction_report(
        curve, pmax, good, bad, lambda p: 2 if is_cubic_residue(constant, p) else 3
    )


# -- exceptionality reports -------------------------------------------------------

_OBSTRUCTED_J = {
    CM_J_INVARIANTS[-11]: "cm-disc-11",
    noncm_family("E", 1).j: "noncm-family-e",
    noncm_family("F", 1).j: "noncm-family-f",
}


# exceptionality_report's verdict is 'exceptional-evidence' from this many
# witness primes on
WITNESS_THRESHOLD = 5


@dataclass(frozen=True)
class ExceptionalityReport:
    curve: Curve
    k: int
    pmax: int
    torsion_x: frozenset
    witnesses: tuple[int, ...]
    obstruction: Optional[str]
    bad_primes: tuple[int, ...]
    good_count: int
    verdict: str

    @property
    def witness_density(self) -> Optional[Fraction]:
        if self.good_count == 0:
            return None
        return Fraction(len(self.witnesses), self.good_count)


def exceptionality_report(curve: Curve, k: int, pmax: int) -> ExceptionalityReport:
    """Desk-scale evidence for or against exceptionality of L_k.

    With a rational k-torsion x-coordinate the map provably never permutes
    for large p, so a single witness prime is a contradiction (raised as a
    bug).  Without one, the verdict is 'obstructed' for the known 6 | k
    families, 'exceptional-evidence' with at least WITNESS_THRESHOLD (5)
    witness primes, and 'inconclusive' otherwise.  pmax >= 2**31 is a
    ValueError before the sieve.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    torsion = torsion_x_rational(curve, k) if k >= 2 else set()
    good, bad = curve.primes_by_reduction(pmax)
    bad = tuple(bad)
    # galois imports map_primes from this module, so it is imported here
    from .galois import coprime_verdicts

    witnesses = tuple(p for p, ok in zip(good, coprime_verdicts(curve, k, good)) if ok)
    obstruction = None
    if k % 6 == 0:
        obstruction = _OBSTRUCTED_J.get(curve.j)
    if torsion:
        if witnesses:
            raise ArithmeticError(
                f"rational torsion x with witness primes {witnesses[:4]}: "
                "forward direction violated (bug)"
            )
        verdict = "not-exceptional"
    elif obstruction:
        if witnesses:
            raise ArithmeticError(f"obstructed family with witnesses {witnesses[:4]} (bug)")
        verdict = "obstructed"
    elif len(witnesses) >= WITNESS_THRESHOLD:
        verdict = "exceptional-evidence"
    else:
        verdict = "inconclusive"
    return ExceptionalityReport(
        curve=curve,
        k=k,
        pmax=pmax,
        torsion_x=frozenset(torsion),
        witnesses=witnesses,
        obstruction=obstruction,
        bad_primes=bad,
        good_count=len(good),
        verdict=verdict,
    )
