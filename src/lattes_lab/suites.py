"""Named verification suites at their documented bounds.

Each suite runs a batch of cross-checks (criterion vs brute force, trace
constraints, reciprocity laws, obstruction scans, densities) and returns a
SuiteResult with one line per subcheck and the first counterexample when
something fails.  A suite takes no parameters: its bounds and seeds are
literals in its body, named in its docstring, and the acceptance criteria
document the same ones.  Its prime ranges run in one process: at these
bounds map_primes would fork only for suite_density's two scans to 10^5,
and a second process gains nothing there.  The CLI `verify` subcommand and
the acceptance tests both drive these.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .eisenstein import (
    cubic_reciprocity_check,
    e_primary_associate,
    ed_count_check,
    eis,
    lemma_ab_witness,
    primary_associate,
    sextic_reciprocity_check,
    symbol_tower_check,
    verify_lemma_ab,
)
from .elliptic import (
    CATALOG,
    CATALOG_BY_NAME,
    cm_disc_for,
    cm_model,
    eval_lattes_vs_group_law,
    lattes_map,
    torsion_x_rational,
)
from .exceptionality import (
    frobenius_scan,
    strategy_primes,
    verify_d11_obstruction,
    verify_noncm_counterexample,
)
from .galois import (
    Mat2Zm,
    SubgroupSpec,
    cm_density_full,
    cm_density_subgroup,
    empirical_density,
    k2_verdict,
)
from .intmath import primes_upto
from .quadorder import cm_trace_consistent, norm_solutions


@dataclass
class SuiteResult:
    name: str
    ok: bool = True
    lines: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def check(self, condition: bool, message: str):
        if not condition:
            self.ok = False
            self.failures.append(message)

    def log(self, message: str):
        self.lines.append(message)


def suite_perm_equivalence() -> SuiteResult:
    """Criterion verdict equals brute-force verdict for every catalog
    curve, every good prime 5 <= p <= 200, every k in 2..10."""
    res = SuiteResult("perm-equivalence")
    pmax, kmax = 200, 10
    total = 0
    for entry in CATALOG:
        curve = entry.curve
        good = curve.good_primes(pmax)
        traces = frobenius_scan(curve, good)
        for k in range(2, kmax + 1):
            L = lattes_map(curve, k)
            for p in good:
                Ap = (p + 1) ** 2 - traces[p] ** 2
                crit = gcd(Ap, k) == 1
                brute, _ = L.reduce_mod_p(p).is_bijection()
                total += 1
                res.check(
                    crit == brute,
                    f"{entry.name}: criterion {crit} != bruteforce {brute} at p={p}, k={k}",
                )
                if not res.ok:
                    return res
        res.log(f"{entry.name}: all k in 2..{kmax}, {len(good)} primes agree")
    res.log(f"total comparisons: {total}")
    return res


def suite_lattes_oracle() -> SuiteResult:
    """x([k]P) = L_k(x(P)) for 20 random points per catalog curve, p <= 100
    and k <= 6 (seed 20240811), plus the symbolic composition identities
    L_{mn} = L_m o L_n for mn <= 8."""
    res = SuiteResult("lattes-oracle")
    rng = random.Random(20240811)
    for entry in CATALOG:
        bad = eval_lattes_vs_group_law(entry.curve, 100, 6, 20, rng)
        res.check(bad is None, f"{entry.name}: group-law mismatch at {bad}")
        for m, n in ((2, 2), (2, 3), (3, 2), (2, 4), (4, 2)):
            lm, ln, lmn = (
                lattes_map(entry.curve, m),
                lattes_map(entry.curve, n),
                lattes_map(entry.curve, m * n),
            )
            res.check(
                lm.compose(ln) == lmn,
                f"{entry.name}: L_{m} o L_{n} != L_{m*n}",
            )
        res.log(f"{entry.name}: group-law oracle and compositions agree")
    return res


def suite_deuring() -> SuiteResult:
    """CM trace constraints for every CM catalog curve up to 10^4: inert
    primes give a_p = 0, split primes solve 4p - a_p^2 = |D| s^2, and the
    Hasse bound holds everywhere."""
    res = SuiteResult("deuring")
    for entry in CATALOG:
        curve = entry.curve
        D = cm_disc_for(curve)
        if D is None:
            continue
        good = [p for p in curve.good_primes(10**4) if p % abs(D) != 0]
        traces = frobenius_scan(curve, good)
        for p in good:
            ap = traces[p]
            res.check(ap * ap <= 4 * p, f"{entry.name}: Hasse fails at {p}")
            res.check(
                cm_trace_consistent(D, p, ap),
                f"{entry.name}: p={p}, a_p={ap} breaks the CM trace constraint",
            )
            if not res.ok:
                return res
        res.log(f"{entry.name} (D={D}): {len(good)} primes consistent")
    return res


def _primary_split_primes(norm_bound: int):
    out = []
    for p in primes_upto(norm_bound):
        if p % 3 == 1:
            a, b = norm_solutions(-3, p)[0]
            out.append(primary_associate(eis(a, b)))
    return out


def suite_reciprocity() -> SuiteResult:
    """Cubic law on 200 random primary pairs, sextic law on 200 random
    E-primary pairs (norms <= 10^4), the symbol tower on 1000 random
    inputs (seed 20240811), the hard-coded lemma witnesses, and the E_d
    point-count formula for norms <= 500."""
    res = SuiteResult("reciprocity")
    rng = random.Random(20240811)
    pairs, tower = 200, 1000
    split_primaries = _primary_split_primes(10000)
    inert_primaries = [eis(q) for q in primes_upto(99) if q % 3 == 2 and q != 2]
    pool = split_primaries + [z.conj() for z in split_primaries] + inert_primaries
    # cubic pairs
    done = 0
    while done < pairs:
        p1, p2 = rng.choice(pool), rng.choice(pool)
        if p1.norm() == p2.norm():
            continue
        res.check(cubic_reciprocity_check(p1, p2), f"cubic law fails for {p1}, {p2}")
        done += 1
    res.log(f"cubic reciprocity: {pairs} pairs hold")
    # sextic pairs
    epool = [e_primary_associate(z) for z in pool if z.norm() % 2]
    done = 0
    while done < pairs:
        p1, p2 = rng.choice(epool), rng.choice(epool)
        if p1.norm() == p2.norm():
            continue
        res.check(sextic_reciprocity_check(p1, p2), f"sextic law fails for {p1}, {p2}")
        done += 1
    res.log(f"sextic reciprocity: {pairs} pairs hold")
    # tower
    for _ in range(tower):
        pi = rng.choice(pool)
        alpha = eis(rng.randrange(-30, 31), rng.randrange(-30, 31))
        res.check(symbol_tower_check(alpha, pi), f"tower fails for {alpha} mod {pi}")
    res.log(f"symbol tower: {tower} random inputs hold")
    # the lemma witnesses the library uses
    for ell in (13, 19):
        ok, na, nb = verify_lemma_ab(ell, *lemma_ab_witness(ell), 20000)
        res.check(ok, f"lemma witness fails for ell={ell}")
        res.log(f"lemma witness ell={ell}: {na}+{nb} qualifying primes behave")
    # point-count formula
    cases = 0
    for pi in _primary_split_primes(500):
        for d in (1, 2, 3, 5, -432):
            if (6 * d) % pi.norm() == 0:
                continue
            res.check(ed_count_check(d, pi), f"point-count formula fails: d={d}, pi={pi}")
            cases += 1
    res.log(f"E_d point-count formula: {cases} cases hold")
    return res


def suite_d11() -> SuiteResult:
    """The 6 | k obstruction for curves with CM by discriminant -11:
    2 | A_p at inert primes and 3 | A_p at split primes up to 10^4, for
    u in 1..3."""
    res = SuiteResult("d11")
    for u in (1, 2, 3):
        curve = cm_model(-11, u)
        report = verify_d11_obstruction(curve, 10**4)
        res.check(
            report.ok, f"u={u}: violations at {report.violations[:5]}"
        )
        res.log(
            f"u={u}: {report.checked} primes checked, "
            f"{len(report.skipped)} excluded ({list(report.skipped)[:4]}...), 0 violations"
            if report.ok
            else f"u={u}: FAILED"
        )
        for k in (2, 3, 6):
            res.check(
                not torsion_x_rational(curve, k),
                f"u={u}: unexpected rational {k}-torsion x",
            )
    return res


def suite_noncm() -> SuiteResult:
    """The non-CM counterexample families E and F for u in 1..3: the cubic
    residue dichotomy forces gcd(A_p, 6) > 1 at every good prime up to
    10^4.  The torsion side is not a check of this suite:
    verify_noncm_counterexample raises ArithmeticError (the CLI exits 1)
    before its scan if a k-torsion x is rational for some k in {2, 3, 6}."""
    res = SuiteResult("noncm")
    for family in ("E", "F"):
        for u in (1, 2, 3):
            report = verify_noncm_counterexample(family, u, 10**4)
            res.check(report.ok, f"{family}, u={u}: violations {report.violations[:5]}")
            res.log(
                f"family {family}, u={u}: {report.checked} primes, 0 violations"
                if report.ok
                else f"family {family}, u={u}: FAILED"
            )
    return res


def suite_torsion_forward() -> SuiteResult:
    """The easy direction: for every catalog curve and k <= 12, a rational
    k-torsion x-coordinate leaves no permutation prime at all in [5, 1000]."""
    res = SuiteResult("torsion")
    pmax = 1000
    for entry in CATALOG:
        curve = entry.curve
        good = curve.good_primes(pmax)
        traces = frobenius_scan(curve, good)
        hit = []
        for k in range(2, 13):
            if not torsion_x_rational(curve, k):
                continue
            witnesses = [p for p in good if gcd((p + 1) ** 2 - traces[p] ** 2, k) == 1]
            res.check(
                not witnesses,
                f"{entry.name}, k={k}: witness primes {witnesses[:5]} despite torsion",
            )
            hit.append(k)
        res.log(f"{entry.name}: torsion k values {hit} have zero witnesses <= {pmax}")
    return res


def suite_strategies() -> SuiteResult:
    """Prime-selection soundness: the first 50 strategy primes pass the
    gcd criterion for the rows with rational congruence recipes."""
    res = SuiteResult("strategies")
    for D, k in ((-4, 3), (-4, 5), (-8, 3), (-7, 3), (-12, 5), (-11, 3), (-11, 9)):
        try:
            ps = strategy_primes(D, k, 50)
            res.log(f"D={D}, k={k}: first {len(ps)} primes sound, up to {ps[-1]}")
        except ArithmeticError as exc:
            res.check(False, f"D={D}, k={k}: {exc}")
    return res


def suite_density() -> SuiteResult:
    """Empirical k = 2 densities to 10^5 against the Galois predictions of
    k2_verdict, within 1/50 exactly, plus the exact enumerated densities of
    C_m and the k = 6 density 0 of the -11 curve to 10^4."""
    res = SuiteResult("density")
    for name in ("k2-s3", "k2-c3"):
        curve = CATALOG_BY_NAME[name].curve
        target = k2_verdict(curve)[2]
        d = empirical_density(curve, 2, 10**5)
        delta = abs(float(d) - float(target))
        res.check(
            abs(d - target) <= Fraction(1, 50),
            f"{name}: density {float(d):.4f} vs {target} off by {delta:.4f}",
        )
        res.log(f"{name}: empirical {float(d):.4f} vs predicted {target} (|diff| {delta:.4f})")
    res.check(cm_density_full(2) == Fraction(1, 3), "C_2 density in full GL_2(Z/2) != 1/3")
    rot = Mat2Zm(2, 0, 1, 1, 1)
    res.check(
        cm_density_subgroup(SubgroupSpec(2, (rot,))) == Fraction(2, 3),
        "C_2 density in the order-3 subgroup != 2/3",
    )
    res.log("exact densities: full GL_2(Z/2) gives 1/3, C3 subgroup gives 2/3")
    d11 = empirical_density(CATALOG_BY_NAME["d11"].curve, 6, 10**4)
    res.check(d11 == 0, f"obstructed family has nonzero density {d11}")
    res.log("d11 with k = 6: empirical density 0 to 10^4")
    return res


SUITES = {
    "perm-equivalence": suite_perm_equivalence,
    "deuring": suite_deuring,
    "reciprocity": suite_reciprocity,
    "d11": suite_d11,
    "noncm": suite_noncm,
    "torsion": suite_torsion_forward,
    "density": suite_density,
    "lattes-oracle": suite_lattes_oracle,
    "strategies": suite_strategies,
}


def run_suite(name: str) -> SuiteResult:
    if name == "all":
        combined = SuiteResult("all")
        for key, fn in SUITES.items():
            sub = fn()
            combined.lines.append(f"[{key}] {'ok' if sub.ok else 'FAILED'}")
            combined.lines.extend("  " + line for line in sub.lines)
            if not sub.ok:
                combined.ok = False
                combined.failures.extend(f"[{key}] {f}" for f in sub.failures)
        return combined
    fn = SUITES.get(name)
    if fn is None:
        raise KeyError(f"unknown suite {name!r}")
    return fn()
