"""Acceptance criteria, one test per criterion, each printing a PASS line.

Criteria 1-8 run the golden tables and the named suites that `lattes-lab
verify` runs, at the bounds given in each criterion's docstring, and pass
when the suites pass.  Criterion 9 (determinism) reruns every suite that
takes a worker count with 8 workers, and requires the same results, and the
same values from every map_primes call, as with 1 worker; the tables take
none, since none of them scans enough primes to fork.
Their prime ranges are mostly below map_primes' fork threshold, so the
8-worker runs lower it to FORK_ABOVE primes, and every call above it must
start a process pool with the chunks map_primes deals.  Results are
memoized per worker count, so nothing runs more than twice; the `verify
all` test replays them through the CLI.
"""

import contextlib
import hashlib
import inspect
from fractions import Fraction
from functools import partial, wraps
from unittest import mock

import pytest
from conftest import pool_chunks, spy_pools

from lattes_lab import cli, exceptionality, galois, suites
from lattes_lab.exceptionality import map_primes
from lattes_lab.suites import SUITES
from lattes_lab.tables import TABLE_IDS, check_all_tables

# the checks the criteria run, at the criteria's bounds: the golden tables
# and every named suite
CHECKS = {
    "tables": check_all_tables,
    "perm-equivalence": partial(suites.suite_perm_equivalence, pmax=200, kmax=10),
    "deuring": partial(suites.suite_deuring, pmax=10**4),
    "reciprocity": partial(suites.suite_reciprocity, seed=20240811, pairs=200, tower=1000),
    "d11": partial(suites.suite_d11, pmax=10**4),
    "noncm": partial(suites.suite_noncm, pmax=10**4),
    "torsion": partial(suites.suite_torsion_forward, pmax=1000, kmax=12),
    "density": partial(suites.suite_density, pmax=10**5, tolerance=Fraction(2, 100)),
    "lattes-oracle": partial(suites.suite_lattes_oracle, pmax=100, kmax=6, points=20, seed=20240811),
    "strategies": partial(suites.suite_strategies, count=50),
}

# the suites behind each criterion's PASS line
CRITERIA = {
    "2 criterion/bruteforce equivalence": ("perm-equivalence",),
    "3 Lattes/group-law oracle": ("lattes-oracle",),
    "4 Deuring/CM traces": ("deuring",),
    "5 reciprocity and point-count formula": ("reciprocity",),
    "6 obstructed families": ("d11", "noncm"),
    "7 densities": ("density",),
    "8 forward direction and strategies": ("torsion", "strategies"),
}

# sha256 of `lattes-lab verify all` stdout, at 1 and at 8 workers
VERIFY_ALL_SHA256 = "27002e2dec91364ba3f5a383968c60c95887ecb332cc4f0263755e6780aad5c8"

# map_primes' fork threshold in the runs with more than one worker
FORK_ABOVE = 4

_memo: dict = {}


def _takes_workers(fn) -> bool:
    return "workers" in inspect.signature(fn).parameters


def _run(name: str, workers: int = 1):
    """(result, pool values, pools, expected pools) of a check: its result
    with `workers` processes (1 for a check that takes no worker count),
    every value map_primes returned while it ran, in call order, the chunks
    handed to each process pool it started, and the chunks that map_primes
    deals to a pool for the same calls.  With more than one worker,
    map_primes forks above FORK_ABOVE primes."""
    fn = CHECKS[name]
    takes = _takes_workers(fn)
    workers = workers if takes else 1
    if (name, workers) not in _memo:
        pooled, expected = [], []

        def recording(fn, primes, workers=1):
            primes = list(primes)
            expected.append(pool_chunks(len(primes), workers))
            pooled.append(map_primes(fn, primes, workers))
            return pooled[-1]

        with contextlib.ExitStack() as stack:

            def patch(owner, attr, value):
                stack.enter_context(mock.patch.object(owner, attr, value))

            # galois imports map_primes by name, so both bindings are replaced
            patch(exceptionality, "map_primes", recording)
            patch(galois, "map_primes", recording)
            if workers > 1:
                patch(exceptionality, "_CHUNK_PRIMES", FORK_ABOVE)
            handed = spy_pools(patch)
            result = fn(workers=workers) if takes else fn()
        _memo[name, workers] = (result, pooled, handed, [n for n in expected if n])
    return _memo[name, workers]


def _report(name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _criterion(name: str, summary):
    """Pass when every suite of the criterion passes; the PASS line reports
    summary(*results), a failure the suites' failures."""
    results = [_run(suite)[0] for suite in CRITERIA[name]]
    ok = all(res.ok for res in results)
    _report(name, ok, summary(*results) if ok else "; ".join(f for res in results for f in res.failures))


def test_criterion_1_golden_tables():
    """All 16 registered reference tables regenerate exactly."""
    checks = _run("tables")[0]
    ok = all(c.ok for c in checks) and len(checks) == len(TABLE_IDS)
    _report("1 golden tables", ok, f"{sum(c.ok for c in checks)}/{len(checks)} tables exact")


def test_criterion_2_perm_equivalence():
    """Criterion verdict == brute-force verdict, catalog x (5..200) x (2..10)."""
    _criterion("2 criterion/bruteforce equivalence", lambda res: f"{res.lines[-1]}, zero disagreements")


def test_criterion_3_lattes_oracle():
    """x([k]P) = L_k(x(P)) on 20 random points per (curve, p<=100, k<=6),
    and L_6 = L_2 o L_3 = L_3 o L_2 symbolically."""
    _criterion("3 Lattes/group-law oracle", lambda res: "group-law oracle and compositions exact")


def test_criterion_4_deuring():
    """Inert => a_p = 0; otherwise 4p - a_p^2 = |D| s^2 with s >= 1; Hasse
    everywhere, for every CM catalog curve and good p <= 10^4, p not | D."""
    _criterion("4 Deuring/CM traces", lambda res: f"{len(res.lines)} CM curves consistent to 10^4")


def test_criterion_5_reciprocity():
    """200 cubic pairs, 200 sextic pairs, 10^3 tower checks, and the E_d
    point-count formula for all primary split primes of norm <= 500 and
    d in {1, 2, 3, 5, -432}."""
    _criterion("5 reciprocity and point-count formula", lambda res: "; ".join(res.lines[:2] + res.lines[-1:]))


def test_criterion_6_counterexamples():
    """Zero violations for the -11 obstruction and the non-CM families,
    u in {1,2,3}, pmax 10^4; torsion x never rational for k in {2,3,6} on
    the -11 curves."""
    _criterion(
        "6 obstructed families",
        lambda d11, noncm: f"{len(d11.lines) + len(noncm.lines)} obstruction scans to 10^4, zero violations",
    )


def test_criterion_7_density():
    """Empirical k=2 densities at 10^5 within 2/100 of 1/3 resp. 2/3; the
    enumerated C_2 density is exactly 1/3 and the C3-subgroup density 2/3;
    the -11 curve has k=6 density 0 to 10^4."""
    _criterion("7 densities", lambda res: "; ".join(res.lines))


def test_criterion_8_forward_direction():
    """Rational k-torsion x-coordinate => no permutation prime in [5, 10^3],
    for every catalog curve and k <= 12; and the first 50 strategy primes
    of each congruence row pass the gcd criterion."""
    _criterion(
        "8 forward direction and strategies",
        lambda torsion, strategies: f"{len(torsion.lines)} curves with zero torsion witnesses; "
        f"{len(strategies.lines)} strategy rows sound",
    )


def test_criterion_9_determinism():
    """Each suite that takes a worker count gives equal results, and every
    map_primes call equal values, with 1 and 8 workers;
    with 8, each call above FORK_ABOVE primes runs a process pool with the
    chunks map_primes deals."""
    names = [name for name, fn in CHECKS.items() if _takes_workers(fn)]
    mismatches = [name for name in names if _run(name, 1)[:2] != _run(name, 8)[:2]]
    # a check that reached no map_primes call, or no pool, would compare nothing
    unpooled = [name for name in names if not _run(name, 8)[1] or not _run(name, 8)[2]]
    misdealt = [name for name in names if _run(name, 8)[2] != _run(name, 8)[3]]
    ok = not mismatches and not unpooled and not misdealt
    pools = sum(len(_run(name, 8)[2]) for name in names)
    _report(
        "9 determinism",
        ok,
        f"{len(names)} checks and their pool values identical with 1 and 8 workers, {pools} pools"
        if ok
        else f"differ: {mismatches}; no pool: {unpooled}; pools not as dealt: {misdealt}",
    )


def test_every_suite_has_a_criterion():
    assert {suite for names in CRITERIA.values() for suite in names} == set(SUITES)
    assert all(CHECKS[name].func is fn for name, fn in SUITES.items())


@pytest.mark.parametrize("workers", [1, 8])
def test_verify_all_output_is_unchanged(workers, monkeypatch, capsys):
    # the CLI runs wrappers that return the criteria's memoized results
    # (wraps gives each wrapper its suite's signature, which run_suite reads)
    memoized = {
        name: wraps(fn)(lambda workers=1, name=name: _run(name, workers)[0]) for name, fn in SUITES.items()
    }
    monkeypatch.setattr(suites, "SUITES", memoized)
    assert cli.main(["verify", "all", "--workers", str(workers)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256
