"""Acceptance criteria, one test per criterion, each printing a PASS line.

Criteria 1-8 run the golden tables and the named suites that `lattes-lab
verify` runs, and pass when the suites pass.  Each suite takes no
parameters: it runs at the bounds given in its criterion's docstring.
Results are memoized, so nothing runs twice; the `verify all` test
replays them through the CLI.
Criterion 9 (determinism) aims at the commands that take a worker count,
`scan` and `density`: for every catalog curve their stdout, and every
value map_primes returns, must be the same with 1 and with 8 workers.
Their prime ranges are below map_primes' fork threshold, so the 8-worker
runs lower it to FORK_ABOVE primes, and every call above it must start a
process pool with the chunks map_primes deals.
"""

import contextlib
import functools
import hashlib
import inspect
import io
from unittest import mock

import pytest

from conftest import pool_chunks, spy_pools

from lattes_lab import cli, exceptionality, galois, suites
from lattes_lab.elliptic import CATALOG, format_curve
from lattes_lab.exceptionality import map_primes
from lattes_lab.suites import SUITES
from lattes_lab.tables import TABLE_IDS, check_all_tables

# the checks the criteria run: the golden tables and every named suite
CHECKS = {"tables": check_all_tables, **SUITES}

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

# sha256 of `lattes-lab verify all` stdout
VERIFY_ALL_SHA256 = "27002e2dec91364ba3f5a383968c60c95887ecb332cc4f0263755e6780aad5c8"

# map_primes' fork threshold in the runs with more than one worker
FORK_ABOVE = 4

# the commands of criterion 9, without the curve and --workers: scan's CSV,
# and a density at k = 10, whose factor 5 sends the primes that survive the
# root test at 2 to the a_p batch, so both routes run in the chunks
DETERMINISM_COMMANDS = (
    ("scan", "--k", "6", "--pmax", "1000", "--format", "csv"),
    ("density", "--k", "10", "--pmax", "1000"),
)


@functools.cache
def _run(name: str):
    return CHECKS[name]()


def _cli_run(argv: list[str], workers: int):
    """(stdout, pool values, pools, expected pools) of `lattes-lab argv
    --workers workers`: its stdout, every value map_primes returned while
    it ran, in call order, the chunks handed to each process pool it
    started, and the chunks that map_primes deals to a pool for the same
    calls.  With more than one worker, map_primes forks above FORK_ABOVE
    primes."""
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
        out = stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        assert cli.main([*argv, "--workers", str(workers)]) == 0, argv
    return out.getvalue(), pooled, handed, [n for n in expected if n]


def _report(name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _criterion(name: str, summary):
    """Pass when every suite of the criterion passes; the PASS line reports
    summary(*results), a failure the suites' failures."""
    results = [_run(suite) for suite in CRITERIA[name]]
    ok = all(res.ok for res in results)
    _report(name, ok, summary(*results) if ok else "; ".join(f for res in results for f in res.failures))


def test_criterion_1_golden_tables():
    """All 16 registered reference tables regenerate exactly."""
    checks = _run("tables")
    ok = all(c.ok for c in checks) and len(checks) == len(TABLE_IDS)
    _report("1 golden tables", ok, f"{sum(c.ok for c in checks)}/{len(checks)} tables exact")


def test_criterion_2_perm_equivalence():
    """Criterion verdict == brute-force verdict, catalog x (5..200) x (2..10)."""
    _criterion("2 criterion/bruteforce equivalence", lambda res: f"{res.lines[-1]}, zero disagreements")


def test_criterion_3_lattes_oracle():
    """x([k]P) = L_k(x(P)) on 20 random points per (curve, p<=100, k<=6),
    seed 20240811, and L_6 = L_2 o L_3 = L_3 o L_2 symbolically."""
    _criterion("3 Lattes/group-law oracle", lambda res: "group-law oracle and compositions exact")


def test_criterion_4_deuring():
    """Inert => a_p = 0; otherwise 4p - a_p^2 = |D| s^2 with s >= 1; Hasse
    everywhere, for every CM catalog curve and good p <= 10^4, p not | D."""
    _criterion("4 Deuring/CM traces", lambda res: f"{len(res.lines)} CM curves consistent to 10^4")


def test_criterion_5_reciprocity():
    """200 cubic pairs, 200 sextic pairs, 10^3 tower checks (seed
    20240811), and the E_d point-count formula for all primary split primes
    of norm <= 500 and d in {1, 2, 3, 5, -432}."""
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
    """Empirical k=2 densities at 10^5 within 1/50 of 1/3 resp. 2/3; the
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
    """`scan --format csv` and `density` give the same stdout, and every
    map_primes call the same values, with 1 and 8 workers, for every
    catalog curve; with 8, each call above FORK_ABOVE primes runs a process
    pool with the chunks map_primes deals."""
    mismatches, unpooled, misdealt, pools = [], [], [], 0
    for entry in CATALOG:
        for command, *flags in DETERMINISM_COMMANDS:
            argv = [command, format_curve(entry.curve), *flags]
            one = _cli_run(argv, 1)
            eight = _cli_run(argv, 8)
            run = f"{command} {entry.name}"
            if one[:2] != eight[:2]:
                mismatches.append(run)
            # a run that reached no map_primes call, or no pool, would compare nothing
            if not eight[1] or not eight[2]:
                unpooled.append(run)
            if eight[2] != eight[3]:
                misdealt.append(run)
            pools += len(eight[2])
    ok = not mismatches and not unpooled and not misdealt
    runs = len(CATALOG) * len(DETERMINISM_COMMANDS)
    _report(
        "9 determinism",
        ok,
        f"{runs} scan and density runs and their pool values identical with 1 and 8 workers, {pools} pools"
        if ok
        else f"differ: {mismatches}; no pool: {unpooled}; pools not as dealt: {misdealt}",
    )


def test_every_suite_has_a_criterion():
    assert {suite for names in CRITERIA.values() for suite in names} == set(SUITES)


def test_every_suite_runs_at_its_documented_bounds():
    # no suite takes a size, seed or worker count: the bounds its criterion
    # documents are the only ones it runs at
    assert {name: list(inspect.signature(fn).parameters) for name, fn in SUITES.items()} == dict.fromkeys(SUITES, [])


@pytest.mark.parametrize("workers", [1, 8])
def test_verify_all_output_is_unchanged(workers, monkeypatch, capsys):
    # the CLI runs wrappers that return the criteria's memoized results
    memoized = {name: functools.partial(_run, name) for name in SUITES}
    monkeypatch.setattr(suites, "SUITES", memoized)
    # verify runs each suite at its documented bounds: a worker count it once
    # took is a usage error, and the output is the one it printed at either
    with pytest.raises(SystemExit) as refused:
        cli.main(["verify", "all", "--workers", str(workers)])
    assert refused.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: --workers {workers}" in err
    assert cli.main(["verify", "all"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256
