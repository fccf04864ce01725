import subprocess
import sys

import pytest

from lattes_lab import cli, elliptic, exceptionality
from lattes_lab.cli import COUNT_MAX, K_MAX, PMAX_MAX, WORKERS_MAX, main
from lattes_lab.elliptic import Curve
from lattes_lab.tables import TABLE_IDS, check_all_tables, check_table


def test_all_tables_regenerate():
    checks = check_all_tables()
    assert len(checks) == 16
    for c in checks:
        assert c.ok, (c.table_id, c.diffs)


def test_table_ids_cover_registry():
    assert set(TABLE_IDS) == {
        "d4-perm-k3", "d4-values-f7", "d8-values-f13", "d7-perm-k3",
        "d19-perm-k3", "d19-values-f5", "d12-values-f11", "d27-perm-k2",
        "d3-perm-k2", "d3-values-f7", "d11-perm-k6", "d11-values-f5-k6",
        "d11-values-f7-k6", "d11-perm-k7", "d11-values-f5-k7", "strategies",
    }


def test_check_table_unknown_id():
    with pytest.raises(KeyError):
        check_table("no-such-table")


def test_identity_and_collapse_rows():
    c = check_table("d12-values-f11")
    assert "| 0 | 1 | 2 | 3 | 4 | 5 | 6 | 7 | 8 | 9 | 10 | ∞ |" in c.rendered
    c = check_table("d11-values-f5-k6")
    assert "| 3 | 3 | 3 | ∞ | ∞ | ∞ |" in c.rendered


def run_cli(*args):
    # the exit status, also where argparse rejects the arguments
    try:
        return main(list(args))
    except SystemExit as exc:
        return exc.code


def test_cli_map(capsys):
    assert run_cli("map", "[0,0,0,0,2]", "--k", "2") == 0
    assert capsys.readouterr().out.strip() == "(x^4 - 16x)/(4x^3 + 8)"
    assert run_cli("map", "[0,0,0,5,7]", "--k", "1") == 0
    assert capsys.readouterr().out.strip() == "x"
    assert run_cli("map", "not-a-curve", "--k", "2") == 2


def test_cli_table(capsys):
    assert run_cli("table", "d11-values-f5-k6") == 0
    out = capsys.readouterr().out
    assert "MATCH" in out
    assert run_cli("table", "nope") == 2


def test_cli_scan_csv(capsys):
    assert run_cli("scan", "[0,0,0,-264,1694]", "--k", "6", "--pmax", "50", "--format", "csv") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "p,symbol,ap,gcd,permutes"
    assert out[1] == "5,+1,-3,3,no"
    assert out[2] == "7,-1,0,2,no"
    assert len(out) == 1 + 12  # good primes 5..47 excluding 11


def test_cli_scan_worker_and_cache_determinism(tmp_path, capsys):
    cache = str(tmp_path / "cache.txt")
    assert run_cli("scan", "[0,0,0,1,0]", "--k", "3", "--pmax", "400",
                   "--format", "csv", "--workers", "1", "--cache", cache) == 0
    cold = capsys.readouterr().out
    assert run_cli("scan", "[0,0,0,1,0]", "--k", "3", "--pmax", "400",
                   "--format", "csv", "--workers", "8", "--cache", cache) == 0
    warm = capsys.readouterr().out
    assert cold == warm
    assert run_cli("scan", "[0,0,0,1,0]", "--k", "3", "--pmax", "400", "--format", "csv") == 0
    nocache = capsys.readouterr().out
    assert cold == nocache


def test_cli_symbol(capsys):
    assert run_cli("symbol", "--D=-3", "--alpha", "5", "--modulus=-1+3*w", "--n", "6") == 0
    assert capsys.readouterr().out.strip() == "-1"
    assert run_cli("symbol", "--D=-3", "--alpha", "5*w", "--modulus=-1+3*w", "--n", "6") == 0
    assert capsys.readouterr().out.strip() == "-w^2"
    assert run_cli("symbol", "--D=-4", "--alpha", "5", "--modulus", "3", "--n", "2") == 2


def test_cli_torsion(capsys):
    assert run_cli("torsion", "[0,0,0,0,2]", "--k", "3") == 0
    assert capsys.readouterr().out.strip() == "-2, 0"
    assert run_cli("torsion", "[0,0,0,-264,1694]", "--k", "6") == 0
    assert capsys.readouterr().out.strip() == "(none)"


def test_cli_strategy(capsys):
    assert run_cli("strategy", "--D=-4", "--k", "3", "--count", "3") == 0
    assert capsys.readouterr().out.strip() == "7, 19, 31"


def test_cli_model_selection_by_D_and_u(capsys):
    assert run_cli("map", "--D=-11", "--k", "2") == 0
    assert capsys.readouterr().out.strip() == "(x^4 + 528x^2 - 13552x + 69696)/(4x^3 - 1056x + 6776)"
    assert run_cli("torsion", "--D=-12", "--u", "1", "--k", "6") == 0
    assert capsys.readouterr().out.strip() == "-1, 2, 3"
    assert run_cli("scan", "--D=-11", "--u", "2", "--k", "6", "--pmax", "20",
                   "--format", "csv") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].endswith(",no")
    assert run_cli("torsion", "--k", "2") == 2  # neither curve nor --D given


def test_cli_density(capsys):
    assert run_cli("density", "[0,0,0,-264,1694]", "--k", "6", "--pmax", "500") == 0
    assert capsys.readouterr().out.strip().startswith("0 ")


def test_cli_density_rejects_a_prime_beyond_int64(monkeypatch, capsys):
    # good_primes is stubbed so that no sieve runs up to 2^31
    monkeypatch.setattr(Curve, "good_primes", lambda self, pmax: [2147483659])
    assert run_cli("density", "[0,0,0,1,1]", "--k", "2", "--pmax", "100") == 2
    assert "2**31" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "[0,0,0,1,0]", "--k", "3", "--pmax", "50", "--workers", "0"],
        ["scan", "[0,0,0,1,0]", "--k", "3", "--pmax", "50", "--workers", "-3"],
        ["scan", "[0,0,0,1,0]", "--k", "3", "--pmax", "50", "--workers", str(WORKERS_MAX + 1)],
        ["scan", "[0,0,0,1,0]", "--k", "3", "--pmax", str(PMAX_MAX + 1)],
        ["scan", "[0,0,0,1,0]", "--k", "3", "--pmax", "4"],
        ["density", "[0,0,0,1,0]", "--k", "2", "--pmax", "500", "--workers", "0"],
        ["density", "[0,0,0,1,0]", "--k", "2", "--pmax", str(PMAX_MAX + 1)],
        ["verify", "d11", "--workers", str(WORKERS_MAX + 1)],
        ["table", "d4-perm-k3", "--workers", "0"],
        ["map", "[0,0,0,1,0]", "--k", str(K_MAX + 1)],
        ["map", "[0,0,0,1,0]", "--k", "0"],
        ["torsion", "[0,0,0,1,0]", "--k", str(K_MAX + 1)],
        ["torsion", "[0,0,0,1,0]", "--k", "1"],
        ["torsion", "--D=-11", "--k", str(10**6)],
        ["strategy", "--D=-11", "--k", "1"],
        ["strategy", "--D=-11", "--k", str(K_MAX + 1)],
        ["strategy", "--D=-11", "--k", "3000000048000000189"],
        ["strategy", "--D=-4", "--k", "3", "--count", "0"],
        ["strategy", "--D=-4", "--k", "3", "--count", str(COUNT_MAX + 1)],
        ["strategy", "--D=-4", "--k", "3", "--count", "100000000"],
    ],
)
def test_cli_rejects_unbounded_sizes_before_any_work(monkeypatch, capsys, argv):
    def reached(*args, **kwargs):
        raise AssertionError("a sieve, pool, suite or map ran before the bounds check")

    monkeypatch.setattr(exceptionality, "ProcessPoolExecutor", reached)
    monkeypatch.setattr(elliptic, "primes_upto", reached)
    monkeypatch.setattr(Curve, "good_primes", reached)
    monkeypatch.setattr(cli, "run_suite", reached)
    monkeypatch.setattr(cli, "check_table", reached)
    monkeypatch.setattr(cli, "lattes_map", reached)
    monkeypatch.setattr(cli, "torsion_x_rational", reached)
    monkeypatch.setattr(cli, "strategy_primes", reached)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    flag = argv[-2]
    assert f"argument {flag}: must be" in capsys.readouterr().err


def test_cli_table_rejects_an_unknown_id_before_any_work(monkeypatch, capsys):
    def reached(*args, **kwargs):
        raise AssertionError("a table was built for an unknown id")

    monkeypatch.setattr(cli, "check_table", reached)
    assert run_cli("table", "nope") == 2
    assert "argument table_id: invalid choice: 'nope'" in capsys.readouterr().err


def test_cli_bounds_admit_their_ends():
    # parsed only: no pool is started at the largest worker count
    parser = cli._build_parser()
    args = parser.parse_args(["scan", "[0,0,0,1,0]", "--k", "3", "--pmax", str(PMAX_MAX), "--workers", str(WORKERS_MAX)])
    assert (args.pmax, args.workers) == (PMAX_MAX, WORKERS_MAX)
    args = parser.parse_args(["verify", "d11", "--workers", "1"])
    assert args.workers == 1
    assert parser.parse_args(["map", "[0,0,0,1,0]", "--k", str(K_MAX)]).k == K_MAX
    assert parser.parse_args(["map", "[0,0,0,1,0]", "--k", "1"]).k == 1
    assert parser.parse_args(["torsion", "[0,0,0,1,0]", "--k", str(K_MAX)]).k == K_MAX
    assert parser.parse_args(["torsion", "[0,0,0,1,0]", "--k", "2"]).k == 2
    args = parser.parse_args(["strategy", "--D=-11", "--k", str(K_MAX), "--count", str(COUNT_MAX)])
    assert (args.k, args.count) == (K_MAX, COUNT_MAX)
    args = parser.parse_args(["strategy", "--D=-11", "--k", "2", "--count", "1"])
    assert (args.k, args.count) == (2, 1)


def test_cli_scan_sieves_once(monkeypatch, capsys):
    calls = []
    sieve = elliptic.primes_upto
    monkeypatch.setattr(elliptic, "primes_upto", lambda n: calls.append(n) or sieve(n))
    assert run_cli("scan", "[0,0,0,-264,1694]", "--k", "6", "--pmax", "50", "--format", "csv") == 0
    assert calls == [50]
    assert "excluded primes (bad reduction): [11]" in capsys.readouterr().err


def test_cli_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "lattes_lab.cli", "map", "[0,0,0,1,0]", "--k", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("(x^9 - 12x^7")


def test_cli_verify_tiny(capsys):
    # the full suites run in the acceptance tests; smoke one cheap suite here
    assert run_cli("verify", "d11") == 0
    out = capsys.readouterr().out
    assert "PASS" in out


def test_cli_verify_strategies(capsys):
    assert run_cli("verify", "strategies") == 0
    out = capsys.readouterr().out
    assert out.count("first 50 primes sound") == 7
    assert out.rstrip().endswith("suite strategies: PASS")


def test_run_suite_passes_workers_only_where_taken(monkeypatch):
    from lattes_lab import suites

    seen = {}

    def scans(pmax=10, workers=1):
        seen["scans"] = workers
        return suites.SuiteResult("scans")

    def fixed(seed=1):
        seen["fixed"] = seed
        return suites.SuiteResult("fixed")

    monkeypatch.setattr(suites, "SUITES", {"scans": scans, "fixed": fixed})
    assert suites.run_suite("fixed", workers=3).ok
    assert suites.run_suite("scans", workers=3).ok
    assert suites.run_suite("all", workers=2).ok
    assert seen == {"scans": 2, "fixed": 1}
