import argparse
import ast
import hashlib
import importlib
import inspect
import os
import re
import subprocess
import sys
import types
from decimal import Decimal
from pathlib import Path

import pytest

import lattes_lab
from lattes_lab import cli, elliptic, exceptionality, polyrat
from lattes_lab.cli import COUNT_MAX, K_MAX, PMAX_MAX, WORKERS_MAX, main
from lattes_lab.elliptic import Curve
from lattes_lab.tables import TABLE_IDS, TABLES, PermTableSpec, check_all_tables, check_table


def test_all_tables_regenerate():
    checks = check_all_tables()
    assert len(checks) == 16
    for c in checks:
        assert c.ok, (c.table_id, c.diffs)


def test_tables_never_reach_the_pool():
    # no worker count could change how a table is built: every table scans
    # fewer primes than map_primes needs before it forks
    perm = [spec for spec in TABLES.values() if isinstance(spec, PermTableSpec)]
    assert len(perm) == 7
    assert max(len(spec.golden) for spec in perm) <= exceptionality._CHUNK_PRIMES


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



# sha256 of `map CURVE --k K` stdout on catalog d4 and d19 and on one model
# with rational a4, a6, for K in MAP_KS: the long products of psi_k and L_k
# take polyrat's two-point route from K = 11 on, and at K = 30 the two
# largest on d19 and on the rational model take its decimal route
MAP_KS = (2, 3, 5, 7, 11, 22, 30)
MAP_SHA256 = {
    "--D=-4": (
        "4cf001ad552e784a0252b6fefd3cdff31fb4b4bc6a9130b17c530290a35e3745",
        "32a051185e23cc91826afcadcdc4c9eb781a63334d686e72e6838735122d7e50",
        "9c1ba9fd8854740a9e2e822c15cc94f90218cc4c7a1fe638aae8f5e452bc6021",
        "106e63fa4c711b5246960d0d2f93d8c0dbb6aaa3a63fa46d9eeb0ce3dcbe1bf2",
        "cd134eaccda903874bb7f6d5f23b54ecac1b4635b89967f7cc4155ffa5729891",
        "4a605f376cf947c8941c650ea5f62a58bda004e1f32560b6fad4fbeb569c2ff8",
        "9af1b127dfc824a35cb8adab7f372c95d0c35d6aab0f61f69fc4ea2e33f3dd3c",
    ),
    "--D=-19": (
        "d7a1ae7dccc1e79aab6a0244efbd905d43e66f3980d12e1bd689b7c7d8b71331",
        "abc9ceb13a1678abb5424c2692edc398434cd01948ee5e61dc214fd5a0e3dcef",
        "b079c60fb6a0fb314c319ad80566c560901694286567982051fe37deec4eeefa",
        "dcab5fc8263d1fcb31b25c102b0ca80aa9ea3acf2e45b502a0bb537866fb7085",
        "536cb5b8fd18b7824acb9a40738c3bb848d393a8f32cad80f74f5957ec3aaf3d",
        "b0fea4585a8eb6e25b96733973e74d01b73c6e4eecb210d7cd21dfda0f843c9d",
        "608b35deafdbd62f0a9e34f307b40e27213c96764f641308977b7ef7be94bab4",
    ),
    "[0,0,0,1/7,-3/11]": (
        "dd71efba61b7e76e160907333ba66c6a96b46ec2bbccf3707f9d31337c9a66d2",
        "7cc4d8e36fd877021f9b15dc243419751f1f0ee882f63840eed641eaff0bc0cd",
        "311aae638c0868f2685c2da016d16bc426a9253ae830d4e3eb9de20a3e3eeef3",
        "c56cfff35f0e7cacb9694a6c544d52797e28267b08ad0c0c51d74aa7bbdf43e5",
        "84479d622af1746c2fa659e10dfb7afe0a9afb748bf5bc0e5fa4d36cd9a47245",
        "7504551976a8dcfdf0f7b95d3b25e681d25ea9980757512683c4e6026e38563c",
        "aaca73e823b1ecd9b6a62929ebfe097f18716c306fc21145ab3ebd60a73f6b74",
    ),
}


@pytest.mark.parametrize("curve", MAP_SHA256)
def test_cli_map_output_is_unchanged(curve, capsys):
    digests = []
    for k in MAP_KS:
        assert run_cli("map", curve, "--k", str(k)) == 0
        digests.append(hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert tuple(digests) == MAP_SHA256[curve]


def test_cli_map_prints_coefficients_past_the_str_limit(capsys):
    # L_2 of a 2201-digit a4 has the 4401-digit constant term a4^2, past the
    # 4300 digits that str converts; the map prints in full, exit 0
    curve = Curve(0, 0, 0, 10**2200 + 3, 1)
    assert run_cli("map", f"[0,0,0,{curve.a4},1]", "--k", "2") == 0
    out = capsys.readouterr().out
    assert out == polyrat.format_ratmap(elliptic.lattes_map(curve, 2)) + "\n"
    assert f" + {Decimal(int(curve.a4) ** 2)})/(" in out


def test_cli_map_names_a_coefficient_with_a_zero_denominator(capsys):
    assert run_cli("map", "[0,0,0,1/0,1]", "--k", "2") == 2
    assert capsys.readouterr().err == "error: a4 in [0,0,0,1/0,1]: '1/0' is not a rational number\n"


def test_cli_map_names_a_u_with_a_zero_denominator(capsys):
    assert run_cli("map", "--D=-3", "--u", "1/0", "--k", "2") == 2
    assert capsys.readouterr().err == "error: --u: '1/0' is not a rational number\n"


def test_cli_map_names_a_u_that_is_not_a_number(capsys):
    assert run_cli("map", "--D=-3", "--u", "abc", "--k", "2") == 2
    assert capsys.readouterr().err == "error: --u: 'abc' is not a rational number\n"

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


def test_cli_scan_saves_the_cache_only_when_it_grows(tmp_path, capsys):
    # a cold scan writes the file; warm scans that add no trace leave it
    # alone (same inode, same mtime), and a scan that adds traces replaces it
    cache = tmp_path / "cache.txt"

    def scan(k, pmax):
        assert run_cli("scan", "[0,0,0,1,0]", "--k", k, "--pmax", pmax, "--format", "csv", "--cache", str(cache)) == 0

    scan("3", "400")
    cold = cache.stat()
    assert cold.st_size > 0
    scan("3", "400")
    scan("5", "300")
    warm = cache.stat()
    assert (warm.st_ino, warm.st_mtime_ns) == (cold.st_ino, cold.st_mtime_ns)
    scan("3", "500")
    assert cache.stat().st_ino != cold.st_ino and cache.stat().st_size > cold.st_size
    capsys.readouterr()


# sha256 of `scan ARGS --format csv` stdout
SCAN_CSV_SHA256 = {
    ("[0,0,0,1,1]", "--k", "6", "--pmax", "100000"):
        "c539ba70916d917c6792045cb89b4cf4715efb866a9b477bd37b9b261d298f82",
    ("[0,0,0,-1056,13552]", "--k", "6", "--pmax", "100000"):
        "c0ceb39445aed5061cbb8e8c8f9aba204d2619ef90459ccdc67cbca423c1b596",
    ("--D=-11", "--u", "2", "--k", "6", "--pmax", "20000"):
        "58fb0a947b2cf69e579fad5998be288348901533b46c83cae6f077654fa224c1",
}


@pytest.mark.parametrize("args", list(SCAN_CSV_SHA256))
def test_scan_csv_output_is_unchanged(args, capsys):
    assert run_cli("scan", *args, "--format", "csv") == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == SCAN_CSV_SHA256[args]


def test_scan_markdown_output_is_unchanged(capsys):
    # the CM twist of d11 outside the catalog: a (D/p) column and p | k notes
    assert run_cli("scan", "[0,0,0,-1056,13552]", "--k", "6", "--pmax", "100000", "--format", "md") == 0
    assert (
        hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        == "4c34a639a9000c7dd6c838440f9d09c8aeb62941fc0ec41a95d74b61e287cdb8"
    )


def forbid_scan_work(monkeypatch):
    def reached(*args, **kwargs):
        raise AssertionError("a sieve or a_p ran before the usage check")

    monkeypatch.setattr(elliptic, "primes_upto", reached)
    monkeypatch.setattr(Curve, "good_primes", reached)
    monkeypatch.setattr(exceptionality, "_frobenius_traces", reached)
    monkeypatch.setattr(cli, "empirical_density", reached)


def test_cli_scan_rejects_a_cache_path_that_is_a_directory(monkeypatch, capsys, tmp_path):
    forbid_scan_work(monkeypatch)
    assert run_cli("scan", "[0,0,0,1,1]", "--k", "6", "--pmax", "1000", "--cache", str(tmp_path)) == 2
    assert capsys.readouterr().err == f"error: --cache {tmp_path}: Is a directory\n"


def test_cli_scan_rejects_a_cache_in_a_missing_directory(monkeypatch, capsys, tmp_path):
    forbid_scan_work(monkeypatch)
    path = tmp_path / "no" / "such" / "c.txt"
    assert run_cli("scan", "[0,0,0,1,1]", "--k", "6", "--pmax", "1000", "--cache", str(path)) == 2
    assert capsys.readouterr().err == f"error: --cache {path}: {path.parent} is not a writable directory\n"
    assert not (tmp_path / "no").exists()


def test_cli_scan_names_a_cache_file_that_is_not_utf8(monkeypatch, capsys, tmp_path):
    forbid_scan_work(monkeypatch)
    path = tmp_path / "c.txt"
    path.write_bytes(b"\xff\xfe,5,2\n")
    assert run_cli("scan", "[0,0,0,1,1]", "--k", "6", "--pmax", "1000", "--cache", str(path)) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: not a UTF-8 text file (")


@pytest.mark.parametrize("command", ["scan", "density"])
def test_cli_rejects_k_below_1_before_any_sieve(monkeypatch, capsys, command):
    forbid_scan_work(monkeypatch)
    for k in ("0", "-2"):
        assert run_cli(command, "[0,0,0,1,1]", "--k", k, "--pmax", "100") == 2
        assert f"argument --k: must be >= 1, got {k}" in capsys.readouterr().err


def test_cli_symbol(capsys):
    assert run_cli("symbol", "--alpha", "5", "--modulus=-1+3*w", "--n", "6") == 0
    assert capsys.readouterr().out.strip() == "-1"
    assert run_cli("symbol", "--alpha", "5*w", "--modulus=-1+3*w", "--n", "6") == 0
    assert capsys.readouterr().out.strip() == "-w^2"
    assert run_cli("symbol", "--D=-4", "--alpha", "5", "--modulus", "3", "--n", "2") == 2


# `symbol` stdout for n = 2, 3, 6 on the split prime -1 + 3w and the inert
# prime 5; the alphas give all six roots of unity and zero at n = 6
SYMBOL_STDOUT = {
    "-1+3*w": {
        "-3": ("1", "w^2", "w"),
        "-3+w": ("-1", "w", "-w^2"),
        "-3+2*w": ("-1", "w^2", "-w"),
        "-1": ("1", "1", "1"),
        "-1+w": ("-1", "1", "-1"),
        "-1+2*w": ("1", "w", "w^2"),
        "0": ("0", "0", "0"),
    },
    "5": {
        "-3": ("1", "1", "1"),
        "-3+w": ("-1", "w^2", "-w"),
        "-3+2*w": ("1", "w", "w^2"),
        "-2+w": ("-1", "1", "-1"),
        "-2+2*w": ("-1", "w", "-w^2"),
        "w": ("1", "w^2", "w"),
        "0": ("0", "0", "0"),
    },
}


def test_cli_symbol_stdout_is_pinned(capsys):
    for modulus, rows in SYMBOL_STDOUT.items():
        for alpha, outs in rows.items():
            for n, out in zip(("2", "3", "6"), outs):
                assert run_cli("symbol", f"--alpha={alpha}", f"--modulus={modulus}", "--n", n) == 0
                assert capsys.readouterr().out == out + "\n", (modulus, alpha, n)


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
    # every class-number-one D selects a model, not only those of the catalog
    assert run_cli("torsion", "--D=-163", "--k", "2") == 0
    assert capsys.readouterr().out.strip() == "(none)"


def test_cli_rejects_u_for_a_model_without_a_family(capsys, monkeypatch):
    # --D=-4 names one curve, so --u 2 is a usage error before any map is built
    def unreachable(*args):
        raise AssertionError("map built")

    monkeypatch.setattr(cli, "lattes_map", unreachable)
    for u in ("2", "5"):
        assert run_cli("map", "--D=-4", "--u", u, "--k", "2") == 2
        assert "takes no u" in capsys.readouterr().err


# the subcommands that take a curve, each with the rest of a small run
CURVE_COMMANDS = {
    "map": ["--k", "2"],
    "scan": ["--k", "6", "--pmax", "40"],
    "density": ["--k", "6", "--pmax", "500"],
    "torsion": ["--k", "2"],
}


@pytest.mark.parametrize("command", list(CURVE_COMMANDS))
def test_cli_rejects_a_D_that_contradicts_the_curve(monkeypatch, capsys, command):
    def reached(*args, **kwargs):
        raise AssertionError("a sieve or map ran before the --D check")

    monkeypatch.setattr(Curve, "primes_by_reduction", reached)
    monkeypatch.setattr(Curve, "good_primes", reached)
    monkeypatch.setattr(elliptic, "primes_upto", reached)
    monkeypatch.setattr(cli, "lattes_map", reached)
    monkeypatch.setattr(cli, "torsion_x_rational", reached)
    monkeypatch.setattr(cli, "empirical_density", reached)
    rest = CURVE_COMMANDS[command]
    # [0,0,0,1,1] has j = 6912/31 and no CM
    assert run_cli(command, "[0,0,0,1,1]", "--D=-11", *rest) == 2
    assert "j = -32768" in capsys.readouterr().err
    assert run_cli(command, "[0,0,0,1,1]", "--D=-5", *rest) == 2
    assert "class-number-one" in capsys.readouterr().err
    # --u picks a member of the --D family and means nothing beside a spec
    assert run_cli(command, "[0,0,0,-264,1694]", "--u", "2", *rest) == 2
    assert "--u" in capsys.readouterr().err
    assert run_cli(command, "[0,0,0,-264,1694]", "--D=-11", "--u", "1", *rest) == 2
    assert "--u" in capsys.readouterr().err


def test_cli_accepts_the_D_of_the_curve_spec(capsys):
    # a consistent --D changes nothing, on every subcommand that takes one
    for command, rest in CURVE_COMMANDS.items():
        assert run_cli(command, "[0,0,0,-264,1694]", *rest) == 0
        plain = capsys.readouterr()
        assert run_cli(command, "[0,0,0,-264,1694]", "--D=-11", *rest) == 0
        assert capsys.readouterr() == plain, command


def test_cli_scan_accepts_the_D_of_a_twist(capsys):
    # cm_model(-11, 2), outside the catalog, with CM by -11
    assert run_cli("scan", "[0,0,0,-1056,13552]", "--D=-11", "--k", "6", "--pmax", "40") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("| p | (-11/p) |")
    assert out[3] == "| 7 | -1 | 0 | 2 | No |"


def test_cli_scan_finds_the_D_of_a_twist_by_j(capsys):
    # without --D the twist's symbol column comes from its j = -2^15
    assert run_cli("scan", "[0,0,0,-1056,13552]", "--k", "6", "--pmax", "20", "--format", "csv") == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:5] == ["p,symbol,ap,gcd,permutes", "5,+1,3,3,no", "7,-1,0,2,no", "13,-1,0,2,no", "17,-1,0,6,no"]


def test_cli_density(capsys):
    assert run_cli("density", "[0,0,0,-264,1694]", "--k", "6", "--pmax", "500") == 0
    assert capsys.readouterr().out.strip().startswith("0 ")


def test_cli_density_rejects_a_curve_with_no_good_prime(capsys):
    # a6 is the product of the primes 5..97
    curve = "[0,0,0,0,384261327324253070792183691221959345]"
    assert run_cli("density", curve, "--k", "2", "--pmax", "100") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {curve} has no prime of good reduction up to pmax = 100\n"


def test_cli_builds_its_parser_once_per_bounds(monkeypatch, capsys):
    # two calls build one parser; a bound patched at run time gets a parser
    # that enforces it
    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    assert run_cli("map", "[0,0,0,1,0]", "--k", "2") == 0
    assert run_cli("map", "[0,0,0,1,0]", "--k", "3") == 0
    assert len(built) == 1
    monkeypatch.setattr(cli, "K_MAX", 2)
    assert run_cli("map", "[0,0,0,1,0]", "--k", "3") == 2
    assert "must be in 1..2, got 3" in capsys.readouterr().err
    assert len(built) == 2


def test_cli_names_a_singular_curve(capsys):
    assert run_cli("map", "[0,0,0,0,0]", "--k", "2") == 2
    assert capsys.readouterr().err == "error: singular curve [0,0,0,0,0]\n"


def test_cli_density_rejects_a_prime_beyond_int64(monkeypatch, capsys):
    # the --pmax bound is lifted so that 2^31 reaches the int64 guard, which
    # must refuse it before any sieve
    def reached(limit):
        raise AssertionError(f"sieved up to {limit}")

    monkeypatch.setattr(cli, "PMAX_MAX", 2**32)
    monkeypatch.setattr(elliptic, "primes_upto", reached)
    assert run_cli("density", "[0,0,0,1,1]", "--k", "2", "--pmax", str(2**31)) == 2
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
        ["density", "[0,0,0,1,0]", "--k", "2", "--pmax", "500", "--workers", str(WORKERS_MAX + 1)],
        ["scan", "--D=-11", "--k", "6", "--workers", str(WORKERS_MAX), "--pmax", str(PMAX_MAX + 1)],
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


def test_cli_table_takes_no_worker_count(monkeypatch, capsys):
    def reached(*args, **kwargs):
        raise AssertionError("a table was built for a refused flag")

    monkeypatch.setattr(cli, "check_table", reached)
    assert run_cli("table", "d4-perm-k3", "--workers", "2") == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


def test_cli_verify_takes_no_worker_count(monkeypatch, capsys):
    # each suite runs at its documented bounds, in one process
    def reached(*args, **kwargs):
        raise AssertionError("a suite ran for a refused flag")

    monkeypatch.setattr(cli, "run_suite", reached)
    assert run_cli("verify", "all", "--workers", "2") == 2
    assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


# every subcommand's arguments (positionals by name), in the order declared;
# a flag added or removed shows up as a diff of this table
CLI_ARGUMENTS = {
    "map": ("curve", "--D", "--u", "--k"),
    "table": ("table_id",),
    "scan": ("curve", "--D", "--u", "--k", "--pmax", "--format", "--workers", "--cache"),
    "verify": ("suite",),
    "density": ("curve", "--D", "--u", "--k", "--pmax", "--workers"),
    "symbol": ("--alpha", "--modulus", "--n"),
    "torsion": ("curve", "--D", "--u", "--k"),
    "strategy": ("--D", "--k", "--count"),
}


def test_cli_flag_set_is_pinned():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    got = {
        name: tuple(
            opt
            for action in p._actions
            if not isinstance(action, argparse._HelpAction)
            for opt in (action.option_strings or [action.dest])
        )
        for name, p in sub.choices.items()
    }
    assert got == CLI_ARGUMENTS


# the public names of lattes_lab and the parameters of five entry points
# that take no settings beyond what their callers pass: a change to either
# must edit this pin on purpose
PUBLIC_NAMES = (
    "CATALOG", "CATALOG_BY_NAME", "CatalogEntry", "Curve",
    "ExceptionalityReport", "GF", "INFINITY", "Mat2Zm", "PermutationVerdict", "Poly", "QQ",
    "QuadInt", "QuadOrder", "RatMap", "ScanRow", "SubgroupSpec", "SymbolValue", "TABLE_IDS",
    "TraceCache", "TraceRecord", "add_points", "check_all_tables", "check_table",
    "cm_density_full", "cm_density_subgroup", "cm_model", "congruent", "coprime_verdicts",
    "cornacchia", "count_points", "cubic_reciprocity_check", "deuring_consistency",
    "diag_witness", "division_poly", "e_primary_associate", "ed_count_check", "eis",
    "empirical_density", "exceptionality_report", "find_prime_element", "format_curve",
    "format_quadint", "format_ratmap", "frobenius_congruence_check", "frobenius_scan",
    "frobenius_trace", "in_Cm", "is_cubic_residue", "is_prime", "k2_verdict", "kronecker",
    "lattes_map", "lemma_ab_witness", "negate_point", "noncm_family", "parse_curve",
    "parse_quadint", "permutes", "power_residue_symbol", "primary_associate", "prime_above",
    "primes_upto", "quad_order", "quadratic_twist", "random_point", "rational_roots",
    "scalar_mul", "scan", "sextic_reciprocity_check", "splitting_type", "sqrt_mod",
    "strategy_primes", "symbol_tower_check", "torsion_classify_Ed", "torsion_roots",
    "torsion_x_rational", "trace_record", "twist_product_check", "verify_d11_obstruction",
    "verify_noncm_counterexample",
)
PINNED_PARAMETERS = {
    "TraceCache.__init__": ("self", "path"),
    "exceptionality_report": ("curve", "k", "pmax"),
    "format_poly": ("f",),
    "format_ratmap": ("f",),
    "SubgroupSpec.closure": ("self",),
}


def test_public_surface_is_pinned():
    names = sorted(
        name for name, value in vars(lattes_lab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert tuple(names) == PUBLIC_NAMES
    entries = {
        "TraceCache.__init__": lattes_lab.TraceCache.__init__,
        "exceptionality_report": lattes_lab.exceptionality_report,
        "format_poly": polyrat.format_poly,
        "format_ratmap": lattes_lab.format_ratmap,
        "SubgroupSpec.closure": lattes_lab.SubgroupSpec.closure,
    }
    got = {name: tuple(inspect.signature(fn).parameters) for name, fn in entries.items()}
    assert got == PINNED_PARAMETERS


def test_package_has_no_assert_statement():
    # an assert vanishes under python -O, so a check the package relies on
    # raises instead
    src = Path(lattes_lab.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_readme_code_references_resolve():
    # every backticked `module.name` of a package module in README.md, a
    # call's arguments and a line break inside the backticks allowed, names
    # an attribute of that module, so a name deleted from the code cannot
    # stay in the docs
    src = Path(lattes_lab.__file__).parent
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    modules = "|".join(sorted(path.stem for path in src.glob("*.py") if path.stem != "__init__"))
    refs = re.findall(rf"`(?:lattes_lab\.)?({modules})\.([A-Za-z_]\w*)[^`]*`", readme)
    missing = [
        f"{mod}.{name}" for mod, name in refs if not hasattr(importlib.import_module(f"lattes_lab.{mod}"), name)
    ]
    assert len(refs) >= 20 and missing == []


def test_cli_bounds_admit_their_ends():
    # parsed only: no pool is started at the largest worker count
    parser = cli._build_parser()
    args = parser.parse_args(["scan", "[0,0,0,1,0]", "--k", "3", "--pmax", str(PMAX_MAX), "--workers", str(WORKERS_MAX)])
    assert (args.pmax, args.workers) == (PMAX_MAX, WORKERS_MAX)
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


def child_env(drop=()):
    # this environment less `drop`, with the directory of the package this
    # process imported first on PYTHONPATH, so that a child finds it also
    # where pytest's `pythonpath` setting, not an install, put it on sys.path
    env = {k: v for k, v in os.environ.items() if k not in drop}
    src = str(Path(lattes_lab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def test_cli_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "lattes_lab.cli", "map", "[0,0,0,1,0]", "--k", "3"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip().startswith("(x^9 - 12x^7")


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads in /proc/self/task")
def test_import_starts_no_blas_worker_thread():
    # OpenBLAS workers started by numpy's import would spin on the CPU at
    # every CLI call; the package's one BLAS product is small, so it keeps
    # to one thread
    env = child_env(drop=("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    code = "import os, lattes_lab; print(len(os.listdir('/proc/self/task')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "1"


def test_cli_import_loads_only_the_standard_library_numpy_and_the_package():
    # sympy, scipy and pytest-benchmark may be installed beside the package,
    # which does not depend on them; importing one by mistake would slow
    # every CLI call.  An alias of a module loaded before the import (the
    # __mp_main__ that multiprocessing adds for __main__) is not new
    code = (
        "import sys\n"
        "before = {id(m) for m in sys.modules.values()}\n"
        "import lattes_lab.cli\n"
        "print(*sorted({n.split('.')[0] for n, m in sys.modules.items() if id(m) not in before}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), check=True)
    added = set(proc.stdout.split())
    assert {"lattes_lab", "numpy"} <= added
    assert added - set(sys.stdlib_module_names) == {"lattes_lab", "numpy"}


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
