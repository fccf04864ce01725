"""Command-line surface.

Subcommands: map, table, scan, verify, density, symbol, torsion, strategy.
Exit codes: 0 on success/match, 1 on a verification failure or table
mismatch, 2 on usage errors (bad flags, an unknown table id, unparseable
curve or element, --u or a --D other than its CM discriminant beside a
curve spec, a --u other than 1 for a --D whose CM model is one curve, the
--k of scan and density below 1, a scan --cache path that cannot be read
or whose directory cannot be written, and the --workers of scan and
density, --pmax, the --k of map, torsion and strategy, or the strategy
--count beyond WORKERS_MAX, PMAX_MAX, K_MAX or COUNT_MAX, and a strategy
--count beyond the distinct good primes the row holds up to its norm
cap).  verify runs
each suite at its documented bounds and takes no flag.  symbol works in
Z[w] (D = -3) and takes no --D.
"""

from __future__ import annotations

import argparse
import functools
# argparse puts its help strings through gettext, which imports locale on
# the first parser build; locale is imported with the module instead, so
# that start-up, not the first command, pays for it (as it did when the
# process pool's modules brought it in)
import locale  # noqa: F401
import os
import sys
from typing import Optional

from .eisenstein import power_residue_symbol
from .elliptic import _rational, cm_disc_for, cm_model, lattes_map, parse_curve, torsion_x_rational
from .exceptionality import (
    _CHUNK_PRIMES,
    TraceCache,
    render_scan_csv,
    render_scan_markdown,
    scan,
    strategy_primes,
)
from .galois import empirical_density
from .polyrat import format_ratmap
from .quadorder import parse_quadint
from .suites import SUITES, run_suite
from .tables import TABLE_IDS, check_table


# Upper bounds on the flags that size a run: the sieve and the per-prime
# arrays take O(pmax) memory, and --workers N runs up to N processes at once.
# 10^6 is the desk scale the package is built for; there one process peaks
# at about 75 MiB RSS (count_points at p = 999983, or a whole density run
# to 10^6), so WORKERS_MAX workers stay below 5 GiB.
PMAX_MAX = 10**6
WORKERS_MAX = 64
WORKERS_HELP = (
    f"upper bound on the processes: a prime range gets one per {_CHUNK_PRIMES} primes "
    f"or part of it, so a range of at most {_CHUNK_PRIMES} primes runs in one process (default 1)"
)
# map and torsion build psi_k, of degree about k^2/2, over QQ: on a 2-CPU
# host `map --k 50` takes 0.6-2.6 s on catalog d4, d19 and [0,0,0,1/7,-3/11]
# and L_64 on d19 5 s.  The cost also grows with the model's height, which
# K_MAX does not bound: `map --D=-163 --k 50` takes 11 s, and a 40-digit
# a4 at k = 50 runs past 150 s
K_MAX = 50
# strategy factors k by trial division and searches prime elements for
# congruence constraints that grow with k, so K_MAX bounds its k as well;
# COUNT_MAX is the count the strategy suite asks for.  Over every D and k,
# the slowest rows at --count 50 are D = -11 with k = 35 and 37, 0.8-1.4 s
# each on a 2-CPU Xeon VM at under 40 MiB RSS; a row that walks to the norm
# cap without 50 primes (D = -11, k = 41) is a usage error after 0.9-1.3 s
COUNT_MAX = 50


def _int_in(lo: Optional[int], hi: Optional[int]):
    """An argparse type for an integer in lo..hi (no bound where lo or hi is
    None); anything else is a usage error, exit 2, before a handler runs."""

    def parse(text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if (lo is not None and v < lo) or (hi is not None and v > hi):
            span = f"<= {hi}" if lo is None else f">= {lo}" if hi is None else f"in {lo}..{hi}"
            raise argparse.ArgumentTypeError(f"must be {span}, got {v}")
        return v

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lattes-lab",
        description="Lattes maps of elliptic curves and their permutation behavior "
        "over prime fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_curve_args(p):
        # a curve is either an explicit [a1,a2,a3,a4,a6] or a CM model
        # selected by --D (with family parameter --u where one exists)
        p.add_argument("curve", nargs="?", default=None, help="curve spec [a1,a2,a3,a4,a6]")
        p.add_argument("--D", type=int, default=None, help="CM discriminant of the curve")
        p.add_argument(
            "--u", default=None, help="family parameter of the CM models of D = -3, -11, -12, -27 (default 1)"
        )

    p = sub.add_parser("map", help="print L_k for a curve as a rational function")
    add_curve_args(p)
    p.add_argument("--k", type=_int_in(1, K_MAX), required=True)

    p = sub.add_parser("table", help="regenerate a bundled reference table and diff it")
    p.add_argument("table_id", choices=TABLE_IDS)

    p = sub.add_parser("scan", help="permutation-behavior scan over good primes")
    add_curve_args(p)
    p.add_argument("--k", type=_int_in(1, None), required=True)
    p.add_argument("--pmax", type=_int_in(5, PMAX_MAX), required=True)
    p.add_argument("--format", choices=("md", "csv"), default="md")
    p.add_argument("--workers", type=_int_in(1, WORKERS_MAX), default=1, help=WORKERS_HELP)
    p.add_argument("--cache", default=None, help="flat-file a_p cache path")

    p = sub.add_parser("verify", help="run a named verification suite at its documented bounds")
    p.add_argument("suite", choices=tuple(SUITES) + ("all",))

    p = sub.add_parser("density", help="empirical density of permutation primes")
    add_curve_args(p)
    p.add_argument("--k", type=_int_in(1, None), required=True)
    p.add_argument("--pmax", type=_int_in(None, PMAX_MAX), required=True)
    p.add_argument("--workers", type=_int_in(1, WORKERS_MAX), default=1, help=WORKERS_HELP)

    p = sub.add_parser("symbol", help="evaluate a power residue symbol in Z[w]")
    p.add_argument("--alpha", required=True, help="element a+b*w")
    p.add_argument("--modulus", required=True, help="prime element a+b*w")
    p.add_argument("--n", type=int, choices=(2, 3, 6), required=True)

    p = sub.add_parser("torsion", help="rational x-coordinates of k-torsion points")
    add_curve_args(p)
    p.add_argument("--k", type=_int_in(2, K_MAX), required=True)

    p = sub.add_parser("strategy", help="strategy primes for a CM discriminant")
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--k", type=_int_in(2, K_MAX), required=True)
    p.add_argument("--count", type=_int_in(1, COUNT_MAX), default=8)

    return parser


def _resolve_curve(args):
    """The curve named by the arguments: an explicit coefficient spec, whose
    CM discriminant a --D beside it must be, or the CM model cm_model(D, u)
    when only --D (and optionally --u) is given."""
    if args.curve is not None:
        if args.u is not None:
            raise ValueError("--u selects a CM model with --D, not a curve spec")
        curve = parse_curve(args.curve)
        cm_disc_for(curve, args.D)  # raises for a --D that is not the curve's
        return curve
    if args.D is None:
        raise ValueError("give a curve spec [a1,a2,a3,a4,a6] or select one with --D/--u")
    return cm_model(args.D, 1 if args.u is None else _rational(args.u, "--u"))


def _cmd_map(args) -> int:
    curve = _resolve_curve(args)
    print(format_ratmap(lattes_map(curve, args.k)))
    return 0


def _cmd_table(args) -> int:
    result = check_table(args.table_id)
    print(result.rendered, end="")
    if result.ok:
        print("MATCH: regenerated table equals the golden copy")
        return 0
    print("MISMATCH:", file=sys.stderr)
    for d in result.diffs:
        print("  " + d, file=sys.stderr)
    return 1


def _open_cache(path: str) -> TraceCache:
    """The a_p cache at path, checked before any sieve or a_p work: a path
    whose directory is missing or not writable (where save would fail after
    the whole scan), or that cannot be read, is a ValueError naming it."""
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder) or not os.access(folder, os.W_OK | os.X_OK):
        raise ValueError(f"--cache {path}: {folder} is not a writable directory")
    try:
        return TraceCache(path)
    except OSError as exc:
        raise ValueError(f"--cache {path}: {exc.strerror}") from None


def _cmd_scan(args) -> int:
    curve = _resolve_curve(args)
    cache = _open_cache(args.cache) if args.cache else None
    good, bad = curve.primes_by_reduction(args.pmax)
    rows = scan(curve, args.k, good, workers=args.workers, cache=cache)
    if cache is not None:
        cache.save()
    if args.format == "csv":
        print(render_scan_csv(rows), end="")
    else:
        print(render_scan_markdown(rows, args.k, cm_disc_for(curve)), end="")
    if bad:
        print(f"excluded primes (bad reduction): {bad}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    result = run_suite(args.suite)
    for line in result.lines:
        print(line)
    if result.ok:
        print(f"suite {args.suite}: PASS")
        return 0
    for failure in result.failures:
        print("FAIL: " + failure, file=sys.stderr)
    print(f"suite {args.suite}: FAIL", file=sys.stderr)
    return 1


def _cmd_density(args) -> int:
    curve = _resolve_curve(args)
    d = empirical_density(curve, args.k, args.pmax, workers=args.workers)
    print(f"{d} ({float(d):.6f})")
    return 0


def _cmd_symbol(args) -> int:
    alpha = parse_quadint(args.alpha, -3)
    modulus = parse_quadint(args.modulus, -3)
    print(power_residue_symbol(alpha, modulus, args.n))
    return 0


def _cmd_torsion(args) -> int:
    curve = _resolve_curve(args)
    roots = sorted(torsion_x_rational(curve, args.k))
    print(", ".join(str(r) for r in roots) if roots else "(none)")
    return 0


def _cmd_strategy(args) -> int:
    primes = strategy_primes(args.D, args.k, args.count)
    print(", ".join(str(p) for p in primes))
    return 0


_HANDLERS = {
    "map": _cmd_map,
    "table": _cmd_table,
    "scan": _cmd_scan,
    "verify": _cmd_verify,
    "density": _cmd_density,
    "symbol": _cmd_symbol,
    "torsion": _cmd_torsion,
    "strategy": _cmd_strategy,
}


@functools.lru_cache(maxsize=1)
def _parser(bounds: tuple[int, int, int, int]) -> argparse.ArgumentParser:
    # _build_parser() once per process for the current (K_MAX, PMAX_MAX,
    # WORKERS_MAX, COUNT_MAX): argparse makes a help formatter per argument,
    # and a bound changed at run time gets a parser that enforces it
    return _build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser((K_MAX, PMAX_MAX, WORKERS_MAX, COUNT_MAX)).parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, ZeroDivisionError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
