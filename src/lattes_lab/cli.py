"""Command-line surface.

Subcommands: map, table, scan, verify, density, symbol, torsion, strategy.
Exit codes: 0 on success/match, 1 on a verification failure or table
mismatch, 2 on usage errors (bad flags, an unknown table id, unparseable
curve or element, and --workers, --pmax, the --k of map, torsion and
strategy, or the strategy --count beyond WORKERS_MAX, PMAX_MAX, K_MAX or
COUNT_MAX).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .eisenstein import power_residue_symbol
from .elliptic import cm_disc_for, cm_model, lattes_map, parse_curve, torsion_x_rational
from .exceptionality import (
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
# arrays take O(pmax) memory, and --workers N starts N processes at once.
# 10^6 is the desk scale the package is built for; there one process peaks
# at about 75 MiB RSS (count_points at p = 999983, or a whole density run
# to 10^6), so WORKERS_MAX workers stay below 5 GiB.
PMAX_MAX = 10**6
WORKERS_MAX = 64
# map and torsion build psi_k, of degree about k^2/2, over QQ: on a 2-CPU
# host L_50 takes 1-13 s (catalog d4, d19, [0,0,0,1/7,-3/11]) and L_64 on
# d19 32 s, so K_MAX keeps one call well under half a minute
K_MAX = 50
# strategy factors k by trial division and searches prime elements for
# congruence constraints that grow with k, so K_MAX bounds its k as well;
# COUNT_MAX is the count the strategy suite asks for
COUNT_MAX = 50


def _int_in(lo: Optional[int], hi: int):
    """An argparse type for an integer in lo..hi (no lower bound if lo is
    None); anything else is a usage error, exit 2, before a handler runs."""

    def parse(text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if (lo is not None and v < lo) or v > hi:
            span = f"<= {hi}" if lo is None else f"in {lo}..{hi}"
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
        p.add_argument("--D", type=int, default=None, help="CM discriminant of a model curve")
        p.add_argument("--u", default=None, help="family parameter for the CM model (default 1)")

    p = sub.add_parser("map", help="print L_k for a curve as a rational function")
    add_curve_args(p)
    p.add_argument("--k", type=_int_in(1, K_MAX), required=True)

    p = sub.add_parser("table", help="regenerate a bundled reference table and diff it")
    p.add_argument("table_id", choices=TABLE_IDS)
    p.add_argument("--workers", type=_int_in(1, WORKERS_MAX), default=1)

    p = sub.add_parser("scan", help="permutation-behavior scan over good primes")
    add_curve_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--pmax", type=_int_in(5, PMAX_MAX), required=True)
    p.add_argument("--format", choices=("md", "csv"), default="md")
    p.add_argument("--workers", type=_int_in(1, WORKERS_MAX), default=1)
    p.add_argument("--cache", default=None, help="flat-file a_p cache path")

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=tuple(SUITES) + ("all",))
    p.add_argument("--workers", type=_int_in(1, WORKERS_MAX), default=1)

    p = sub.add_parser("density", help="empirical density of permutation primes")
    add_curve_args(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--pmax", type=_int_in(None, PMAX_MAX), required=True)
    p.add_argument("--workers", type=_int_in(1, WORKERS_MAX), default=1)

    p = sub.add_parser("symbol", help="evaluate a power residue symbol in Z[w]")
    p.add_argument("--D", type=int, default=-3, help="order discriminant (must be -3)")
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
    """The curve named by the arguments: an explicit coefficient spec, or
    the CM model cm_model(D, u) when only --D (and optionally --u) is given."""
    from fractions import Fraction

    if args.curve is not None:
        return parse_curve(args.curve)
    if args.D is None:
        raise ValueError("give a curve spec [a1,a2,a3,a4,a6] or select one with --D/--u")
    u = Fraction(args.u) if args.u is not None else Fraction(1)
    return cm_model(args.D, u)


def _cmd_map(args) -> int:
    curve = _resolve_curve(args)
    print(format_ratmap(lattes_map(curve, args.k)))
    return 0


def _cmd_table(args) -> int:
    result = check_table(args.table_id, workers=args.workers)
    print(result.rendered, end="")
    if result.ok:
        print("MATCH: regenerated table equals the golden copy")
        return 0
    print("MISMATCH:", file=sys.stderr)
    for d in result.diffs:
        print("  " + d, file=sys.stderr)
    return 1


def _cmd_scan(args) -> int:
    curve = _resolve_curve(args)
    cache = TraceCache(args.cache) if args.cache else None
    disc = cm_disc_for(curve, args.D)
    good, bad = curve.primes_by_reduction(args.pmax)
    rows = scan(curve, args.k, good, disc=disc, workers=args.workers, cache=cache)
    if cache is not None:
        cache.save()
    if args.format == "csv":
        print(render_scan_csv(rows), end="")
    else:
        print(render_scan_markdown(rows, args.k, disc), end="")
    if bad:
        print(f"excluded primes (bad reduction): {bad}", file=sys.stderr)
    return 0


def _cmd_verify(args) -> int:
    result = run_suite(args.suite, workers=args.workers)
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
    if args.D != -3:
        print("power residue symbols are implemented in the order of discriminant -3",
              file=sys.stderr)
        return 2
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


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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
