"""The bundled reference tables and their regeneration.

Each table id maps to a frozen golden copy (permutation-behavior rows, a
value table of some L_k on P^1(F_p), or the prime-selection strategy
summary).  check_table regenerates the table from scratch through the
library and diffs it cell by cell against the golden copy, making the
tables an executable acceptance oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .elliptic import CATALOG_BY_NAME, lattes_map
from .exceptionality import STRATEGY_TABLE, scan
from .polyrat import INFINITY

INF = None  # infinity marker inside golden value rows


@dataclass(frozen=True)
class PermTableSpec:
    caption: str
    curve: str  # catalog name
    k: int
    # rows of (p, kronecker symbol, a_p, gcd(A_p, k), permutes?)
    golden: tuple[tuple[int, int, int, int, bool], ...]


@dataclass(frozen=True)
class ValueTableSpec:
    caption: str
    curve: str
    k: int
    p: int
    golden: tuple[Optional[int], ...]  # images of 0..p-1, inf; None is infinity


@dataclass(frozen=True)
class StrategyTableSpec:
    caption: str
    golden: tuple[tuple[str, str, str, str], ...]


# every table by id, in the order the CLI lists them
TABLES: dict[str, PermTableSpec | ValueTableSpec | StrategyTableSpec] = {
    "d4-perm-k3": PermTableSpec(
        caption="Permutation behavior of L_3 on P^1(F_p) for y^2 = x^3 + x",
        curve="d4",
        k=3,
        golden=(
            (5, 1, 2, 1, True),
            (7, -1, 0, 1, True),
            (11, -1, 0, 3, False),
            (13, 1, -6, 1, True),
            (19, -1, 0, 1, True),
            (23, -1, 0, 3, False),
            (29, 1, 10, 1, True),
            (31, -1, 0, 1, True),
        ),
    ),
    "d4-values-f7": ValueTableSpec(
        caption="Values of L_3 on P^1(F_7) for y^2 = x^3 + x",
        curve="d4",
        k=3,
        p=7,
        golden=(0, 1, 4, 5, 2, 3, 6, INF),
    ),
    "d8-values-f13": ValueTableSpec(
        caption="Values of L_3 on P^1(F_13) for y^2 = x^3 + x^2 - 3x + 1",
        curve="d8",
        k=3,
        p=13,
        golden=(4, 1, 10, 7, 11, 2, 9, 8, 3, 12, 5, 0, 6, INF),
    ),
    "d7-perm-k3": PermTableSpec(
        caption="Permutation behavior of L_3 on P^1(F_p) for y^2 = x^3 - 35x + 98",
        curve="d7",
        k=3,
        golden=(
            (5, -1, 0, 3, False),
            (11, 1, -4, 1, True),
            (13, -1, 0, 1, True),
            (17, -1, 0, 3, False),
            (19, -1, 0, 1, True),
            (23, 1, -8, 1, True),
            (29, 1, 2, 1, True),
            (31, -1, 0, 1, True),
        ),
    ),
    "d19-perm-k3": PermTableSpec(
        caption="Permutation behavior of L_3 on P^1(F_p) for y^2 + y = x^3 - 38x + 90",
        curve="d19",
        k=3,
        golden=(
            (5, 1, -1, 1, True),
            (7, 1, 3, 1, True),
            (11, 1, -5, 1, True),
            (13, -1, 0, 1, True),
            (17, 1, -7, 1, True),
            (23, 1, -4, 1, True),
            (29, -1, 0, 3, False),
            (41, -1, 0, 3, False),
        ),
    ),
    "d19-values-f5": ValueTableSpec(
        caption="Values of L_3 on P^1(F_5) for y^2 + y = x^3 - 38x + 90",
        curve="d19",
        k=3,
        p=5,
        golden=(2, 3, 4, 1, 0, INF),
    ),
    "d12-values-f11": ValueTableSpec(
        caption="Values of L_5 on P^1(F_11) for y^2 = x^3 - 15x + 22",
        curve="d12",
        k=5,
        p=11,
        golden=(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, INF),
    ),
    "d27-perm-k2": PermTableSpec(
        caption="Permutation behavior of L_2 on P^1(F_p) for y^2 = x^3 - 120x + 506",
        curve="d27",
        k=2,
        golden=(
            (7, 1, -1, 1, True),
            (13, 1, -5, 1, True),
            (19, 1, 7, 1, True),
            (31, 1, -4, 2, False),
            (37, 1, -11, 1, True),
            (43, 1, -8, 2, False),
            (61, 1, 1, 1, True),
        ),
    ),
    "d3-perm-k2": PermTableSpec(
        caption="Permutation behavior of L_2 on P^1(F_p) for y^2 = x^3 + 2",
        curve="d3",
        k=2,
        golden=(
            (5, -1, 0, 2, False),
            (7, 1, -1, 1, True),
            (11, -1, 0, 2, False),
            (13, 1, -5, 1, True),
            (19, 1, 7, 1, True),
            (31, 1, -4, 2, False),
            (37, 1, -11, 1, True),
            (43, 1, -8, 2, False),
        ),
    ),
    "d3-values-f7": ValueTableSpec(
        caption="Values of L_2 on P^1(F_7) for y^2 = x^3 + 2",
        curve="d3",
        k=2,
        p=7,
        golden=(0, 4, 1, 3, 2, 5, 6, INF),
    ),
    "d11-perm-k6": PermTableSpec(
        caption="Permutation behavior of L_6 on P^1(F_p) for y^2 = x^3 - 264x + 1694",
        curve="d11",
        k=6,
        golden=(
            (5, 1, -3, 3, False),
            (7, -1, 0, 2, False),
            (13, -1, 0, 2, False),
            (17, -1, 0, 6, False),
            (23, 1, -9, 3, False),
            (31, 1, 5, 3, False),
            (41, -1, 0, 6, False),
            (47, 1, -12, 6, False),
        ),
    ),
    "d11-values-f5-k6": ValueTableSpec(
        caption="Values of L_6 on P^1(F_5) for y^2 = x^3 - 264x + 1694",
        curve="d11",
        k=6,
        p=5,
        golden=(3, 3, 3, INF, INF, INF),
    ),
    "d11-values-f7-k6": ValueTableSpec(
        caption="Values of L_6 on P^1(F_7) for y^2 = x^3 - 264x + 1694",
        curve="d11",
        k=6,
        p=7,
        golden=(INF, 3, 3, 0, 0, 4, 4, INF),
    ),
    "d11-perm-k7": PermTableSpec(
        caption="Permutation behavior of L_7 on P^1(F_p) for y^2 = x^3 - 264x + 1694",
        curve="d11",
        k=7,
        golden=(
            (5, 1, -3, 1, True),
            (7, -1, 0, 1, True),
            (13, -1, 0, 7, False),
            (17, -1, 0, 1, True),
            (23, 1, -9, 1, True),
            (31, 1, 5, 1, True),
        ),
    ),
    "d11-values-f5-k7": ValueTableSpec(
        caption="Values of L_7 on P^1(F_5) for y^2 = x^3 - 264x + 1694",
        curve="d11",
        k=7,
        p=5,
        golden=(1, 2, 0, 3, 4, INF),
    ),
    "strategies": StrategyTableSpec(
        caption="Prime selection strategies by CM discriminant",
        golden=(
            ("-4, -16", "C2, C2xC2, C4", "k odd", "p = 3 (mod 4), p = 1 (mod k)"),
            ("-8", "C2", "k odd", "p = 5 (mod 8), p = 1 (mod k)"),
            ("-7, -28", "C2", "k odd", "p = 5 (mod 7), p = -2 (mod k)"),
            ("-19, -43, -67, -163", "C1", "any k >= 2", "Chebotarev (splitting primes)"),
            ("-12", "C2, C6", "gcd(k,6) = 1", "p = 2 (mod 3), p = 1 (mod k)"),
            (
                "-27",
                "C1, C3",
                "(i) gcd(k,6) = 1; (ii) gcd(k,6) = 2",
                "(i) p = 2 (mod 3), p = 1 (mod k); (ii) Chebotarev (splitting primes)",
            ),
            (
                "-3",
                "C1, C2, C3, C6",
                "(i) gcd(k,6) = 1; (ii) gcd(k,6) = 2",
                "(i) p = 2 (mod 3), p = 1 (mod k); (ii) Chebotarev (splitting primes)",
            ),
            (
                "-11",
                "C1",
                "(i) k odd, 3 | k; (ii) 3 does not divide k",
                "(i) p = 1 (mod 3), p = 1 (mod l_i), p = 2 (mod 11); (ii) Chebotarev (splitting primes)",
            ),
        ),
    ),
}

TABLE_IDS: tuple[str, ...] = tuple(TABLES)


@dataclass(frozen=True)
class TableCheck:
    table_id: str
    caption: str
    ok: bool
    rendered: str
    diffs: tuple[str, ...]


def regenerate_perm_rows(spec: PermTableSpec) -> list[tuple]:
    entry = CATALOG_BY_NAME[spec.curve]
    primes = [row[0] for row in spec.golden]
    rows = scan(entry.curve, spec.k, primes)
    return [(r.p, r.symbol, r.ap, r.gcd_value, r.permutes) for r in rows]


def regenerate_value_row(spec: ValueTableSpec) -> list[Optional[int]]:
    entry = CATALOG_BY_NAME[spec.curve]
    reduced = lattes_map(entry.curve, spec.k).reduce_mod_p(spec.p)
    return [None if v is INFINITY else v for v in reduced.value_table()]


def regenerate_strategy_rows() -> list[tuple[str, str, str, str]]:
    return [
        (", ".join(str(d) for d in row.discs), row.torsion, row.condition, row.recipe)
        for row in STRATEGY_TABLE
    ]


def _render_perm(spec: PermTableSpec, rows: Sequence[tuple]) -> str:
    lines = [spec.caption, "| p | (D/p) | a_p | gcd | permutes? |", "|---|---|---|---|---|"]
    for p, sym, ap, g, verdict in rows:
        lines.append(f"| {p} | {sym:+d} | {ap} | {g} | {'Yes' if verdict else 'No'} |")
    return "\n".join(lines) + "\n"


def _render_values(spec: ValueTableSpec, values: Sequence[Optional[int]]) -> str:
    # markdown rendering uses the infinity glyph; CSV output elsewhere uses 'inf'
    xs = [str(x) for x in range(spec.p)] + ["∞"]
    vs = ["∞" if v is None else str(v) for v in values]
    lines = [
        spec.caption,
        "| x | " + " | ".join(xs) + " |",
        "|" + "---|" * (len(xs) + 1),
        f"| L_{spec.k}(x) | " + " | ".join(vs) + " |",
    ]
    return "\n".join(lines) + "\n"


def _render_strategy(spec: StrategyTableSpec, rows: Sequence[tuple[str, str, str, str]]) -> str:
    lines = [
        spec.caption,
        "| D | torsion | condition on k | prime selection |",
        "|---|---|---|---|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def check_table(table_id: str) -> TableCheck:
    """Regenerate a table and diff it against the golden copy.  A table
    scans at most 8 primes, too few to fork, so it takes no worker count."""
    if table_id not in TABLES:
        raise KeyError(f"unknown table id {table_id!r}")
    spec = TABLES[table_id]
    if isinstance(spec, PermTableSpec):
        rows = regenerate_perm_rows(spec)
        diffs = tuple(
            f"p={g[0]}: expected {g}, regenerated {r}"
            for g, r in zip(spec.golden, rows)
            if tuple(r) != tuple(g)
        )
        rendered = _render_perm(spec, rows)
    elif isinstance(spec, ValueTableSpec):
        values = regenerate_value_row(spec)
        diffs = tuple(
            f"x={'inf' if i == spec.p else i}: expected "
            f"{'inf' if g is None else g}, regenerated {'inf' if v is None else v}"
            for i, (g, v) in enumerate(zip(spec.golden, values))
            if g != v
        )
        if len(values) != len(spec.golden):
            diffs += (f"row length {len(values)} != {len(spec.golden)}",)
        rendered = _render_values(spec, values)
    else:
        rows = regenerate_strategy_rows()
        diffs = tuple(
            f"row {i}: expected {g}, regenerated {r}"
            for i, (g, r) in enumerate(zip(spec.golden, rows))
            if g != r
        )
        rendered = _render_strategy(spec, rows)
    return TableCheck(table_id, spec.caption, not diffs, rendered, diffs)


def check_all_tables() -> list[TableCheck]:
    return [check_table(tid) for tid in TABLE_IDS]
