"""The four workloads: the ops each sample times, and the gate on their outputs.

An op is one command issued by a single closed-loop client: the next op starts
when the previous one has returned.  `build()` returns the ops of a workload
for its inputs; `gate_outputs()` runs after the timed section and returns the
indices of ops whose output failed a check.  Calls go through module
attributes (`cli.main`, `elliptic.lattes_map`, ...) so that the traced run
sees them.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from fractions import Fraction
from typing import Callable, NamedTuple

from lattes_lab import cli, eisenstein, elliptic, exceptionality

import gate
import inputs as gen

DENSITY_TOLERANCE = Fraction(1, 20)
SAMPLED_PRIMES = 24  # a_p checked against the group law per curve
SAMPLED_VERDICTS = 3  # scan verdicts checked by brute force per command
VERDICT_PMAX = 400  # brute-force checks use primes below this


class Op(NamedTuple):
    name: str
    run: Callable[[], str]
    pinned: bool = False  # the gate fixes the whole output, so no digest is stored


def _cli(argv: list[str]) -> Callable[[], str]:
    def run() -> str:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit {code}: {err.getvalue().strip()}")
        return out.getvalue()

    return run


def _perm_traces(curve, good: list[int]) -> Callable[[], str]:
    def run() -> str:
        traces = exceptionality.frobenius_scan(curve, good)
        return ",".join(f"{p}:{traces[p]}" for p in good)

    return run


def _perm_k(curve, k: int, good: list[int]) -> Callable[[], str]:
    def run() -> str:
        lk = elliptic.lattes_map(curve, k)
        torsion = sorted(elliptic.torsion_x_rational(curve, k))
        verdicts = "".join("1" if lk.reduce_mod_p(p).is_bijection()[0] else "0" for p in good)
        return f"k={k} torsion={','.join(map(str, torsion))} perm={verdicts}"

    return run


def _symbol(check, *args) -> Callable[[], str]:
    return lambda: str(check(*(eisenstein.eis(*a) if isinstance(a, (list, tuple)) else a for a in args)))


def perm_primes(curve, inp: dict) -> list[int]:
    return curve.good_primes(inp["pmax"])[: inp["primes"]]


def build(workload: str, inp: dict, tmpdir: str) -> list[Op]:
    if workload == "scan":
        cache = os.path.join(tmpdir, "traces.cache")
        return [
            Op(f"scan {i} k={k}", _cli(["scan", inp["curve"], "--k", str(k), "--pmax", str(inp["pmax"]),
                                      "--format", "csv", "--workers", "2", "--cache", cache]))
            for i, k in enumerate(inp["ks"])  # the seeded k may repeat
        ]
    if workload == "density":
        return [
            Op(f"density {c}", _cli(["density", c, "--k", str(inp["k"]), "--pmax", str(inp["pmax"]), "--workers", "1"]))
            for c in inp["curves"]
        ]
    if workload == "perm":
        ops = []
        for spec in inp["curves"]:
            curve = elliptic.parse_curve(spec)
            good = perm_primes(curve, inp)
            ops.append(Op(f"traces {spec}", _perm_traces(curve, good)))
            ops += [Op(f"perm {spec} k={k}", _perm_k(curve, k, good)) for k in range(2, inp["kmax"] + 1)]
            ops.append(Op(f"map {spec}", _cli(["map", spec, "--k", str(inp["map_k"])])))
        return ops
    if workload == "cm-arith":
        ops = [
            Op(f"strategy {D} {k} {n}", _cli(["strategy", "--D", str(D), "--k", str(k), "--count", str(n)]), pinned=True)
            for D, k, n in inp["rows"]
        ]
        ops += [Op(f"cubic {x} {y}", _symbol(eisenstein.cubic_reciprocity_check, x, y), pinned=True) for x, y in inp["cubic"]]
        ops += [Op(f"sextic {x} {y}", _symbol(eisenstein.sextic_reciprocity_check, x, y), pinned=True) for x, y in inp["sextic"]]
        ops += [Op(f"tower {a} {y}", _symbol(eisenstein.symbol_tower_check, a, y), pinned=True) for a, y in inp["tower"]]
        ops += [Op(f"ed {d} {y}", _symbol(eisenstein.ed_count_check, d, y), pinned=True) for d, y in inp["ed"]]
        return ops
    raise ValueError(f"unknown workload {workload!r}")


# -- the gate --------------------------------------------------------------------


def _check_curve_aps(curve, aps: dict[int, int], rng: random.Random) -> bool:
    sample = rng.sample(sorted(aps), min(SAMPLED_PRIMES, len(aps)))
    return all(gate.check_ap(curve, p, aps[p], rng) for p in sample)


def _gate_scan(inp, outputs, rng) -> set[int]:
    curve = elliptic.parse_curve(inp["curve"])
    good = curve.good_primes(inp["pmax"])
    failed = set()
    tables = {}
    for i, (k, out) in enumerate(zip(inp["ks"], outputs)):
        try:
            tables[i] = gate.parse_scan_csv(out)
        except ValueError:
            failed.add(i)
            continue
        rows = tables[i]
        small = [r for r in rows if r[0] < VERDICT_PMAX]
        if not gate.check_scan_rows(rows, k, good) or not all(
            gate.check_verdict(curve, k, p, perm) for p, _, _, perm in rng.sample(small, min(SAMPLED_VERDICTS, len(small)))
        ):
            failed.add(i)
    if 0 in tables:
        if not _check_curve_aps(curve, {p: ap for p, ap, _, _ in tables[0]}, rng):
            failed.add(0)
        failed |= {i for i in tables if i and not gate.check_warm_scan(tables[0], tables[i])}
    return failed


def _gate_density(inp, outputs, rng) -> set[int]:
    failed = set()
    for i, (spec, out) in enumerate(zip(inp["curves"], outputs)):
        curve = elliptic.parse_curve(spec)
        a4, a6 = int(curve.a4), int(curve.a6)
        if i == 0:  # irreducible 2-division cubic: the Chebotarev density
            ok = gate.check_density(out, Fraction(*gen.galois_density_k2(a4, a6)), DENSITY_TOLERANCE)
        else:  # rational 2-torsion: no permutation prime at all
            ok = gate.check_density(out, Fraction(0), Fraction(0))
        primes = rng.sample(curve.good_primes(inp["pmax"]), SAMPLED_PRIMES)
        aps = {p: elliptic.count_points(curve, p)[1] for p in primes}
        if not ok or not _check_curve_aps(curve, aps, rng):
            failed.add(i)
    return failed


def _gate_perm(inp, outputs, rng) -> set[int]:
    failed = set()
    i = 0
    for spec in inp["curves"]:
        curve = elliptic.parse_curve(spec)
        good = perm_primes(curve, inp)
        try:
            traces = {int(p): int(ap) for p, ap in (t.split(":") for t in outputs[i].split(","))}
        except (AttributeError, ValueError):  # the op raised or printed something else
            traces = {}
        traces_ok = list(traces) == good and _check_curve_aps(curve, traces, rng)
        if not traces_ok:
            failed.add(i)
        i += 1
        for k in range(2, inp["kmax"] + 1):
            out = outputs[i]
            ok = out is not None and traces_ok
            if ok:
                torsion = out.split(" ")[1] != "torsion="
                bits = out.rsplit("perm=", 1)[1]
                ok = len(bits) == len(good) and gate.check_perm(
                    [(p, b == "1") for p, b in zip(good, bits)], traces, k, torsion
                )
            if not ok:
                failed.add(i)
            i += 1
        p = rng.choice([q for q in good if q > 50 and inp["map_k"] % q])
        if outputs[i] is None or not gate.check_map(curve, inp["map_k"], outputs[i], p, rng):
            failed.add(i)
        i += 1
    return failed


def _gate_cm(inp, outputs) -> set[int]:
    failed = set()
    for i, (row, out) in enumerate(zip(inp["rows"], outputs)):
        if out != ", ".join(map(str, gen.STRATEGY_GOLDEN[tuple(row)])) + "\n":
            failed.add(i)
    failed |= {i for i in range(len(inp["rows"]), len(outputs)) if outputs[i] != "True"}
    return failed


def gate_outputs(workload: str, inp: dict, outputs: list, seed: int, sample: int = 0) -> set[int]:
    """Indices of ops whose output fails its check.  `outputs[i]` is None
    when op i raised.  Each sample of a run checks other sampled primes."""
    rng = random.Random(f"gate:{workload}:{seed}:{sample}")
    failed = {i for i, out in enumerate(outputs) if out is None}
    if workload == "scan":
        failed |= _gate_scan(inp, [o or "" for o in outputs], rng)
    elif workload == "density":
        failed |= _gate_density(inp, [o or "" for o in outputs], rng)
    elif workload == "perm":
        failed |= _gate_perm(inp, outputs, rng)
    elif workload == "cm-arith":
        failed |= _gate_cm(inp, outputs)
    return failed
