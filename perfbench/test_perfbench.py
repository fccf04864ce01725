"""Tests of the benchmark itself: the gate can fail, inputs are seeded, the
tracer wraps and restores, and BENCHMARK.json matches the metrics produced."""

import json
import os
import random
import shutil
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest

import gate
import inputs
import run
import tracer
import workloads
from lattes_lab import elliptic, exceptionality

HERE = os.path.dirname(os.path.abspath(__file__))
CURVE = elliptic.parse_curve("[0,0,0,-4,10]")


def test_check_ap_rejects_a_wrong_trace():
    rng = random.Random(1)
    for p in (101, 211, 1009):
        _, ap = elliptic.count_points(CURVE, p)
        assert gate.check_ap(CURVE, p, ap, rng)
        assert not gate.check_ap(CURVE, p, ap + 1, rng)
        assert not gate.check_ap(CURVE, p, 2 * p, rng)  # outside the Hasse bound


def test_check_verdict_rejects_a_flipped_verdict():
    for k, p in ((2, 101), (3, 103), (5, 107)):
        brute, _ = elliptic.lattes_map(CURVE, k).reduce_mod_p(p).is_bijection()
        assert gate.check_verdict(CURVE, k, p, brute)
        assert not gate.check_verdict(CURVE, k, p, not brute)


def test_check_map_rejects_a_wrong_rendering():
    from lattes_lab import polyrat

    rng = random.Random(2)
    text = polyrat.format_ratmap(elliptic.lattes_map(CURVE, 3))
    assert gate.parse_ratmap("(x^4 - 16x)/(4x^3 + 8)") == ({4: 1, 1: -16}, {3: 4, 0: 8})
    assert gate.check_map(CURVE, 3, text, 101, rng)
    other_k = polyrat.format_ratmap(elliptic.lattes_map(CURVE, 2))
    assert not gate.check_map(CURVE, 3, other_k, 101, rng)
    num, den = text.split(")/(")
    assert not gate.check_map(CURVE, 3, num + " + x)/(" + den, 101, rng)  # an extra term
    assert not gate.check_map(CURVE, 3, text.replace(" - ", " + ", 1), 101, rng)  # a flipped sign
    assert not gate.check_map(CURVE, 3, text.replace("x^", "x**"), 101, rng)  # not the CLI's format


def _scan_rows(k, pmax=200):
    good = CURVE.good_primes(pmax)
    rows = exceptionality.scan(CURVE, k, good)
    csv = exceptionality.render_scan_csv(rows)
    return good, gate.parse_scan_csv(csv)


def test_scan_checks_reject_altered_rows():
    good, rows = _scan_rows(6)
    assert gate.check_scan_rows(rows, 6, good)
    assert gate.check_warm_scan(rows, rows)
    p, ap, g, perm = rows[3]
    flipped = rows[:3] + [(p, ap, g, not perm)] + rows[4:]
    assert not gate.check_scan_rows(flipped, 6, good)
    other_ap = rows[:3] + [(p, ap + 2, g, perm)] + rows[4:]
    assert not gate.check_warm_scan(rows, other_ap)
    assert not gate.check_scan_rows(rows[1:], 6, good)  # a missing prime


def test_check_perm_rejects_a_flipped_verdict_and_torsion_witnesses():
    good = CURVE.good_primes(150)
    traces = exceptionality.frobenius_scan(CURVE, good)
    verdicts = [(p, elliptic.lattes_map(CURVE, 3).reduce_mod_p(p).is_bijection()[0]) for p in good]
    assert gate.check_perm(verdicts, traces, 3, torsion=False)
    p, v = verdicts[5]
    assert not gate.check_perm(verdicts[:5] + [(p, not v)] + verdicts[6:], traces, 3, torsion=False)
    assert any(v for _, v in verdicts)
    assert not gate.check_perm(verdicts, traces, 3, torsion=True)


def test_density_checks():
    assert gate.check_density("0 (0.000000)", Fraction(0), Fraction(0))
    assert not gate.check_density("1/700 (0.001429)", Fraction(0), Fraction(0))
    assert not gate.check_density("1/3 (0.5)", Fraction(1, 3), Fraction(1, 20))
    assert gate.check_density("17/50 (0.340000)", Fraction(1, 3), Fraction(1, 20))
    assert not gate.check_density("2/3 (0.666667)", Fraction(1, 3), Fraction(1, 20))


def test_strategy_golden_rows_are_split_primes():
    from lattes_lab import intmath

    assert set(inputs.STRATEGY_GOLDEN) == set(inputs.STRATEGY_ROWS)
    for (D, k, count), primes in inputs.STRATEGY_GOLDEN.items():
        assert len(primes) == count and primes == sorted(primes)
        assert all(intmath.is_prime(p) and intmath.kronecker(D, p) == 1 for p in primes)


def test_gate_outputs_marks_the_bad_op():
    inp = {"rows": [[-43, 10, 4]], "cubic": [], "sextic": [], "tower": [], "ed": []}
    good = "269, 359, 379, 479\n"
    assert workloads.gate_outputs("cm-arith", inp, [good, "True"], 1) == set()
    assert workloads.gate_outputs("cm-arith", inp, [good, "False"], 1) == {1}
    assert workloads.gate_outputs("cm-arith", inp, [None, "True"], 1) == {0}
    assert workloads.gate_outputs("cm-arith", inp, ["269, 359, 379, 491\n", "True"], 1) == {0}


def test_count_failures_counts_digest_mismatches():
    s = {"digests": ["a", "b", "c"], "failed": [], "errors": [], "ops": ["x", "y", "z"], "pinned": [2]}
    assert run.count_failures([s, s], {"x": "a", "y": "b"}) == (6, 0, [])
    assert run.count_failures([s], {"x": "a", "y": "c"})[:2] == (3, 1)
    assert run.count_failures([s], {"x": "a"})[:2] == (3, 1)  # y is missing from the reference
    t = dict(s, digests=["a", "z", "c"])
    assert run.count_failures([s, t], None)[:2] == (6, 1)
    u = dict(s, digests=["a", "b", "d"])
    assert run.count_failures([s, u], {"x": "a", "y": "b"})[:2] == (6, 1)  # a pinned op still matches sample 1


def test_end_to_end_rescales_times_to_the_reference_speed():
    ref = run.CALIBRATION_REF_S
    fast = {"setup_s": 0.2, "setup_cal_s": ref, "op_wall_s": [1.0, 3.0], "op_cpu_s": [1.0, 2.0],
            "op_cal_s": [ref, ref], "peak_rss_mb": 40.0}
    # the host 1.5 times slower throughout, then twice as slow during set-up and the first op only
    slow = dict(fast, setup_s=0.3, setup_cal_s=1.5 * ref, op_wall_s=[1.5, 4.5], op_cpu_s=[1.5, 3.0],
                op_cal_s=[1.5 * ref, 1.5 * ref])
    mixed = dict(fast, setup_s=0.4, setup_cal_s=2 * ref, op_wall_s=[2.0, 3.0], op_cal_s=[2 * ref, ref],
                 peak_rss_mb=41.0)
    for sample in (slow, mixed):
        assert run.rescaled(sample, "setup_s") == pytest.approx(0.2)
        assert run.rescaled(sample, "wall_s") == pytest.approx(4.0)
    assert run.rescaled(mixed, "cpu_s") == pytest.approx(2.5)
    assert run.end_to_end([fast, slow, mixed]) == pytest.approx(
        {"setup_s": 0.2, "wall_s": 4.0, "cpu_s": 3.0, "peak_rss_mb": 40.0})


def test_inputs_are_seeded_and_well_formed():
    for w in run.WORKLOADS:
        assert inputs.make_inputs(w, 7) == inputs.make_inputs(w, 7)
    assert inputs.make_inputs("scan", 7) != inputs.make_inputs("scan", 8)
    for seed in range(20):
        scan = inputs.make_inputs("scan", seed)
        assert scan["ks"][0] % 6 == 0
        dens = inputs.make_inputs("density", seed)
        assert not elliptic.torsion_x_rational(elliptic.parse_curve(dens["curves"][0]), 2)
        assert elliptic.torsion_x_rational(elliptic.parse_curve(dens["curves"][1]), 2)
        perm = inputs.make_inputs("perm", seed)
        long_model = elliptic.parse_curve(perm["curves"][2])
        assert all(a != 0 for a in long_model.ainvs()[:3])
        for spec in perm["curves"]:
            assert all(a.denominator == 1 for a in elliptic.parse_curve(spec).ainvs())


def test_symbol_inputs_are_primary_primes():
    from lattes_lab import eisenstein

    inp = inputs.make_inputs("cm-arith", 3)
    for x, y in inp["cubic"]:
        assert eisenstein.is_primary(eisenstein.eis(*x)) and eisenstein.is_primary(eisenstein.eis(*y))
    for x, y in inp["sextic"]:
        assert eisenstein.is_e_primary(eisenstein.eis(*x)) and eisenstein.is_e_primary(eisenstein.eis(*y))
    for d, pi in inp["ed"]:
        assert eisenstein.is_primary(eisenstein.eis(*pi))


def test_recorder_wraps_every_binding_and_restores():
    originals = (elliptic.count_points, exceptionality.count_points, elliptic.RatMap.reduce_mod_p)
    rec = tracer.Recorder()
    rec.install()
    try:
        assert exceptionality.count_points is elliptic.count_points is not originals[0]
        exceptionality.frobenius_scan(CURVE, [101, 103])
        elliptic.lattes_map(CURVE, 3).reduce_mod_p(101)
    finally:
        rec.uninstall()
    assert (elliptic.count_points, exceptionality.count_points, elliptic.RatMap.reduce_mod_p) == originals
    names = [s[0] for s in rec.spans]
    assert names.count("elliptic.count_points") == 2
    scan_idx = names.index("exceptionality.frobenius_scan")
    assert all(s[3] == scan_idx for s in rec.spans if s[0] == "elliptic.count_points")
    m = tracer.layer_metrics(rec.spans, rec.counts)
    assert m["elliptic.count_points.calls"] == 2
    assert m["exceptionality.frobenius_scan.primes"] == 2
    assert 0 <= m["exceptionality.frobenius_scan.self_s"] < m["exceptionality.frobenius_scan.s"]
    assert m["polyrat.reduce_mod_p.calls"] == 1


def test_span_times_subtract_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["b", 5.0, 6.0, 0], ["c", 1.5, 2.0, 1]]
    incl, self_s, calls = tracer.span_times(spans)
    assert incl == {"a": 10.0, "b": 4.0, "c": 0.5}
    assert self_s == {"a": 6.0, "b": 3.5, "c": 0.5}
    assert calls == Counter({"a": 1, "b": 2, "c": 1})
    retries = [["exceptionality.strategy_primes", 0, 1, -1]] + [["quadorder.find_prime_element", 0, 1, 0]] * 3
    assert tracer.find_prime_retries(retries) == (2, 1)


def test_benchmark_json_lists_the_produced_metrics():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    produced = list(tracer.layer_metrics([], Counter())) + ["trace.overhead_frac"]
    assert [m["name"] for m in bench["per_layer"]] == produced
    assert all(m["unit"] == tracer.layer_unit(m["name"]) for m in bench["per_layer"])
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(HERE, "..", "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
