import hashlib
import inspect
import os
from math import gcd

import pytest
from conftest import pool_chunks

from lattes_lab import elliptic, exceptionality, intmath, quadorder
from lattes_lab.elliptic import (
    CATALOG,
    CATALOG_BY_NAME,
    Curve,
    cm_disc_for,
    cm_model,
    count_points,
    curve_hash,
    format_curve,
    frobenius_trace,
    noncm_family,
)
from lattes_lab.exceptionality import (
    STRATEGY_TABLE,
    WITNESS_THRESHOLD,
    ScanRow,
    TraceCache,
    exceptionality_report,
    frobenius_scan,
    is_cubic_residue,
    map_primes,
    permutes,
    render_scan_csv,
    render_scan_markdown,
    scan,
    strategy_primes,
    trace_record,
    twist_product_check,
    verify_d11_obstruction,
    verify_noncm_counterexample,
)
from lattes_lab.galois import coprime_verdicts, empirical_density, torsion_roots
from lattes_lab.intmath import kronecker, primes_upto

D4 = CATALOG_BY_NAME["d4"].curve
D11 = CATALOG_BY_NAME["d11"].curve
D12 = CATALOG_BY_NAME["d12"].curve
D3 = CATALOG_BY_NAME["d3"].curve


def test_trace_record_reference_values():
    r = trace_record(D4, 5)
    assert (r.ap, r.Ap, r.splitting) == (2, 32, "split")
    r = trace_record(D11, 5)
    assert (r.ap, r.Ap, r.splitting) == (-3, 27, "split")
    r = trace_record(CATALOG_BY_NAME["d7"].curve, 19)
    assert (r.ap, r.Ap) == (0, 400)
    r = trace_record(CATALOG_BY_NAME["k2-s3"].curve, 7)
    assert r.splitting is None  # never inferred for non-CM curves
    assert r.Ap == (7 + 1) ** 2 - r.ap**2


def test_permutes_methods_and_agreement():
    v = permutes(D4, 3, 11, "both")
    assert (v.gcd_value, v.permutes) == (3, False)
    v = permutes(D12, 5, 11, "both")
    assert v.permutes
    v = permutes(D11, 7, 13, "both")
    assert (v.gcd_value, v.permutes) == (7, False)
    v = permutes(D4, 1, 7, "criterion")
    assert v.permutes and v.gcd_value == 1
    # p dividing k stays consistent across both methods
    for curve, k, p in ((D4, 5, 5), (D4, 10, 5), (D11, 7, 7), (D3, 14, 7)):
        permutes(curve, k, p, "both")
    with pytest.raises(ValueError):
        permutes(D4, 3, 11, "magic")


def test_scan_matches_reference_rows():
    rows = scan(D4, 3, [5, 7, 11, 13, 19, 23, 29, 31])
    assert [(r.p, r.symbol, r.ap, r.gcd_value, r.permutes) for r in rows] == [
        (5, 1, 2, 1, True),
        (7, -1, 0, 1, True),
        (11, -1, 0, 3, False),
        (13, 1, -6, 1, True),
        (19, -1, 0, 1, True),
        (23, -1, 0, 3, False),
        (29, 1, 10, 1, True),
        (31, -1, 0, 1, True),
    ]
    rows = scan(CATALOG_BY_NAME["d19"].curve, 3, [5, 7, 11, 13, 17, 23, 29, 41])
    assert [r.permutes for r in rows] == [True] * 6 + [False, False]
    rows = scan(D4, 1, [5, 7, 11])
    assert all(r.permutes for r in rows)  # gcd(., 1) = 1


def test_scan_rejects_bad_primes():
    with pytest.raises(ValueError):
        scan(D11, 6, [5, 11])  # 11 divides the discriminant


def test_scan_annotates_p_dividing_k():
    rows = scan(D4, 5, [5, 7])
    assert rows[0].note == "p|k" and rows[1].note == ""


def per_row_scan(curve, k, primes):
    # the reference: scan's rows built one prime at a time, as scan did
    # before it built them by columns
    disc = cm_disc_for(curve)
    traces = frobenius_scan(curve, primes)
    rows = []
    for p in sorted(primes):
        ap = traces[p]
        Ap = (p + 1) ** 2 - ap * ap
        g = gcd(Ap, k)
        symbol = kronecker(disc, p) if disc is not None else None
        rows.append((p, symbol, ap, g, g == 1, "p|k" if k % p == 0 else ""))
    return rows


@pytest.mark.parametrize(
    "curve, k",
    [(D11, 30), (D4, 10), (Curve(0, 0, 0, 1, 1), 35), (noncm_family("E", 1), 6 * 7 * 11)],
)
def test_scan_rows_match_the_per_row_formula(curve, k):
    primes = curve.good_primes(3000)[::-1]  # scan sorts them
    want = per_row_scan(curve, k, primes)
    rows = scan(curve, k, primes)
    assert any(note for *_, note in want) and not all(ok for *_, ok, _ in want)
    assert len(rows) == len(want)
    for row, (p, symbol, ap, g, ok, note) in zip(rows, want):
        assert type(row) is ScanRow
        assert (row.p, row.symbol, row.ap, row.gcd_value, row.permutes, row.note) == (p, symbol, ap, g, ok, note)
        assert row == (p, symbol, ap, g, ok, note)  # a named tuple equals its fields


def test_scan_row_keeps_its_fields_and_stays_immutable():
    row = ScanRow(5, None, 2, 1, True)
    assert ScanRow._fields == ("p", "symbol", "ap", "gcd_value", "permutes", "note")
    assert row.note == "" and row == (5, None, 2, 1, True, "")
    with pytest.raises(AttributeError):
        row.ap = 3


def test_scan_rejects_k_below_1_before_any_trace(monkeypatch):
    def reached(*args, **kwargs):
        raise AssertionError("a_p computed for k < 1")

    monkeypatch.setattr(exceptionality, "frobenius_scan", reached)
    for k in (0, -6):
        with pytest.raises(ValueError, match="k must be >= 1"):
            scan(D4, k, [5, 7])


def test_render_formats():
    rows = scan(D11, 6, [5, 7])
    csv = render_scan_csv(rows)
    assert csv.splitlines()[0] == "p,symbol,ap,gcd,permutes"
    assert csv.splitlines()[1] == "5,+1,-3,3,no"
    md = render_scan_markdown(rows, 6, -11)
    assert "| 5 | +1 | -3 | 3 | No |" in md


def test_strategy_primes_reference():
    assert strategy_primes(-4, 3, 3) == [7, 19, 31]
    assert strategy_primes(-7, 3, 1) == [19]
    assert strategy_primes(-11, 3, 1) == [13]
    assert strategy_primes(-3, 2, 4) == [7, 13, 19, 37]
    assert strategy_primes(-27, 2, 4) == [7, 13, 19, 37]


def test_strategy_primes_soundness_sample():
    cases = [(-4, 9), (-16, 3), (-8, 5), (-28, 3), (-12, 7), (-3, 5), (-27, 5)]
    for D, k in cases:
        ps = strategy_primes(D, k, 25)
        assert len(ps) == 25 and ps == sorted(ps)
    # element-search rows
    for D, k in ((-19, 3), (-43, 2), (-11, 2), (-3, 2)):
        ps = strategy_primes(D, k, 3)
        assert len(ps) == 3


def test_strategy_element_search_walks_the_split_primes_once(monkeypatch):
    # each row reads one ascending walk of primes, up to the norm cap: the
    # element-search rows and the congruence row (-11, 3) alike
    walks = []
    walk = intmath._prime_windows

    def spy(limit):
        walks.append(limit)
        return walk(limit)

    monkeypatch.setattr(intmath, "_prime_windows", spy)
    rows = {
        (-11, 3, 3): [13, 79, 211],
        (-19, 3, 3): [5, 11, 17],
        (-43, 2, 3): [11, 13, 17],
        (-11, 2, 3): [3001, 3067, 3089],
        (-3, 2, 3): [7, 13, 19],
        (-43, 10, 4): [269, 359, 379, 479],
        (-163, 9, 4): [41, 47, 53, 71],
        (-11, 5, 1): [8699],
        (-11, 4, 3): [3001, 3067, 3089],
        (-3, 10, 2): [163, 313],
        (-11, 7, 10): [253999, 310363, 376583, 416623, 469907, 649471, 750803, 770053, 799313, 861221],
        (-11, 35, 8): [1696979, 1941839, 5834189, 7299499, 9456269, 11569919, 12279089, 15436859],
    }
    for (D, k, count), want in rows.items():
        walks.clear()
        assert strategy_primes(D, k, count) == want, (D, k, count)
        assert walks == [131_072_000], (D, k, count)


def test_strategy_congruence_route_stops_at_the_norm_cap(monkeypatch):
    # p = 7 (mod 12) holds 311 primes below 10^4, so with the cap at
    # 10^4 the row cannot reach 2000 primes and must fail, not walk on
    monkeypatch.setattr(exceptionality, "_STRATEGY_NORM_CAP", 10**4)
    assert strategy_primes(-4, 3, 5) == [7, 19, 31, 43, 67]
    with pytest.raises(ArithmeticError, match="exhausted"):
        strategy_primes(-4, 3, 2000)


def test_strategy_element_search_solves_only_masked_primes(monkeypatch):
    # without the norm-class mask the row solves the norm equation at all
    # 498 532 split primes below its last norm; the mask must keep at most
    # 1/20 of them, so a mask that admits every class cannot pass unnoticed
    solved = []
    solve = quadorder._split_prime_solutions

    def spy(order, p):
        solved.append(p)
        return solve(order, p)

    monkeypatch.setattr(quadorder, "_split_prime_solutions", spy)
    assert strategy_primes(-11, 35, 8)[-1] == 15436859
    assert 8 <= len(solved) <= 498_532 // 20, len(solved)


def test_strategy_soundness_suite_50():
    """Congruence rows emit 50 sound primes each (postcondition-checked)."""
    from lattes_lab.suites import suite_strategies

    res = suite_strategies()
    assert res.ok, res.failures
    assert sum("first 50 primes sound" in line for line in res.lines) == 7


def test_check_curves_come_from_the_catalog():
    # strategy_primes' check curve is cm_model(D), which is the catalog
    # curve of D wherever the catalog has one, d3 = cm_model(-3, 2) for
    # D = -3 included; exceptionality_report's obstruction tags are derived
    # from the CM tables.  Pinned here to the values they were written out as
    check = {D: exceptionality._check_curve(D) for D in quadorder.CLASS_NUMBER_ONE_DISCS}
    assert {D: next((e.name for e in CATALOG if e.curve == c), None) for D, c in check.items()} == {
        -3: "d3", -4: "d4", -7: "d7", -8: "d8", -11: "d11", -12: "d12", -16: None,
        -19: "d19", -27: "d27", -28: None, -43: None, -67: None, -163: None,
    }
    assert all(check[D] == cm_model(D) for D in (-16, -28, -43, -67, -163))
    # -16 and -28 share their CM field with d4 and d7, and their models have
    # the same bad primes from 5 on and the same a_p^2, so a row emits the
    # same primes on either
    for D, name in ((-16, "d4"), (-28, "d7")):
        old = CATALOG_BY_NAME[name].curve
        assert check[D].primes_by_reduction(3000) == old.primes_by_reduction(3000), D
        assert all(count_points(check[D], p)[1] ** 2 == count_points(old, p)[1] ** 2 for p in old.good_primes(3000)), D
    assert exceptionality._OBSTRUCTED_J == {
        -32768: "cm-disc-11", -5184: "noncm-family-e", -138240: "noncm-family-f",
    }


def test_strategy_rows_without_a_catalog_curve_are_checked_on_the_cm_model(monkeypatch):
    # D = -43 has no catalog curve; its row, like every row but D = -3's,
    # is checked on cm_model(D)
    seen = []

    def spy(curve, p):
        seen.append((curve, p))
        return frobenius_trace(curve, p)

    monkeypatch.setattr(exceptionality, "frobenius_trace", spy)
    primes = strategy_primes(-43, 10, 4)
    assert seen == [(cm_model(-43), p) for p in primes] and len(primes) == 4
    with pytest.raises(ValueError, match="no strategy row"):
        strategy_primes(-15, 3, 1)


def test_strategy_inadmissible():
    with pytest.raises(ValueError):
        strategy_primes(-4, 2, 3)  # k must be odd
    with pytest.raises(ValueError):
        strategy_primes(-12, 3, 3)  # gcd(k, 6) must be 1
    with pytest.raises(ValueError):
        strategy_primes(-11, 6, 3)  # no strategy when 6 | k
    with pytest.raises(ValueError):
        strategy_primes(-3, 3, 3)


# sha256 of the strategy grid below, which every form of the congruence
# recipes and the element constraints must reproduce
STRATEGY_GRID_SHA256 = "1fd5b345fe835cae11e44b675dc4df2402066eda41663a305e76e32e7632917a"


def test_strategy_grid_is_unchanged():
    # every class-number-one D and every k in 2..12: the first four primes
    # of the row, or the type and message of the error it raises
    lines = []
    for D in quadorder.CLASS_NUMBER_ONE_DISCS:
        for k in range(2, 13):
            try:
                out = " ".join(map(str, strategy_primes(D, k, 4)))
            except Exception as exc:
                out = f"{type(exc).__name__}: {exc}"
            lines.append(f"{D} {k} {out}")
    assert len(lines) == 143 and sum("Error: " in line for line in lines) == 48
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == STRATEGY_GRID_SHA256


def test_strategy_table_shape():
    assert len(STRATEGY_TABLE) == 8
    discs = [d for row in STRATEGY_TABLE for d in row.discs]
    assert sorted(discs) == sorted(
        [-3, -4, -7, -8, -11, -12, -16, -19, -27, -28, -43, -67, -163]
    )


def test_twist_product_check():
    assert twist_product_check(D3, 7, 3)       # 3 is a non-residue mod 7
    assert twist_product_check(D4, 13, 2)      # 2 is a non-residue mod 13
    with pytest.raises(ValueError):
        twist_product_check(D3, 7, 1)          # 1 is a square


def test_is_cubic_residue():
    assert is_cubic_residue(3, 5)
    assert not is_cubic_residue(3, 7)
    assert is_cubic_residue(8, 7)
    cubes_mod_13 = {pow(x, 3, 13) for x in range(1, 13)}
    for a in range(1, 13):
        assert is_cubic_residue(a, 13) == (a in cubes_mod_13)
    with pytest.raises(ValueError):
        is_cubic_residue(26, 13)


def test_verify_d11_obstruction():
    rep = verify_d11_obstruction(D11, 500)
    assert rep.ok and rep.violations == ()
    assert 11 in rep.skipped
    # the gcd table rows: gcd(A_p, 6) is 3 at p=5, 2 at p=7, 6 at p=47
    rows = scan(D11, 6, [5, 7, 47])
    assert [r.gcd_value for r in rows] == [3, 2, 6]
    from lattes_lab.elliptic import cm_model

    assert verify_d11_obstruction(cm_model(-11, 2), 300).ok


def test_verify_d11_obstruction_rejects_a_curve_without_cm_by_minus_11(monkeypatch):
    # a wrong curve is a usage error, refused before any scan, not a list
    # of violations that would read as a counterexample
    def reached(*args, **kwargs):
        raise AssertionError("a scan ran for a curve without CM by -11")

    monkeypatch.setattr(exceptionality, "frobenius_scan", reached)
    for curve in (Curve(0, 0, 0, 1, 1), D4):
        with pytest.raises(ValueError, match="no CM by -11"):
            verify_d11_obstruction(curve, 300)


def test_the_cm_discriminant_is_read_from_the_curve():
    # no entry point takes D: each looks it up by j
    for fn in (scan, trace_record, permutes):
        assert "disc" not in inspect.signature(fn).parameters, fn.__name__
    twist = Curve(0, 0, 0, -1056, 13552)  # cm_model(-11, 2), outside the catalog
    assert [r.symbol for r in scan(twist, 6, [5, 7])] == [1, -1]
    assert trace_record(twist, 7).splitting == "inert"


def test_verify_noncm_counterexample():
    for family in ("E", "F"):
        rep = verify_noncm_counterexample(family, 1, 500)
        assert rep.ok
    # by hand at small primes for family E, u=1
    c = noncm_family("E", 1)
    _, a5 = count_points(c, 5)
    assert is_cubic_residue(3, 5) and ((5 + 1) ** 2 - a5 * a5) % 2 == 0
    _, a7 = count_points(c, 7)
    assert not is_cubic_residue(3, 7) and ((7 + 1) ** 2 - a7 * a7) % 3 == 0


def test_exceptionality_report_verdicts():
    r = exceptionality_report(D3, 2, 100)
    assert r.verdict == "exceptional-evidence"
    assert set([7, 13, 19, 37]) <= set(r.witnesses)
    assert r.witness_density is not None

    r = exceptionality_report(D11, 6, 100)
    assert r.verdict == "obstructed" and r.obstruction == "cm-disc-11"
    assert not r.witnesses and not r.torsion_x

    r = exceptionality_report(D11, 7, 50)
    assert set([5, 7, 17, 23, 31]) <= set(r.witnesses)

    r = exceptionality_report(D4, 2, 200)
    assert r.verdict == "not-exceptional" and not r.witnesses
    assert r.torsion_x == frozenset({0})

    r = exceptionality_report(noncm_family("E", 1), 6, 200)
    assert r.verdict == "obstructed" and r.obstruction == "noncm-family-e"

    r = exceptionality_report(noncm_family("F", 2), 12, 200)
    assert r.verdict == "obstructed" and r.obstruction == "noncm-family-f"

    # inconclusive: up to 60 the good primes give one witness fewer than
    # the threshold, and 61 is the fifth
    r = exceptionality_report(D3, 2, 60)
    assert r.verdict == "inconclusive" and len(r.witnesses) == WITNESS_THRESHOLD - 1 == 4
    assert exceptionality_report(D3, 2, 61).verdict == "exceptional-evidence"


def test_report_witnesses_are_the_scan_verdicts():
    # the report takes its witnesses from coprime_verdicts, the scan's
    # rows from a_p: both must name the same primes
    for entry in CATALOG:
        good = entry.curve.good_primes(200)
        for k in (1, 2, 3, 4, 5, 6, 7, 10, 12):
            witnesses = tuple(row.p for row in scan(entry.curve, k, good) if row.permutes)
            assert exceptionality_report(entry.curve, k, 200).witnesses == witnesses, (entry.name, k)


def test_report_lists_bad_primes():
    r = exceptionality_report(D11, 7, 100)
    assert 11 in r.bad_primes


def test_cache_round_trip(tmp_path):
    path = str(tmp_path / "traces.txt")
    cache = TraceCache(path)
    good = D4.good_primes(200)
    cold = frobenius_scan(D4, good, cache=cache)
    cache.save()
    assert os.path.exists(path)
    with open(path) as fh:
        first = fh.readline().strip()
    assert first.count(",") == 2
    warm_cache = TraceCache(path)
    warm = frobenius_scan(D4, good, cache=warm_cache)
    assert warm == cold


def test_cached_scan_hashes_the_curve_once(tmp_path, monkeypatch):
    hashed = []
    real = hashlib.sha256
    monkeypatch.setattr(hashlib, "sha256", lambda data: hashed.append(data) or real(data))
    curve = Curve(*D4.ainvs())  # a fresh Curve, whose key is not yet computed
    good = curve.good_primes(2100)
    cache = TraceCache(str(tmp_path / "traces.txt"))
    traces = frobenius_scan(curve, good, cache=cache)
    assert hashed == [format_curve(D4).encode()]
    assert frobenius_scan(curve, good, cache=cache) == traces and len(hashed) == 1
    cache.save()
    monkeypatch.undo()
    # the file keeps its rows: the first 12 hex digits of the coefficient
    # vector's sha256, p and a_p
    key = hashlib.sha256(format_curve(D4).encode()).hexdigest()[:12]
    rows = "".join(f"{key},{p},{traces[p]}\n" for p in sorted(good))
    assert (tmp_path / "traces.txt").read_text() == rows


def test_worker_determinism(monkeypatch, pools):
    # jobs this small run in one process, so the fork threshold comes down
    monkeypatch.setattr(exceptionality, "_CHUNK_PRIMES", 8)
    good = [p for p in primes_upto(300) if p >= 5]
    one = frobenius_scan(D4, good, workers=1)
    many = frobenius_scan(D4, good, workers=8)
    assert one == many
    rows1 = scan(D4, 3, good, workers=1)
    rows8 = scan(D4, 3, good, workers=8)
    assert rows1 == rows8
    # both trace routes: the character sum below the batch's start, Shanks-Mestre above
    wide = D4.good_primes(6000)
    assert frobenius_scan(D4, wide, workers=2) == frobenius_scan(D4, wide, workers=1)
    # 8 chunks for the 60 good primes, 7 of them in the pool, and 2 for `wide`
    assert pools == [pool_chunks(len(good), 8)] * 2 + [pool_chunks(len(wide), 2)] == [7, 7, 1]


def _pids(chunk):
    return [os.getpid()] * len(chunk)


def test_map_primes_forks_only_past_its_break_even(pools):
    # min(workers, ceil(n / N)) chunks, dealt round-robin; the first runs
    # in this process and the others in a pool, so at most N primes never fork
    n = exceptionality._CHUNK_PRIMES
    for size, workers, handed in ((n, 8, 0), (n + 1, 8, 1), (3 * n + 1, 8, 3), (3 * n + 1, 2, 1), (8 * n, 1, 0)):
        pools.clear()
        pids = map_primes(_pids, range(size), workers)
        assert sorted(pids) == list(range(size)), (size, workers)
        assert pools == ([handed] if handed else []) and pool_chunks(size, workers) == handed, (size, workers)
        assert pids[0] == os.getpid() and 1 <= len(set(pids.values())) <= handed + 1, (size, workers)
        if handed:
            assert pids[1] != os.getpid(), (size, workers)


@pytest.mark.parametrize(
    "row, error",
    [
        ("5,2", "expected 'curvehash,p,ap'"),  # truncated
        ("abc,13,x", "expected 'curvehash,p,ap'"),
        ("abc,101,21", "Hasse"),  # 21^2 > 4 * 101
        ("abc,91,3", "91 is not prime"),
        ("abc,3,1", "outside"),
        (f"{curve_hash(D4)},5,-2", "a_p = -2 at p = 5 conflicts with a_p = 2"),
    ],
)
def test_cache_rejects_a_bad_row_by_its_line(tmp_path, row, error):
    path = tmp_path / "traces.txt"
    path.write_text(f"# a_p of d4\n{curve_hash(D4)},5,2\n{row}\n")
    with pytest.raises(ValueError, match=f"traces.txt:3: .*{error}"):
        TraceCache(str(path))


def test_cache_loads_an_identical_repeat(tmp_path):
    path = tmp_path / "traces.txt"
    path.write_text(f"{curve_hash(D4)},5,2\n{curve_hash(D4)},13,-6\n{curve_hash(D4)},5,2\n")
    cache = TraceCache(str(path))
    assert (cache.get(D4, 5), cache.get(D4, 13)) == (2, -6)


def test_cache_rejects_a_trace_at_a_bad_prime(tmp_path):
    path = tmp_path / "traces.txt"
    path.write_text(f"{curve_hash(D11)},11,0\n{curve_hash(D11)},13,4\n")
    cache = TraceCache(str(path))
    assert cache.get(D11, 13) == 4
    with pytest.raises(ValueError, match="bad reduction"):
        cache.get(D11, 11)


def test_cache_save_replaces_the_file_whole(tmp_path, monkeypatch):
    path = tmp_path / "traces.txt"
    cache = TraceCache(str(path))
    cache.put(D4, 5, 2)
    cache.save()
    before = path.read_text()
    cache.put(D4, 13, -6)

    def fail(src, dst):
        raise OSError("disk full")

    # a save that fails leaves the old file and no temporary file behind
    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError):
        cache.save()
    assert path.read_text() == before and os.listdir(tmp_path) == ["traces.txt"]
    monkeypatch.undo()
    cache.save()
    assert TraceCache(str(path)).get(D4, 13) == -6 and os.listdir(tmp_path) == ["traces.txt"]


def test_pmax_beyond_int64_is_refused_before_the_sieve(monkeypatch):
    def reached(limit):
        raise AssertionError(f"sieved up to {limit}")

    monkeypatch.setattr(elliptic, "primes_upto", reached)
    for entry in (
        lambda pmax: empirical_density(D4, 2, pmax),
        lambda pmax: verify_d11_obstruction(D11, pmax),
        lambda pmax: verify_noncm_counterexample("E", 1, pmax),
        lambda pmax: exceptionality_report(D3, 2, pmax),
    ):
        with pytest.raises(ValueError, match=r"^pmax = 2147483648 .*2\*\*31"):
            entry(2**31)


def test_one_sieve_pass_raises_the_per_prime_message():
    # a composite, a bad prime and p < 5 at the front, in the middle and at
    # the end of a long list, with a later composite: each entry point
    # raises the message of the per-prime check for the first offender
    # (frobenius_scan sorts its primes first)
    d7 = CATALOG_BY_NAME["d7"].curve
    primes = d7.good_primes(20000)
    entries = (
        lambda ps: frobenius_scan(d7, ps),
        lambda ps: coprime_verdicts(d7, 6, ps),
        lambda ps: torsion_roots(d7, 2, ps),
    )
    for offender in (1001, 7, 3):
        with pytest.raises(ValueError) as want:
            d7._require_good(offender)
        for at in (0, 1000, len(primes)):
            for entry in entries:
                with pytest.raises(ValueError) as got:
                    entry(primes[:at] + [offender] + primes[at:] + [20001])
                assert str(got.value) == str(want.value), (offender, at)
    # torsion_roots checks p = ell in its place in the list
    with pytest.raises(ValueError, match="not prime"):
        torsion_roots(d7, 5, [11, 1001, 5])
    with pytest.raises(ValueError, match="must differ"):
        torsion_roots(d7, 5, [11, 5, 1001])


def test_each_prime_is_checked_once(monkeypatch):
    # the entry points check all their primes by one sieve pass.  The
    # character sum, reached through count_points, checks p again (a
    # one-witness Miller-Rabin test there), but a list reaches it only below
    # the batch's start: the rows the arrays leave open continue on Python
    # ints, unchecked
    sieved, checked, drawn = [], [], []
    real_sieve, real, real_draw = elliptic._non_primes, elliptic.is_prime, elliptic._scalar_draw
    monkeypatch.setattr(elliptic, "_non_primes", lambda ns: sieved.append(sorted(ns)) or real_sieve(ns))
    monkeypatch.setattr(elliptic, "is_prime", lambda n: checked.append(n) or real(n))
    monkeypatch.setattr(elliptic, "_scalar_draw", lambda a, b, p, d: drawn.append(p) or real_draw(a, b, p, d))
    primes = D4.good_primes(3000)
    small = [p for p in primes if p < elliptic._MESTRE_FROM]
    scan(D4, 6, primes)
    assert sieved == [primes] and sorted(checked) == small
    assert any(p < 2000 for p in drawn) and len(checked) < len(primes) / 2
    sieved.clear()
    checked.clear()
    coprime_verdicts(D4, 0, primes)
    assert sieved == [primes] and sorted(checked) == small
    # one prime is checked once on either side of the crossover: by
    # count_points below it, and by frobenius_trace itself above it
    for p in (229, 233):
        sieved.clear()
        checked.clear()
        frobenius_trace(D4, p)
        assert sieved == [] and checked == [p]
