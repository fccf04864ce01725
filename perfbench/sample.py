"""One sample of a workload, in a fresh interpreter.

    python3 perfbench/sample.py WORKLOAD SEED TRACE TMPDIR INDEX

run.py starts this with lattes_lab's `src` directory on PYTHONPATH.  It
imports the package, makes the seed's inputs and the workload's ops, then runs
the ops back to back as the timed section, with or without the span
recorder.  After the timed section it runs the correctness gate and prints one
JSON object: the monotonic clock at the first timed call (run.py subtracts its
own clock at spawn time to get set-up time), wall and CPU time of the timed
section including reaped pool workers, peak RSS, per-op output digests, the
failed ops, the ops whose output the gate fixes and, when traced, the spans
and the per-layer metrics.  Wall and CPU time are also given per op, with the
calibration time next to each op and right after set-up (see `calibrate`).
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


CALIBRATION_EVERY_S = 0.2  # the calibration loop runs between ops at most this often


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop (about 11 ms on an idle 2.1 GHz
    Xeon).  It touches nothing of lattes_lab, so only the host's speed at that
    moment changes it; run.py divides op times by it."""
    t0 = time.perf_counter()
    s = 0
    for i in range(150_000):
        s += i * i % 7
    return time.perf_counter() - t0


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN gives the largest reaped child
    return max(resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024


def main(argv: list[str]) -> int:
    workload, seed, trace, tmpdir, index = argv[0], int(argv[1]), argv[2] == "1", argv[3], int(argv[4])

    import lattes_lab  # noqa: F401  (set-up cost a CLI user pays on every call)
    import numpy

    import gate
    import inputs
    import tracer
    import workloads

    inp = inputs.make_inputs(workload, seed)
    ops = workloads.build(workload, inp, tmpdir)
    rec = tracer.Recorder() if trace else None
    if rec is not None:
        rec.install()

    outputs: list = []
    errors: list[str] = []
    op_wall: list[float] = []
    op_cpu: list[float] = []
    cal: list[float] = []
    cal_before: list[int] = []  # op i ran between calibrations cal_before[i] and cal_before[i] + 1
    t_first = time.monotonic()
    for op in ops:
        if not cal or time.perf_counter() - t_cal >= CALIBRATION_EVERY_S:
            cal.append(calibrate())
            t_cal = time.perf_counter()
        cal_before.append(len(cal) - 1)
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            outputs.append(op.run())
        except Exception as exc:  # a failing op is counted, not fatal
            outputs.append(None)
            errors.append(f"{op.name}: {type(exc).__name__}: {exc}")
        op_wall.append(time.perf_counter() - t0)
        op_cpu.append(_cpu_s() - cpu0)
    cal.append(calibrate())
    rss = _peak_rss_mb()
    if rec is not None:
        rec.uninstall()

    t_gate = time.perf_counter()
    failed = workloads.gate_outputs(workload, inp, outputs, seed, index)
    gate_s = time.perf_counter() - t_gate
    result = {
        "t_first": t_first,
        "wall_s": sum(op_wall),
        "cpu_s": sum(op_cpu),
        "op_wall_s": op_wall,
        "op_cpu_s": op_cpu,
        "setup_cal_s": cal[0],
        "op_cal_s": [(cal[j] + cal[j + 1]) / 2 for j in cal_before],
        "peak_rss_mb": rss,
        "ops": [op.name for op in ops],
        "pinned": [i for i, op in enumerate(ops) if op.pinned],
        "digests": [None if o is None else gate.digest(o) for o in outputs],
        "failed": sorted(failed),
        "errors": errors,
        "gate_s": gate_s,
        "numpy": numpy.__version__,
    }
    if rec is not None:
        result["spans"] = rec.spans
        result["layers"] = tracer.layer_metrics(rec.spans, rec.counts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
