"""lattes-lab benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run from the root of a lattes-lab checkout.  Workloads: scan, density, perm
and cm-arith (see BENCHMARK.json for why each exists).  Each sample runs in a
fresh interpreter (perfbench/sample.py), so no lru_cache or division
polynomial cache carries over: a CLI user pays for them on every call.
Samples run back to back until --seconds have passed, with at least three.

With --trace 0 the end-to-end metrics are the median over samples of:
setup_s (process spawn to the first timed call: interpreter, import, input
generation), wall_s and cpu_s of the timed section (CPU includes reaped pool
workers), each rescaled to a fixed host speed, and peak_rss_mb (the process or
its largest worker).  The speed of a shared host drifts by up to half over
tens of seconds.  sample.py times a fixed pure-Python loop right after set-up
and between ops; set-up time and each op's time are multiplied by
CALIBRATION_REF_S / the loop's time next to them, so a slow host scales both
alike and the product stays put.  The raw times are printed too.  With
--trace 1 samples alternate between untraced and traced; the per-layer metrics
(raw seconds) are the median over traced samples, and trace.overhead_frac
compares the rescaled wall_s of the two kinds.

The seed's inputs are printed beside the metrics.  Every op's output goes
through the correctness gate, and for the reference seed the digest of each
op whose output the gate does not fix must equal perfbench/reference.json.
Human-readable lines come first; the last line of stdout is the JSON result.
Exit 2 when the package sources are missing, 1 when a sample process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import inputs
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("scan", "density", "perm", "cm-arith")
MIN_SAMPLES = 3
SAMPLE_TIMEOUT_S = 120
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MiB"))
REFERENCE = os.path.join(HERE, "reference.json")
# sample.calibrate() on an idle 2-CPU Xeon at 2.1 GHz (Python 3.11.7): the
# speed that setup_s, wall_s and cpu_s are rescaled to
CALIBRATION_REF_S = 0.011
RESCALED = ("setup_s", "wall_s", "cpu_s")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def machine_info(numpy_version: str) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(), "numpy": numpy_version}


def run_sample(root: str, workload: str, seed: int, trace: bool, tmpdir: str, index: int) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    argv = [sys.executable, os.path.join(HERE, "sample.py"), workload, str(seed), "1" if trace else "0", tmpdir, str(index)]
    t_spawn = time.monotonic()
    proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"sample process failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result.pop("t_first") - t_spawn
    result["traced"] = trace
    return result


def rescaled(sample: dict, name: str) -> float:
    """The sample's setup_s, wall_s or cpu_s at the speed CALIBRATION_REF_S:
    set-up time scaled by the calibration right after it, each op's time by
    the calibration next to that op."""
    if name == "setup_s":
        return sample["setup_s"] * CALIBRATION_REF_S / sample["setup_cal_s"]
    return sum(t * CALIBRATION_REF_S / c for t, c in zip(sample["op_" + name], sample["op_cal_s"]))


def end_to_end(samples: list[dict]) -> dict[str, float]:
    values = {name: statistics.median(rescaled(s, name) for s in samples) for name in RESCALED}
    values["peak_rss_mb"] = statistics.median(s["peak_rss_mb"] for s in samples)
    return values


def count_failures(samples: list[dict], reference: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages).  An op fails when it raised, when the
    gate rejected it, when its digest differs from the first sample's, or,
    unless the gate fixes its whole output, when it differs from the stored
    reference (an op missing from the reference differs)."""
    attempted = failed = 0
    messages: list[str] = []
    first = samples[0]["digests"]
    for s in samples:
        bad = set(s["failed"])
        bad |= {i for i, d in enumerate(s["digests"]) if d != first[i]}
        if reference is not None:
            bad |= {i for i, (name, d) in enumerate(zip(s["ops"], s["digests"]))
                    if i not in s["pinned"] and reference.get(name) != d}
        attempted += len(s["digests"])
        failed += len(bad)
        messages += s["errors"] + [f"check failed: {s['ops'][i]}" for i in sorted(bad)]
    return attempted, failed, messages


def load_reference(workload: str, seed: int) -> dict | None:
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    return ref["digests"].get(workload, {}) if seed == ref["seed"] else None


def write_reference(workload: str, seed: int, sample: dict):
    """Store the sample's digests by op name, leaving out the ops whose
    output the gate fixes."""
    ref = {"seed": seed, "digests": {}}
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as fh:
            ref = json.load(fh)
        if ref["seed"] != seed:
            raise SystemExit(f"reference.json holds seed {ref['seed']}, not {seed}")
    digests = {name: d for i, (name, d) in enumerate(zip(sample["ops"], sample["digests"]))
               if i not in sample["pinned"]}
    if digests:
        ref["digests"][workload] = digests
    else:
        ref["digests"].pop(workload, None)
    with open(REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store this run's output digests as the reference for its seed")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lattes_lab", "__init__.py")):
        print("error: run from the root of a lattes-lab checkout (src/lattes_lab not found)", file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench_tmp")
    os.makedirs(work, exist_ok=True)
    samples: list[dict] = []
    start = time.monotonic()
    try:
        while len(samples) < MIN_SAMPLES + args.trace or time.monotonic() - start < args.seconds:
            trace = bool(args.trace) and len(samples) % 2 == 1
            tmpdir = tempfile.mkdtemp(dir=work)
            try:
                samples.append(run_sample(root, args.workload, args.seed, trace, tmpdir, len(samples)))
            finally:
                shutil.rmtree(tmpdir, ignore_errors=True)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.write_reference:
        write_reference(args.workload, args.seed, samples[0])
    attempted, failed, messages = count_failures(samples, load_reference(args.workload, args.seed))
    for m in messages[:20]:
        print(f"FAIL {m}")

    plain = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} samples, {len(traced)} traced; "
          f"machine {json.dumps(machine_info(samples[0]['numpy']))}")
    print(f"inputs {json.dumps(inputs.make_inputs(args.workload, args.seed))}")
    print(f"fail_frac {failed}/{attempted} = {failed / attempted:.6f} (ratio); "
          f"gate median {statistics.median(s['gate_s'] for s in samples):.3f} s per sample")
    q1, med, q3 = quartiles([c for s in plain for c in s["op_cal_s"]])
    print(f"calibration  median {med:.6g} s  quartiles [{q1:.6g}, {q3:.6g}]  reference {CALIBRATION_REF_S} s")
    values = end_to_end(plain)
    for name, unit in END_TO_END:
        if name in RESCALED:
            q1, med, q3 = quartiles([rescaled(s, name) for s in plain])
            raw = quartiles([s[name] for s in plain])
            print(f"{name:12s} median {med:.6g} {unit}  quartiles [{q1:.6g}, {q3:.6g}]  n={len(plain)}  "
                  f"(raw: median {raw[1]:.6g} quartiles [{raw[0]:.6g}, {raw[2]:.6g}])")
        else:
            q1, med, q3 = quartiles([s[name] for s in plain])
            print(f"{name:12s} median {med:.6g} {unit}  quartiles [{q1:.6g}, {q3:.6g}]  n={len(plain)}")
    if args.trace:
        metrics = layer_report(args, plain, traced)
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def layer_report(args, plain: list[dict], traced: list[dict]) -> dict:
    """Median per-layer metrics over the traced samples, plus the tracing
    overhead; the spans of the last traced sample go to .perfbench_out/."""
    traced_wall = statistics.median(s["wall_s"] for s in traced)
    layers = {name: statistics.median(s["layers"][name] for s in traced) for name in traced[0]["layers"]}
    layers["trace.overhead_frac"] = (statistics.median(rescaled(s, "wall_s") for s in traced)
                                     / end_to_end(plain)["wall_s"] - 1)
    out_dir = os.path.join(os.getcwd(), ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json"), "w") as fh:
        json.dump({"machine": machine_info(traced[-1]["numpy"]), "wall_s": traced[-1]["wall_s"], "spans": traced[-1]["spans"]}, fh)
    print("layer shares of traced wall time (inclusive; nested layers overlap):")
    for name, value in sorted(layers.items()):
        if name.endswith(".s") and value > 0:
            print(f"  {name:40s} {value:10.4f} s  {value / traced_wall:6.1%}")
    return {name: {"value": value, "unit": tracer.layer_unit(name)} for name, value in layers.items()}


if __name__ == "__main__":
    sys.exit(main())
