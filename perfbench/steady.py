"""Steadiness report: run every workload on seeds 1..10 and show spreads.

    python3 perfbench/steady.py

Run from the root of a lattes-lab checkout.  Each run is
`perfbench/run.py --workload W --seed S --seconds <run_seconds> --trace 0`
for every workload W in BENCHMARK.json, with its run_seconds.  For every
workload and end-to-end metric it prints the median and quartiles over the
runs and the spread (q3 - q1) / median, flagged OVER when the spread exceeds
the metric's bound and HIGH when it exceeds a third of it.  It also prints
failed/attempted ops per workload, and exits 1 when a spread is OVER or an op
failed.  The raw results go to .perfbench_out/steady.json.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = range(1, 11)


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main() -> int:
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    results: dict[str, list[dict]] = {}
    for w in (w["name"] for w in bench["workloads"]):
        for seed in SEEDS:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                print(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            results.setdefault(w, []).append(res)
            print(f"{w} seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                  + f", failed {res['failed']}/{res['attempted']}", flush=True)

    worst = "ok"
    print(f"\n{'workload':10s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s} {'bound':>6s}")
    for w, runs in results.items():
        for m in bench["end_to_end"]:
            med, q1, q3, sp = spread([r["metrics"][m["name"]]["value"] for r in runs])
            flag = ""
            if sp > m["bound"]:
                flag, worst = "OVER", "over"
            elif sp > m["bound"] / 3:
                flag = "HIGH"
            print(f"{w:10s} {m['name']:12s} {med:10.4g} {q1:10.4g} {q3:10.4g} {sp:7.1%} {m['bound']:6.0%} {flag}")
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{w:10s} fail_frac    {failed}/{attempted}")
        if failed:
            worst = "over"
    out_dir = os.path.join(os.getcwd(), ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "steady.json"), "w") as fh:
        json.dump(results, fh, indent=1)
    return 0 if worst == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
