"""Steadiness check: two sets of benchmark runs of the same code.

    python3 perfbench/steady.py [--workloads a,b]

There are SETS sets of RUNS runs; each run is a separate
`perfbench/run.py --trace 0` with its own seed (FIRST_SEED, FIRST_SEED + 1,
...), as the benchmark is meant to be run.  For each workload and end-to-end metric
this prints every set's median and quartile spread ((Q3 - Q1) / median,
from statistics.quantiles(values, n=4)) against the metric's bound from
BENCHMARK.json, and how far each later set's median moved from the first
set's in the worse direction.  A spread within a third of the bound is
marked steady.  Results go to .perfbench_out/steady.json.  The exit code is
0 when every spread and every shift, of every metric, is within its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
SETS = 2
FIRST_SEED = 1


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=None, help="comma-separated; default all")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    runs: dict = {w: [] for w in names}
    failed = 0
    for k in range(SETS):
        for w in names:
            rows = []
            for i in range(RUNS):
                seed = FIRST_SEED + k * RUNS + i
                res = one_run(w, seed, spec["run_seconds"])
                failed += res["failed"]
                rows.append({m: v["value"] for m, v in res["metrics"].items()})
                print(f"set {k} {w} seed {seed}: " + " ".join(
                    f"{m}={v:.4g}" for m, v in rows[-1].items()), flush=True)
            runs[w].append(rows)

    ok = failed == 0
    report = []
    print(f"\n{'workload':13} {'metric':15} {'set':>3} {'median':>10} {'spread':>7} "
          f"{'bound':>5} {'shift':>7}  verdict")
    for w in names:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first = None
            for k, rows in enumerate(runs[w]):
                med, q1, q3, sp = spread([r[name] for r in rows])
                if first is None:
                    first = med
                worse = (med - first) if m["better"] == "lower" else (first - med)
                shift = worse / first
                steady = sp <= bound / 3
                within = sp <= bound and shift <= bound
                ok &= within
                verdict = ("steady" if steady else "noisy") + ("" if within else " OUT OF BOUND")
                print(f"{w:13} {name:15} {k:>3} {med:>10.4g} {sp:>7.3f} {bound:>5} "
                      f"{shift:>7.3f}  {verdict}")
                report.append({"workload": w, "metric": name, "set": k, "median": med, "q1": q1,
                               "q3": q3, "spread": sp, "bound": bound, "shift": shift,
                               "values": [r[name] for r in rows]})
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_out", "steady.json"), "w") as fh:
        json.dump({"failed_operations": failed, "rows": report}, fh, indent=1)
    print(f"\nfailed operations: {failed}; {'all within bounds' if ok else 'NOT within bounds'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
