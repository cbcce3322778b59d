"""satblow benchmark: exact solves, proof reach, verification and copy counting.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root.  The workloads, metrics, units and bounds
are in BENCHMARK.json; perfbench/layer_map.json says which end-to-end
metric and workload each per-layer metric should move.

A run is closed-loop and serial: one fresh child interpreter at a time
(perfbench/child.py), each running one whole pass of the workload with one
thread, while this process waits.  Passes repeat while the next one is
expected to end inside --seconds and inside RUN_LIMIT_S; there is always
at least one, so a workload whose pass is longer than --seconds runs
exactly one.  Set-up (import plus seeded input generation) is timed in
every child, and extra set-up-only children are started until there are
SETUP_SAMPLES samples.

Times are in reference seconds (harness.RefClock): the child probes the
host's speed with a fixed piece of Python every 0.25 s and scales the raw
time after each probe by it, so a shared host that slows down by half for
a minute does not read as a slower program.  Solves under a wall-clock
budget are counted in raw seconds, as their budget is.  The raw times are
per-layer metrics (setup.raw_s, bench.raw_wall_s).

--trace 0 reports the end-to-end metrics, each the median over the run's
passes; --trace 1 alternates traced and untraced passes and reports the
per-layer metrics, medians over the traced passes, with the tracing
overhead as traced minus untraced wall time.  Spans are written with the
full result to .perfbench_out/ when the run ends.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Every answer is checked; a wrong
answer, a witness that fails re-verification or an exception counts as a
failed operation.  Exit code 0 means the benchmark ran (even with failed
operations); any other code means it could not run, and no result line is
printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(HERE, "child.py")
SETUP_SAMPLES = 15
RUN_LIMIT_S = 170.0  # every run, traced or not, ends within three minutes, whatever --seconds says
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class ChildError(RuntimeError):
    pass


class ChildTimeout(ChildError):
    """A child was stopped at the run limit: slow, not wrong."""


def median(values) -> float:
    """The median; for counts, the lower middle value, so a count stays whole."""
    values = list(values)
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def slowest_call(passes: list[dict]) -> tuple[str, float]:
    """The call site with the longest median time over the passes, and that
    time.  A site is the same operation, function and tag in every pass, so
    a pause that hits one call in one pass does not set the metric, as it
    would with the median of each pass's longest call."""
    sites: dict[str, list[float]] = {}
    for p in passes:
        for site, seconds in p["call_s"].items():
            sites.setdefault(site, []).append(seconds)
    return max(((site, median(times)) for site, times in sites.items()), key=lambda kv: kv[1])


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def check_tree() -> None:
    """The program under test must be present; without it there is nothing
    to measure and the run stops before printing a result."""
    if not os.path.isfile(os.path.join(ROOT, "src", "satblow", "__init__.py")):
        raise ChildError("src/satblow is missing: run from a satblow checkout")


def spawn(workload: str, seed: int, trace: bool, run_id: str, setup_only: bool, timeout: float) -> dict:
    cmd = [
        sys.executable, CHILD, "--workload", workload, "--seed", str(seed),
        "--trace", str(int(trace)), "--run-id", run_id, "--workdir", os.path.join(OUT_DIR, "work"),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0", **ONE_THREAD)
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildTimeout(f"{workload} child stopped at the {RUN_LIMIT_S:.0f} s run limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.strip().splitlines()[-8:])
        raise ChildError(f"{workload} child exited {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """All passes of one workload; returns the raw passes and their medians.

    Passes repeat while the next is expected to end within `seconds`, and
    no pass starts that is expected to end after RUN_LIMIT_S.  A child
    stopped at RUN_LIMIT_S after one pass has finished is dropped and noted,
    not counted as failed: it was slow, and its answers are unknown."""
    os.makedirs(os.path.join(OUT_DIR, "work"), exist_ok=True)
    start = time.monotonic()
    limit = start + RUN_LIMIT_S
    planned_end = start + min(seconds, RUN_LIMIT_S)
    traced: list[dict] = []
    untraced: list[dict] = []
    errors: list[str] = []
    notes: list[str] = []

    def child(k: int, with_trace: bool, setup_only: bool) -> dict | None:
        run_id = f"{name}/{seed}/{'setup' if setup_only else k}"
        try:
            return spawn(name, seed, with_trace, run_id, setup_only, limit - time.monotonic())
        except ChildTimeout as exc:
            (notes if traced or untraced else errors).append(str(exc))
        except ChildError as exc:
            errors.append(str(exc))
        return None

    k = 0
    while True:
        with_trace = trace and k % 2 == 0
        res = child(k, with_trace, False)
        if res is None:
            break
        (traced if with_trace else untraced).append(res)
        k += 1
        now = time.monotonic()
        next_end = now + (now - start) / k
        if trace and not (traced and untraced) and next_end <= limit:
            continue  # a traced run needs one pass of each kind
        if next_end > planned_end:
            break
    passes = traced + untraced
    setups = [p["setup_s"] for p in passes]
    while passes and len(setups) < SETUP_SAMPLES:
        res = child(k, False, True)
        if res is None:
            break
        setups.append(res["setup_s"])
    if not passes:
        raise ChildError("\n".join(errors))
    attempted = sum(p["attempted"] for p in passes) + len(errors)
    failed = sum(p["failed"] for p in passes) + len(errors)
    if trace:
        names = traced[0]["layers"]
        metrics = {m: median(p["layers"][m] for p in traced) for m in names}
        if untraced:
            metrics["trace.overhead_s"] = median(p["wall_s"] for p in traced) - median(
                p["wall_s"] for p in untraced
            )
        else:
            metrics["trace.overhead_s"] = 0.0
            notes.append("no untraced pass fitted in the run limit; trace.overhead_s is 0")
    else:
        metrics = {
            "wall_s": median(p["wall_s"] for p in passes),
            "setup_s": median(setups),
            "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
            "proved": median(p["proved"] for p in passes),
            "slowest_call_s": slowest_call(passes)[1],
        }
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": sorted({f for p in passes for f in p["failures"]}) + errors,
        "notes": notes,
        "metrics": metrics,
        "slowest_call": slowest_call(passes)[0],
        "setup_samples": setups,
        "passes": passes,
        "versions": passes[0]["versions"],
    }


def _git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        got = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return got.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "satblow")
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py"):
            with open(os.path.join(src, fname), "rb") as fh:
                h.update(fname.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def machine_facts(seed: int, versions: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": versions.get("numpy"),
        "satblow": versions.get("satblow"),
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def with_units(metrics: dict, units: dict) -> dict:
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def save(result: dict, facts: dict) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(
        OUT_DIR, f"{result['workload']}-seed{result['seed']}-trace{result['trace']}.json"
    )
    spans = [s for p in result["passes"] for s in p.pop("spans", ())]
    with open(path, "w") as fh:
        json.dump({"machine": facts, **result, "spans": spans}, fh)
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        spec = load_spec()
        check_tree()
    except (OSError, ValueError, ChildError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; one of {names} or all", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    chosen = names if args.workload == "all" else [args.workload]
    results = []
    for name in chosen:
        try:
            results.append(run_workload(name, args.seed, seconds, bool(args.trace)))
        except Exception as exc:  # one broken workload must not stop the others
            print(f"error: workload {name} did not run: {exc}", file=sys.stderr)
            results.append(None)
    done = [r for r in results if r is not None]
    if not done:
        return 1
    facts = machine_facts(args.seed, done[0]["versions"])
    print(json.dumps({"machine": facts}))
    for result in done:
        path = save(result, facts)
        for failure in result["failures"]:
            print(f"FAILED {result['workload']}: {failure}", file=sys.stderr)
        for note in result["notes"]:
            print(f"note {result['workload']}: {note}", file=sys.stderr)
        print(json.dumps({
            "workload": result["workload"], "passes": len(result["passes"]),
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": with_units(result["metrics"], units),
            "output": os.path.relpath(path, ROOT),
        }))
    missing = len(results) - len(done)
    if len(chosen) == 1:
        metrics = done[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in done for m, v in r["metrics"].items()}
        units = {f"{r['workload']}.{m}": units[m] for r in done for m in r["metrics"]}
    print(json.dumps({
        "correct": missing == 0 and all(r["correct"] for r in done),
        "attempted": sum(r["attempted"] for r in done) + missing,
        "failed": sum(r["failed"] for r in done) + missing,
        "metrics": with_units(metrics, units),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
