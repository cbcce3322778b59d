"""One fresh interpreter: import satblow, build a workload's inputs from the
seed, and (unless --setup-only) run one pass.  Prints one JSON line.

    python3 perfbench/child.py --workload NAME --seed N --trace 0|1 --run-id ID --workdir DIR [--setup-only]

run.py starts this once per pass, so every pass starts cold, as a user of
the satblow command does, and no cache carries over from one pass to the
next.
"""

from __future__ import annotations

import argparse
import builtins
import contextlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _version(dist: str) -> str | None:
    import importlib.metadata  # here, so that set-up does not time it

    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


@contextlib.contextmanager
def numpy_import_time(on: bool, clock):
    """While on, wrap __import__ so that the time spent in the first
    `import numpy` is added to the yielded one-element list.  Traced passes
    only: untraced set-up runs without the wrapper.  numpy is not imported
    by this file, so its time lands only where satblow imports it."""
    spent = [0.0]
    plain = builtins.__import__

    def timed(name, *args, **kwargs):
        if name.partition(".")[0] != "numpy" or "numpy" in sys.modules:
            return plain(name, *args, **kwargs)
        t0 = clock.now()
        try:
            return plain(name, *args, **kwargs)
        finally:
            spent[0] += clock.now() - t0

    if on:
        builtins.__import__ = timed
    try:
        yield spent
    finally:
        builtins.__import__ = plain


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-id", default="run")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    from harness import RefClock, Recorder

    clock = RefClock()
    with numpy_import_time(bool(args.trace), clock) as numpy_s:
        t_start = clock.now()
        raw_start = time.perf_counter()
        import satblow
        import satblow.cli  # noqa: F401

        t_import = clock.now()
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed)
    t_setup = clock.now()
    out = {
        "setup_s": t_setup - t_start,
        "raw_setup_s": time.perf_counter() - raw_start,
        "import_s": t_import - t_start,
        "versions": {"numpy": _version("numpy"), "satblow": satblow.__version__},
    }
    if args.trace:
        out["numpy_import_s"] = numpy_s[0]
    if not args.setup_only:
        rec = Recorder(bool(args.trace), args.run_id, clock)
        clock.probe()
        with clock.running():
            start, raw_start = clock.now(), time.perf_counter()
            workloads.run_pass(args.workload, rec, inputs, args.workdir)
            out["wall_s"] = clock.now() - start
            out["raw_wall_s"] = time.perf_counter() - raw_start
        out.update(
            probes=clock.probes,
            probe_share=clock.probe_total_s / out["raw_wall_s"],
            attempted=rec.attempted,
            failed=rec.failed,
            failures=rec.failures,
            proved=rec.proved,
            call_s=rec.call_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if args.trace:
            from layers import layer_metrics

            out["spans"] = rec.span_dicts()
            out["layers"] = layer_metrics(out["spans"], out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
