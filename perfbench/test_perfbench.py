"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from harness import Recorder, RefClock  # noqa: E402
from layers import layer_metrics  # noqa: E402

SPEC = run.load_spec()
E2E = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SETUP = {"import_s": 0.1, "numpy_import_s": 0.05, "raw_setup_s": 0.2, "raw_wall_s": 2.0,
         "probe_share": 0.03}


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_ref_clock_scales_raw_time_by_the_probe_except_under_a_wall_clock_budget(monkeypatch):
    monkeypatch.setattr(harness, "probe_s", lambda: 2 * harness.REF_PROBE_S)  # a host at half speed
    clock = RefClock()
    t0, raw0 = clock.now(), time.perf_counter()
    _spin(0.2)
    t1, raw1 = clock.now(), time.perf_counter()
    with clock.wall_clock():
        _spin(0.2)
    t2, raw2 = clock.now(), time.perf_counter()
    assert t1 - t0 == pytest.approx((raw1 - raw0) / 2, rel=0.05)
    assert t2 - t1 == pytest.approx(raw2 - raw1, rel=0.05)


def test_ref_clock_probes_inside_a_long_call_and_stops_its_timer():
    clock = RefClock()
    with clock.running():
        _spin(4 * harness.PROBE_EVERY_S + 0.1)
        with clock.wall_clock():
            before = clock.probes
            _spin(2 * harness.PROBE_EVERY_S + 0.1)
            assert clock.probes == before
    assert clock.probes >= 5  # the first, in the constructor, and four from the timer
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_wrong_expected_value_counts_as_failed():
    rec = Recorder(trace=False, run_id="t")
    workloads.solve_rung(rec, "sat", "k3", 2, expected=7)
    assert (rec.attempted, rec.failed, rec.proved) == (1, 1, 0)
    assert "expected 7" in rec.failures[0]
    workloads.solve_rung(rec, "sat", "k3", 2, expected=6)
    assert (rec.attempted, rec.failed, rec.proved) == (2, 1, 1)


def test_exception_in_an_operation_is_counted_and_the_pass_goes_on():
    rec = Recorder(trace=True, run_id="t")
    with rec.op("boom"):
        rec.call("core.count_partite_copies", workloads.sb.count_partite_copies, None)
    workloads.mvalue_op(rec, 3, 3, 4)
    assert (rec.attempted, rec.failed, rec.proved) == (2, 1, 1)
    assert rec.spans[0][3] >= rec.spans[0][2]  # the failed call's span was closed


def _fake_result(name, seed, seconds, trace):
    metrics = dict.fromkeys(PER_LAYER if trace else E2E, 1.0)
    return {"workload": name, "seed": seed, "trace": int(trace), "correct": True,
            "attempted": 3, "failed": 0, "failures": [], "notes": [], "metrics": metrics,
            "passes": [], "versions": {}}


def test_exception_in_one_workload_does_not_abort_the_others(monkeypatch, capsys, tmp_path):
    def flaky(name, seed, seconds, trace):
        if name == WORKLOADS[1]:
            raise RuntimeError("injected")
        return _fake_result(name, seed, seconds, trace)

    monkeypatch.setattr(run, "run_workload", flaky)
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    assert run.main(["--workload", "all", "--seconds", "1"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False
    assert (last["attempted"], last["failed"]) == (3 * (len(WORKLOADS) - 1) + 1, 1)
    kept = {name.split(".", 1)[0] for name in last["metrics"]}
    assert kept == set(WORKLOADS) - {WORKLOADS[1]}


def _fake_pass(trace):
    p = {"setup_s": 0.2, "wall_s": 1.0, "attempted": 2, "failed": 0, "failures": [],
         "proved": 2, "call_s": {"op / core.f": 0.5}, "peak_rss_mb": 30.0, "versions": {}, **SETUP}
    if trace:
        p["layers"] = layer_metrics([], SETUP)
    return p


@pytest.mark.parametrize("trace", [False, True])
def test_a_run_emits_exactly_the_metrics_in_benchmark_json(monkeypatch, tmp_path, trace):
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    monkeypatch.setattr(run, "spawn", lambda w, s, t, r, setup_only, timeout: _fake_pass(t))
    got = run.run_workload(WORKLOADS[0], 1, 0.0, trace)
    assert sorted(got["metrics"]) == sorted(PER_LAYER if trace else E2E)
    assert got["correct"] and got["failed"] == 0


@pytest.mark.parametrize("trace", [False, True])
def test_a_child_stopped_at_the_run_limit_is_not_a_failed_operation(monkeypatch, tmp_path, trace):
    calls = []

    def slow_after_first(w, s, t, r, setup_only, timeout):
        calls.append(setup_only)
        if len(calls) > 1:
            raise run.ChildTimeout("stopped")
        return _fake_pass(t)

    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    monkeypatch.setattr(run, "spawn", slow_after_first)
    got = run.run_workload(WORKLOADS[0], 1, 500.0, trace)
    assert got["correct"] and (got["attempted"], got["failed"]) == (2, 0)
    assert len(got["passes"]) == 1 and got["notes"]
    assert sorted(got["metrics"]) == sorted(PER_LAYER if trace else E2E)


def test_a_run_never_plans_a_pass_past_the_run_limit(monkeypatch, tmp_path):
    clock = [0.0]
    monkeypatch.setattr(run.time, "monotonic", lambda: clock[0])

    def sixty_seconds(w, s, t, r, setup_only, timeout):
        clock[0] += 1.0 if setup_only else 60.0
        return _fake_pass(t)

    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    monkeypatch.setattr(run, "spawn", sixty_seconds)
    got = run.run_workload(WORKLOADS[0], 1, 1000.0, False)
    assert len(got["passes"]) == 2  # a third would end at 180 s > RUN_LIMIT_S
    assert got["failed"] == 0


def test_a_child_that_times_out_before_any_pass_is_an_error(monkeypatch, tmp_path):
    def stopped(*args):
        raise run.ChildTimeout("stopped")

    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    monkeypatch.setattr(run, "spawn", stopped)
    with pytest.raises(run.ChildError):
        run.run_workload(WORKLOADS[0], 1, 1.0, False)


def test_slowest_call_is_the_call_site_with_the_longest_median():
    passes = [{"call_s": {"a": 1.0, "b": 0.8}}, {"call_s": {"a": 1.0, "b": 3.0}},
              {"call_s": {"a": 1.1, "b": 0.9}}]
    assert run.slowest_call(passes) == ("a", 1.0)


def test_recorder_keys_calls_by_operation_function_and_tag():
    rec = Recorder(trace=False, run_id="t")
    with rec.op("op1"):
        rec.call("core.f", sum, [1, 2], tag="x")
        rec.call("core.f", sum, [3])
    rec.call("core.g", sum, [])
    assert sorted(rec.call_s) == ["- / core.g", "op1 / core.f", "op1 / core.f [x]"]


def test_layer_map_names_only_emitted_metrics():
    with open(os.path.join(HERE, "layer_map.json")) as fh:
        layer_map = json.load(fh)
    assert sorted(layer_map) == sorted(PER_LAYER)
    for name, entry in layer_map.items():
        assert set(entry["moves"]) <= set(E2E), name
        assert entry["on"] and set(entry["on"]) <= set(WORKLOADS), name


def test_traced_dense_pass_spans_and_identities():
    rec = Recorder(trace=True, run_id="t")
    host = workloads.sb.BlowupHost(workloads.PATTERNS["c4"], 3)
    G = workloads.sb.PartiteGraph(host, host.slots()[::2])
    workloads.dense_op(rec, "c4[3]", G)
    assert (rec.attempted, rec.failed) == (1, 0), rec.failures
    m = layer_metrics(rec.span_dicts(), SETUP)
    assert m["core.through_calls"] == host.slot_count()
    assert m["core.copies_total"] == workloads.sb.count_partite_copies(G)
    assert m["formats.bytes"] > 0 and m["verify.scans"] == 1
    assert m["bench.spans"] == 1 and m["bench.self_s"] >= 0


def test_run_without_the_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
