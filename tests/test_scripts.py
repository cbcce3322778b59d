"""Smoke tests for the scripts in scripts/, run as a user would run them."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_reproduce_tables_small_run_has_no_mismatch():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(ROOT, "scripts", "reproduce_tables.py"),
            "--k4-max-n",
            "6",
            "--bounds-max-n",
            "4",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "MISMATCH" not in proc.stdout
    assert " ok" in proc.stdout


def test_search_small_optima_proves_every_row_under_a_short_budget():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "search_small_optima.py"), "--budget", "5"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "UNKNOWN" not in proc.stdout
    exsat = proc.stdout.split("minimum extra-saturated sizes")[1]
    rows = [line.split() for line in exsat.splitlines()]
    assert ["p3", "4", "8"] in [row[:3] for row in rows]
