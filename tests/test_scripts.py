"""Smoke tests for the scripts in scripts/, run as a user would run them."""

import itertools
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
    sections = _sections(proc.stdout)
    assert [title for title, _ in sections] == [
        "saturated K4 blow-ups, n = 3..6",
        "saturated star blow-ups (every saturated graph has this size)",
        "saturated path blow-ups, n = 2r .. 2r+2",
        "extra-saturated clique blow-ups",
        "extra-saturated tree blow-ups",
        "saturation bounds for K4 blow-ups",
    ]
    # k4 rows n = 3..6, then star, path, clique and tree, then bounds n = 2..4
    assert [len(rows) for _, rows in sections] == [4, 9, 9, 6, 9, 3]
    for title, rows in sections[:5]:
        assert all(row.split()[-1] == "ok" for row in rows), title


def _sections(stdout):
    """Each section of a reproduce_tables run, in order, as its title and
    its table rows (the lines after its underline and column header)."""
    lines = stdout.splitlines()
    return [
        (lines[i - 1], list(itertools.takewhile(bool, lines[i + 2 :])))
        for i, line in enumerate(lines)
        if line and set(line) == {"-"}
    ]


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
