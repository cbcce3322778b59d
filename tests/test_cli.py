import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from satblow import (
    PartiteGraph,
    is_partite_saturated,
    k4_construction,
    load_blowup_graph,
    save_blowup_graph,
)
from satblow.cli import main
from satblow.constructions import FAMILIES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def test_construct_writes_graph_and_summary(capsys, tmp_path):
    out_path = str(tmp_path / "k4.pbg")
    code, doc, _ = run_json(capsys, "construct", "k4", "-n", "4", "-o", out_path)
    assert code == 0
    assert doc["edges"] == doc["formula_edges"] == 51
    assert doc["output"] == out_path
    G = load_blowup_graph(out_path)
    assert G.edge_count() == 51
    header = open(out_path).readline()
    assert header.startswith("#") and "family=k4" in header


def test_construct_with_pattern_and_seed(capsys, tmp_path):
    out_path = str(tmp_path / "tc.pbg")
    code, doc, _ = run_json(
        capsys,
        "construct",
        "two-connected",
        "-n",
        "4",
        "--pattern",
        "c4",
        "--seed",
        "3",
        "-o",
        out_path,
    )
    assert code == 0
    assert doc["edges"] <= doc["formula_edges"]
    assert is_partite_saturated(load_blowup_graph(out_path)).ok


def test_construct_requires_output(capsys):
    with pytest.raises(SystemExit) as e:
        main(["construct", "k4", "-n", "4"])
    assert e.value.code == 2


def test_construct_warning_is_one_line_and_only_with_a_result(capsys, tmp_path):
    argv = ["construct", "path", "-r", "4", "-n", "4", "-o"]
    code, _, err = run_cli(capsys, *argv, str(tmp_path / "p.pbg"))
    assert code == 0
    assert err == "warning: path_construction(r=4, n=4) is outside the verified saturation range n >= 8\n"
    code, _, err = run_cli(capsys, *argv, str(tmp_path))  # a directory
    assert code == 2 and err.startswith("error: ") and err.count("\n") == 1


def test_construct_missing_parameter_exits_2(capsys):
    code, _, err = run_cli(capsys, "construct", "star", "-n", "3", "-o", "/tmp/x.pbg")
    assert code == 2 and "needs r" in err


def test_verify_ok_and_failing_verdicts(capsys, tmp_path):
    out_path = str(tmp_path / "g.pbg")
    run_cli(capsys, "construct", "star", "-n", "2", "-r", "2", "-o", out_path)
    code, doc, _ = run_json(capsys, "verify", out_path)
    assert code == 0
    assert doc == {"status": "ok", "witness": None, "count": "0", "checks": None}

    empty = tmp_path / "empty.pbg"
    empty.write_text("blowup 3 3 2\np 1 2\np 1 3\np 2 3\n")
    code, doc, _ = run_json(capsys, "verify", str(empty), "--check", "extra-saturated")
    assert code == 0  # a computed verdict, even a failing one, exits 0
    assert doc["status"] == "not_extra_saturated"
    assert doc["witness"]["kind"] == "non_edge"

    code, doc, _ = run_json(capsys, "verify", str(empty), "--check", "free")
    assert code == 0 and doc["status"] == "ok"


def test_verify_k4_lemmas_flag(capsys, tmp_path):
    out_path = str(tmp_path / "k4.pbg")
    run_cli(capsys, "construct", "k4", "-n", "3", "-o", out_path)
    code, doc, _ = run_json(capsys, "verify", out_path, "--k4-lemmas")
    assert code == 0
    names = [c["name"] for c in doc["checks"]]
    assert names == ["min_degree_4", "degree_4_neighborhoods", "few_min_degree_4_parts"]
    assert all(c["status"] in ("pass", "not_applicable") for c in doc["checks"])


@pytest.mark.parametrize("check", [[], ["--check", "free"]])
def test_verify_k4_lemmas_on_an_unsaturated_graph(capsys, tmp_path, check):
    """A K4 graph that is not saturated still gets its verdict, exit 0, and
    each lemma reports that it needs a saturated graph."""
    G = k4_construction(4)
    out_path = str(tmp_path / "less.pbg")
    save_blowup_graph(PartiteGraph(G.host, sorted(G.edges)[1:]), out_path)
    code, doc, err = run_json(capsys, "verify", out_path, *check, "--k4-lemmas")
    assert code == 0 and err == ""
    assert doc["status"] == ("ok" if check else "not_saturated")
    assert [(c["name"], c["status"], c["note"]) for c in doc["checks"]] == [
        (name, "not_applicable", "needs a saturated graph")
        for name in ("min_degree_4", "degree_4_neighborhoods", "few_min_degree_4_parts")
    ]


def test_verify_k4_lemmas_scans_saturation_once(capsys, tmp_path, monkeypatch):
    from satblow import cli, verify

    out_path = str(tmp_path / "k4.pbg")
    run_cli(capsys, "construct", "k4", "-n", "4", "-o", out_path)
    scans = []
    scan = verify.is_partite_saturated

    def counted(G):
        scans.append(1)
        return scan(G)

    monkeypatch.setattr(verify, "is_partite_saturated", counted)
    monkeypatch.setattr(cli, "is_partite_saturated", counted)
    monkeypatch.setitem(cli._CHECKS, "saturated", counted)
    for check in ("saturated", "free"):
        scans.clear()
        code, doc, _ = run_json(capsys, "verify", out_path, "--check", check, "--k4-lemmas")
        assert code == 0 and doc["status"] == "ok" and len(scans) == 1, check
        assert {c["status"] for c in doc["checks"]} <= {"pass", "not_applicable"}


def test_verify_k4_lemmas_wrong_pattern_exits_2(capsys, tmp_path):
    out_path = str(tmp_path / "s.pbg")
    run_cli(capsys, "construct", "star", "-n", "2", "-r", "2", "-o", out_path)
    code, _, err = run_cli(capsys, "verify", out_path, "--k4-lemmas")
    assert code == 2 and "K4" in err


def test_malformed_graph_exits_2_with_line_number(capsys, tmp_path):
    bad = tmp_path / "bad.pbg"
    bad.write_text("blowup 3 3 2\np 1 2\np 1 3\np 2 3\ne 1.1 1.2\n")
    code, _, err = run_cli(capsys, "verify", str(bad))
    assert code == 2 and "line 5" in err


def test_headers_above_the_caps_exit_2(capsys, tmp_path):
    pat = tmp_path / "huge.pat"
    pat.write_text("pattern 1000000000 0\n")
    pbg = tmp_path / "huge.pbg"
    pbg.write_text("blowup 2 1 1000000000\np 1 2\n")
    for argv in (
        ["solve", "sat", "--pattern", str(pat), "-n", "2"],
        ["table", "two-connected", "--pattern", str(pat), "--n-range", "2:3"],
        ["verify", str(pbg)],
        ["count", str(pbg)],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: line 1: ") and "cap" in err and err.count("\n") == 1


def test_count_full_and_through(capsys, tmp_path):
    out_path = str(tmp_path / "full.pbg")
    run_cli(capsys, "construct", "clique-exsat", "-n", "2", "-r", "3", "-o", out_path)
    code, doc, _ = run_json(capsys, "count", out_path)
    assert code == 0 and doc["count"].isdigit() and int(doc["count"]) >= 1

    code, doc, _ = run_json(capsys, "count", out_path, "--through", "1.1", "2.1")
    assert code == 0 and int(doc["count"]) >= 1
    assert doc["through"] == {"u": "1.1", "v": "2.1"}


def test_count_bad_endpoint_exits_2(capsys, tmp_path):
    out_path = str(tmp_path / "g.pbg")
    run_cli(capsys, "construct", "k4", "-n", "3", "-o", out_path)
    code, out, err = run_cli(capsys, "count", out_path, "--through", "1.1", "1.2")
    assert code == 2 and out == ""
    assert err == "error: 1.1-1.2 is not an allowed slot of this host\n"
    code, _, err = run_cli(capsys, "count", out_path, "--through", "nope", "2.1")
    assert code == 2


def test_long_path_pattern_answers(capsys, tmp_path):
    from satblow import PatternGraph, blow_up, save_blowup_graph

    L = 1500
    path = str(tmp_path / "long.pbg")
    save_blowup_graph(blow_up(PatternGraph.path(L), 1), path)
    code, doc, _ = run_json(capsys, "count", path)
    assert code == 0 and doc["count"] == "1" and doc["edges"] == L - 1
    code, doc, _ = run_json(capsys, "count", path, "--through", "750.1", "751.1")
    assert code == 0 and doc["count"] == "1"
    code, doc, _ = run_json(capsys, "verify", path)
    assert code == 0 and doc["status"] == "not_free"
    assert doc["witness"] == {"kind": "copy", "vertices": [f"{p}.1" for p in range(1, L + 1)]}
    code, doc, _ = run_json(capsys, "verify", path, "--check", "extra-saturated")
    assert code == 0 and doc["status"] == "ok" and doc["count"] == "1"


def test_solve_json_and_witness(capsys, tmp_path):
    witness = str(tmp_path / "w.pbg")
    code, doc, _ = run_json(
        capsys, "solve", "sat", "--pattern", "k3", "-n", "2", "--witness-out", witness
    )
    assert code == 0
    assert doc["value"] == 6 and doc["witness_edges"] == 6
    assert doc["lower_bound"] == doc["upper_bound"] == 6
    assert doc["witness_path"] == witness
    assert doc["nodes"] >= 1 and doc["elapsed"] >= 0
    assert is_partite_saturated(load_blowup_graph(witness)).ok


def test_output_path_is_checked_before_the_work(capsys, tmp_path, monkeypatch):
    """A directory, or a path in a missing directory, is refused with one
    error line before the solver or the builder runs."""
    import satblow.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("ran before the output path was checked")

    monkeypatch.setattr(cli, "min_sat_exact", never)
    monkeypatch.setattr(cli.ConstructionSpec, "build", never)
    for path in (str(tmp_path), str(tmp_path / "nowhere" / "w.pbg")):
        for argv in (
            ["solve", "sat", "--pattern", "c4", "-n", "3", "--witness-out", path],
            ["construct", "k4", "-n", "3", "-o", path],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == "", argv
            assert err.startswith("error: ") and err.count("\n") == 1, argv
    assert not (tmp_path / "nowhere").exists()


def test_solve_json_reports_stats(capsys):
    code, doc, _ = run_json(capsys, "solve", "sat", "--pattern", "k3", "-n", "3")
    assert code == 0 and doc["value"] == 12
    stats = doc["stats"]
    levels = stats["levels"]
    assert [row["level"] for row in levels] == list(range(len(levels)))
    assert sum(row["admitted"] for row in levels) == doc["nodes"]
    assert stats["improvements"][-1]["size"] == 12
    assert set(stats["cuts"]) == {
        "not_free",
        "not_canonical",
        "over_bound",
        "uncoverable",
    }
    for row in levels:
        assert row["candidates"] == row["admitted"] + sum(row["cuts"].values())
    # the full group: 3!^3 index permutations times 6 automorphisms of K3
    assert stats["group"] == {"pool": "full", "rows": 1296}
    assert 1 <= stats["leaders"] <= sum(row["expanded"] for row in levels)
    assert stats["floor"] == 9  # y = 1/2 on three parts of demand 2, times n = 3
    assert list(stats["phases"]) == ["greedy", "group", "walk", "recheck"]
    assert all(t >= 0 for t in stats["phases"].values())
    assert sum(stats["phases"].values()) <= doc["elapsed"] + 1e-3  # elapsed is rounded to ms


def test_solve_json_reports_no_group_without_symmetry(capsys):
    code, doc, _ = run_json(capsys, "solve", "sat", "--pattern", "k3", "-n", "3", "--no-symmetry")
    assert code == 0 and doc["value"] == 12
    assert doc["stats"]["group"] == {"pool": None, "rows": 0}
    assert doc["stats"]["leaders"] == 0
    assert doc["stats"]["cuts"]["not_canonical"] == 0


def test_solve_budget_exhaustion_exits_3(capsys):
    code, doc, _ = run_json(
        capsys, "solve", "sat", "--pattern", "k4", "-n", "3", "--budget", "0.1"
    )
    assert code == 3
    assert doc["value"] == "UNKNOWN"
    assert doc["upper_bound"] is not None
    assert 0 <= doc["lower_bound"] <= doc["upper_bound"]


def test_solve_exsat_mode(capsys):
    code, doc, _ = run_json(capsys, "solve", "exsat", "--pattern", "p3", "-n", "2")
    assert code == 0 and doc["value"] == 4


def test_mvalue_json(capsys):
    code, doc, _ = run_json(capsys, "mvalue", "-r", "3", "-s", "3")
    assert code == 0
    assert doc["value"] == 4
    assert sum(doc["witness"]["part_sizes"]) == 4
    assert len(doc["witness"]["edges"]) >= 3


def test_mvalue_json_reports_stats(capsys):
    code, doc, _ = run_json(capsys, "mvalue", "-r", "5", "-s", "3")
    assert code == 0 and doc["value"] == 8 and doc["nodes"] == 136
    rows = doc["stats"]["vertex_counts"]
    assert [row["vertices"] for row in rows] == [5, 6, 7, 8]
    for row in rows:
        assert row["candidates"] == row["nodes"] + sum(row["cuts"].values())
    assert sum(row["nodes"] for row in rows) == doc["nodes"]
    assert doc["stats"]["cuts"]["uncoverable"] > 0


def test_bounds_json_k5(capsys):
    code, doc, _ = run_json(capsys, "bounds", "-r", "5", "-n", "10")
    assert code == 0
    assert doc["lower"] == 150 and doc["upper"] == 360
    assert doc["m_lower"] == 6 and doc["m_upper"] == 9


def test_bounds_json(capsys):
    code, doc, _ = run_json(capsys, "bounds", "-r", "4", "-n", "10")
    assert code == 0
    assert doc["lower"] == 80 and doc["upper"] == 180
    assert doc["m_lower"] == 4 and doc["m_upper"] == 6


def test_bounds_refuses_n1_with_a_message(capsys):
    code, out, err = run_cli(capsys, "bounds", "-r", "4", "-n", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "n >= 2" in err and err.count("\n") == 1


def test_bounds_budget_is_kept_in_total(capsys):
    """--budget bounds both m-value searches together, not each of them:
    at r = 51 both come back UNKNOWN, and the command takes about one
    budget (two, when each search had the whole of it)."""
    start = time.monotonic()
    code, doc, _ = run_json(capsys, "bounds", "-r", "51", "-n", "2", "--budget", "1")
    assert time.monotonic() - start < 1.5
    assert code == 3
    assert doc["m_lower"] == doc["m_upper"] == "UNKNOWN"
    assert doc["lower"] is None and doc["upper"] is None


def test_table_json_and_text(capsys):
    code, doc, _ = run_json(capsys, "table", "k4", "--n-range", "3:6")
    assert code == 0
    assert [row["edges"] for row in doc["rows"]] == [33, 51, 69, 87]

    code, out, _ = run_cli(capsys, "table", "k4", "--n-range", "3:6", "--format", "text")
    assert code == 0
    values = [int(line.split()[1]) for line in out.splitlines()[1:]]
    assert values == [33, 51, 69, 87]


def test_table_bad_range_exits_2(capsys):
    code, _, err = run_cli(capsys, "table", "k4", "--n-range", "6:3")
    assert code == 2 and "range" in err


def test_table_two_connected_needs_no_seed(capsys):
    argv = ("table", "two-connected", "--pattern", "c4", "--n-range", "4:5")
    code, doc, err = run_json(capsys, *argv)
    assert code == 0 and err == ""
    assert [row["edges"] for row in doc["rows"]] == [2 * 16 * 4 - 64, 2 * 16 * 5 - 64]


def test_table_seed_flag_is_gone(capsys):
    code, err = _argparse_exit(capsys, "table", "k4", "--n-range", "3:3", "--seed", "1")
    assert code == 2 and "unrecognized arguments: --seed 1" in err


@pytest.mark.parametrize(
    "family, args, n",
    [
        ("k4", [], 1),
        ("star", ["-r", "1"], 2),
        ("star", ["-r", "2"], 0),
        ("path", ["-r", "3"], 4),
        ("path", ["-r", "4"], 1),
        ("two-connected", ["--pattern", "c4"], 1),
        ("two-connected", ["--pattern", "p4"], 5),
        ("clique-exsat", ["-r", "2"], 3),
        ("generic-exsat", ["--pattern", "c4"], 0),
        ("tree-exsat", ["--pattern", "c4"], 5),
        ("tree-exsat", ["--pattern", "p3"], 0),
    ],
)
def test_table_refuses_what_construct_refuses(capsys, tmp_path, family, args, n):
    seed = ["--seed", "3"] if family == "two-connected" else []
    out = str(tmp_path / "g.pbg")
    code, _, built = run_cli(capsys, "construct", family, "-n", str(n), *args, *seed, "-o", out)
    assert code == 2 and built.startswith("error: ")
    table = run_cli(capsys, "table", family, "--n-range", f"{n}:{n + 1}", *args)
    assert table == (2, "", built)


def _argparse_exit(capsys, *argv):
    with pytest.raises(SystemExit) as e:
        main(list(argv))
    return e.value.code, capsys.readouterr().err


def test_threads_flag_is_gone(capsys):
    for value in ("4", "0"):
        code, err = _argparse_exit(capsys, "--threads", value, "table", "k4", "--n-range", "3:3")
        assert code == 2 and "usage" in err


def test_threads_flag_after_the_command_is_gone(capsys):
    code, err = _argparse_exit(capsys, "table", "k4", "--n-range", "3:3", "--threads", "2")
    assert code == 2 and "unrecognized arguments: --threads 2" in err


def test_threads_env_is_not_read(capsys, monkeypatch):
    monkeypatch.setenv("SATBLOW_THREADS", "abc")
    code, doc, err = run_json(capsys, "table", "k4", "--n-range", "3:3")
    assert code == 0 and doc["rows"][0]["edges"] == 33 and err == ""
    code, _ = _argparse_exit(capsys, "--threads", "2", "table", "k4", "--n-range", "3:3")
    assert code == 2


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "satblow.cli", "mvalue", "-r", "3", "-s", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == 4


# ---------------------------------------------------------------------------
# fuzzing: argument vectors built from the CLI's own subcommands and flags,
# with small integers and tiny budgets.  A run either computes something
# (exit 0, or 3 for an UNKNOWN) or fails with exit 2 and one line on
# stderr; it never raises.

_INTS = [str(i) for i in range(-1, 6)]
_BUDGETS = ["0", "0.01", "0.05", "-1", "nan", "x"]
_GRAPHS = ["@valid.pbg", "@bad.pbg", "@huge.pbg", "@missing.pbg", "@dir"]
_PATTERNS = ["k2", "k3", "k4", "p3", "p4", "c4", "star-3", "k9", "nope"]
_PATTERNS += ["@valid.pat", "@huge.pat", "@missing.pat", "@dir"]
_OUTS = ["@out.pbg", "@dir", "@nowhere/out.pbg"]
_VERTICES = ["1.1", "2.1", "1.2", "3.3", "0.1", "x", "1."]
_RANGES = ["0:2", "2:4", "3:3", "4:2", "x", "1:x"]

# per subcommand: the choices of each positional, each flag's values (None
# for a switch, a tuple for a flag taking several) and its required flags
_SPECS = {
    "construct": (
        [FAMILIES],
        {"-n": _INTS, "-r": _INTS, "--pattern": _PATTERNS, "--seed": _INTS, "-o": _OUTS},
        ["-n", "-o"],
    ),
    "verify": (
        [_GRAPHS],
        {"--check": ["free", "saturated", "extra-saturated"], "--k4-lemmas": None},
        [],
    ),
    "count": ([_GRAPHS], {"--through": (_VERTICES, _VERTICES)}, []),
    "solve": (
        [["sat", "exsat"]],
        {
            "--pattern": _PATTERNS,
            "-n": _INTS,
            "--budget": _BUDGETS,
            "--seed": _INTS,
            "--no-symmetry": None,
            "--witness-out": _OUTS,
        },
        ["--pattern", "-n"],
    ),
    "mvalue": (
        [],
        {"-r": _INTS, "-s": _INTS, "--max-vertices": _INTS, "--budget": _BUDGETS},
        ["-r", "-s"],
    ),
    "bounds": (
        [],
        {"-r": _INTS, "-n": _INTS, "--max-vertices": _INTS, "--budget": _BUDGETS},
        ["-r", "-n"],
    ),
    "table": (
        [FAMILIES],
        {"--n-range": _RANGES, "-r": _INTS, "--pattern": _PATTERNS, "--format": ["json", "text"]},
        ["--n-range"],
    ),
}


@st.composite
def _argv(draw):
    """Mostly what the parser accepts: each positional and required flag is
    left out one time in twenty, as is a flag's value, and a value is a
    junk token one time in twenty."""
    command = draw(st.sampled_from(sorted(_SPECS)))
    positionals, flags, required = _SPECS[command]
    optional = [flag for flag in sorted(flags) if flag not in required]

    def rarely() -> bool:
        return draw(st.integers(0, 19)) == 0

    argv = [command] + [draw(st.sampled_from(choices)) for choices in positionals if not rarely()]
    chosen = [flag for flag in required if not rarely()]
    chosen += draw(st.lists(st.sampled_from(optional), max_size=3)) if optional else []
    for flag in draw(st.permutations(chosen)):
        argv.append(flag)
        values = flags[flag]
        if values is not None:
            for choices in values if isinstance(values, tuple) else (values,):
                if not rarely():
                    argv.append("x" if rarely() else draw(st.sampled_from(choices)))
    if command in ("solve", "mvalue", "bounds") and "--budget" not in argv:
        argv += ["--budget", draw(st.sampled_from(_BUDGETS[:3]))]
    return argv


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    from satblow import PatternGraph, blow_up, save_blowup_graph, save_pattern

    root = tmp_path_factory.mktemp("fuzz")
    save_blowup_graph(blow_up(PatternGraph.complete(3), 2), str(root / "valid.pbg"))
    (root / "bad.pbg").write_text("blowup 3 3 2\np 1 2\np 1 3\np 2 3\ne 1.1 1.2\n")
    (root / "huge.pbg").write_text("blowup 2 1 1000000000\np 1 2\n")
    save_pattern(PatternGraph.cycle(4), str(root / "valid.pat"))
    (root / "huge.pat").write_text("pattern 1000000000 0\n")
    names = ["valid.pbg", "bad.pbg", "huge.pbg", "missing.pbg", "valid.pat", "huge.pat"]
    names += ["missing.pat", "out.pbg", "nowhere/out.pbg"]
    files = {"@" + name: str(root / name) for name in names}
    files["@dir"] = str(root)
    return files


@settings(max_examples=300, deadline=None)
@given(argv=_argv())
def test_cli_fuzz(fuzz_files, argv):
    argv = [fuzz_files.get(token, token) for token in argv]
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(fuzz_files["@dir"])  # a junk output path is written there
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as e:  # argparse refused the vector
        code = e.code
    finally:
        os.chdir(here)
    if code in (0, 3):
        if "text" not in argv:
            json.loads(out.getvalue())
        return
    assert code == 2, (argv, code)
    assert out.getvalue() == "", argv
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, argv
