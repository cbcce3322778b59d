"""The module boundaries of the package, read from its source with ast.

symmetry.py (the group and lex-leader layer) knows neither of its users,
the exact walk (solve.py) and m_value (mvalue.py), and the walk does not
know m_value.  m_value takes its groups from symmetry._slot_group, as the
walk does, and names none of the pieces a group is built from.  The exact
walk has one path, and the unpruned walk it is checked against lives in
tests/oracles.py, apart from the walk's copy table; so does the search
m_value is checked against, its own search without the uncoverable cut.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "satblow"
MODULES = sorted(path.stem for path in SRC.glob("*.py"))


def _imports(name):
    """The package modules that src/satblow/<name>.py imports anywhere in
    its body, function-local imports included."""
    found = set()
    for node in ast.walk(ast.parse((SRC / f"{name}.py").read_text())):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("satblow", node.module))) if node.level else node.module
            dotted = [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(d.split(".")[1] for d in dotted if d.startswith("satblow."))
    return found & set(MODULES)


def test_the_reader_sees_the_package_imports():
    assert {"symmetry", "core", "verify"} <= _imports("solve")
    assert {"solve", "symmetry"} <= _imports("mvalue")
    assert "solve" in _imports("constructions")  # imported inside a function
    assert {"mvalue", "solve", "symmetry"} <= set(MODULES)


@pytest.mark.parametrize(
    "module, forbidden",
    [("symmetry", {"solve", "mvalue"}), ("solve", {"mvalue"})],
)
def test_layers_import_only_downward(module, forbidden):
    assert not _imports(module) & forbidden


def _names(tree):
    """The names a syntax tree uses: imported, read or written, attributes,
    parameters and keyword arguments."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.arg, ast.keyword)):
            names.add(node.arg)
    return names


def test_m_value_builds_no_group_of_its_own():
    names = _names(ast.parse((SRC / "mvalue.py").read_text()))
    assert "_slot_group" in names
    assert not names & {"_slot_maps", "_SlotGroup", "_index_rows"}


def _function(tree, name):
    (found,) = [
        node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == name
    ]
    return found


def test_the_reference_walk_lives_apart_from_the_exact_walk():
    """solve.py keeps no unpruned path and no whole-graph scan, and the
    reference walk reads none of the exact walk's copy table."""
    assert not _names(ast.parse((SRC / "solve.py").read_text())) & {"first_uncovered_slot", "prune"}
    oracles = ast.parse((TESTS / "oracles.py").read_text())
    names = _names(_function(oracles, "reference_minimum"))
    assert {"first_uncovered_slot", "_closes_copy", "admits"} <= names
    assert not names & {"_SlotSystem", "child_uncovered", "copies"}


def test_the_exact_walk_has_one_coverage_test():
    """solve.py asks whether a settled slot stays uncovered through
    _SlotSystem.uncoverable alone, with no subset scan beside it."""
    names = _names(ast.parse((SRC / "solve.py").read_text()))
    assert "uncoverable" in names
    assert not names & {"covered", "stop_at_miss"}


def test_the_m_value_reference_lives_apart_from_m_value():
    """mvalue.py keeps one search, with its cut always on; the search
    without the cut is the tests' own and never asks for the cut."""
    assert "prune" not in _names(ast.parse((SRC / "mvalue.py").read_text()))
    oracles = ast.parse((TESTS / "oracles.py").read_text())
    names = _names(_function(oracles, "reference_m_partition"))
    assert {"covered", "free_of", "admits"} <= names
    assert "uncoverable" not in names
