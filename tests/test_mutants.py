"""The mutant registry (tests/mutants.py) is in step with src/ and tests/.

Running the mutants takes tens of seconds, so tier-1 does not: that is
``python tests/run_mutants.py``.  Here each snippet must still occur
exactly once in its file, and each killer must still name a test, so that
an edit to either side cannot quietly turn a mutant stale.
"""

import ast
import re
from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_each_snippet_occurs_once(mutant):
    source = (ROOT / "src" / mutant.path).read_text()
    assert mutant.new != mutant.old and mutant.killers
    assert source.count(mutant.old) == 1


def defines_test(test_id: str) -> bool:
    """True iff test_id (path::[Class::]function[params]) names a test function in that file."""
    path, *names = re.sub(r"\[.*\]$", "", test_id).split("::")
    file = ROOT / path
    if not file.is_file() or not names:
        return False
    body = ast.parse(file.read_text()).body
    for name in names:
        node = next((n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef))
                     and n.name == name), None)
        if node is None:
            return False
        body = node.body
    return isinstance(node, ast.FunctionDef) and node.name.startswith("test")


@pytest.mark.parametrize("test_id", sorted({k for m in MUTANTS for k in m.killers}))
def test_each_killer_exists(test_id):
    assert defines_test(test_id)


def test_a_missing_killer_is_noticed():
    assert not defines_test("tests/test_exact.py::test_no_such_test")
    assert not defines_test("tests/test_exact.py::TestDetExact")
    assert not defines_test("tests/test_no_such_file.py::test_x")
