"""The declared runtime dependencies are exactly the third-party imports of src/bindet.

Also: no module of src/bindet imports dataclasses, whose import (with
inspect) cost more than the rest of `import bindet.cli`, only the
exhaustive kernel imports numpy, and only the CLI imports time.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

ROOT = Path(__file__).resolve().parents[1]


def imports_by_module() -> dict[str, set[str]]:
    """The top-level names each module of src/bindet imports, at any depth."""
    found = {}
    for path in sorted((ROOT / "src" / "bindet").glob("*.py")):
        names = found[path.name] = set()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return found


def third_party_imports() -> set[str]:
    names = set().union(*imports_by_module().values())
    return names - set(sys.stdlib_module_names) - {"bindet"}


def declared_dependencies() -> set[str]:
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower().replace("-", "_")
            for dep in project["dependencies"]}


def test_dependencies_match_imports():
    assert third_party_imports() == declared_dependencies() == {"numpy"}


def test_no_module_imports_dataclasses():
    found = imports_by_module()
    assert "exact.py" in found and "cli.py" in found
    assert [name for name, names in found.items() if "dataclasses" in names] == []


def test_only_the_exhaustive_kernel_imports_numpy():
    # Every command but `spectrum --n` runs without numpy; this pins that boundary.
    found = imports_by_module()
    assert sorted(name for name, names in found.items() if "numpy" in names) == ["_kernels.py"]


def test_only_the_cli_reads_the_clock():
    # Reports are values; the CLI times the calls whose pretty lines print a time.
    found = imports_by_module()
    assert sorted(name for name, names in found.items() if "time" in names) == ["cli.py"]
