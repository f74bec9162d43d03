"""Run the mutant registry of tests/mutants.py against the tests it names.

    python tests/run_mutants.py [NAME_SUBSTRING ...]

For each mutant (or each whose name contains one of the given substrings)
this copies src/ to a temporary directory, applies the edit there, and runs
the mutant's killers with ``pytest -x -q -p no:cacheprovider`` against the
copy.  A mutant is killed when a killer fails, survives when all pass,
gives a collection error when pytest cannot run them, and is stale when
its snippet no longer occurs exactly once.  Prints one line per mutant and
the four counts; exits 1 unless every mutant was killed.  Standard library
only; not part of the tier-1 suite, which checks only that the registry is
in step with the tree (tests/test_mutants.py).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))

from mutants import MUTANTS, Mutant  # noqa: E402


def run(mutant: Mutant) -> str:
    """The outcome of one mutant: killed, survived, collection error or stale."""
    source = (ROOT / "src" / mutant.path).read_text()
    if source.count(mutant.old) != 1:
        return "stale"
    with tempfile.TemporaryDirectory(prefix="bindet-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / mutant.path).write_text(source.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        status = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             *mutant.killers],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
    return {0: "survived", 1: "killed"}.get(status, "collection error")


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or any(s in m.name for s in argv)]
    counts = Counter()
    for mutant in chosen:
        outcome = run(mutant)
        counts[outcome] += 1
        print(f"{outcome:16} {mutant.path}: {mutant.name}", flush=True)
    print(", ".join(f"{counts[k]} {k}" for k in
                    ("killed", "survived", "collection error", "stale")))
    return 0 if counts["killed"] == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
