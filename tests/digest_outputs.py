"""Digest bindet's command-line outputs over a fixed corpus of runs.

    python tests/digest_outputs.py [--base REV]

Runs each command of the corpus in-process through ``bindet.cli.main``, in
a fresh interpreter with this checkout's src/ on the import path, and hashes
its argv, exit status, stdout, stderr and every file it wrote with --out.
Prints one SHA-256 digest per command class with its run count, and the
total.  With --base REV, it also exports REV's src/ with ``git archive``,
runs the same corpus there, prints both digests per class, names the first
run that differs, and exits 1 if any does.

The corpus: construct over a grid of n, k and targets, in both formats and
both --emit values, to stdout and to --out; verify of every document written
and of a tampered copy of each; bound; fib; the exhaustive spectrum and
spectrum --rows on random rows and on construction rows; three selftest
grids; and error cases.  The CLI reads the clock only for its pretty
timings, which are fixed here at 0.00s.  Standard library only; not part of
the tier-1 suite.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _corpus(bound):
    """(class, argv) pairs, in order; bound(n, k) is theorem_bound from the tree under test."""
    construct = []
    for n in (4, 5, 7, 10, 16, 24, 33, 64, 100, 128):
        for k in sorted({None, 2, n // 2}, key=lambda k: k or 0):
            top = bound(n, k)
            rng = random.Random(n * 100 + (k or 0))
            ks = [] if k is None else ["--k", str(k)]
            for target in (0, 1, -1, top, -top, rng.randint(-top, top), top + 1):
                base = ["construct", "--n", str(n), "--det", str(target), *ks]
                stem = f"n{n}-k{k}-t{target}"
                construct += [
                    base + ["--format", "structured"],
                    base + ["--format", "structured", "--emit", "matrix",
                            "--out", f"{stem}.matrix"],
                    base + ["--out", f"{stem}.cert"],
                    base + ["--emit", "matrix"],
                ]
    for argv in construct:
        yield "construct", argv
    # The corpus is a generator: these files exist once the runs above are done.
    written = [argv[-1] for argv in construct if "--out" in argv and Path(argv[-1]).exists()]
    for path in written:
        for fmt in ("structured", "pretty"):
            yield "verify", ["verify", path, "--format", fmt]
        _tamper(path)
        yield "verify", ["verify", f"{path}.tampered", "--format", "structured"]

    for n in (1, 2, 4, 10, 64, 1000, 20000):
        for k in (None, 2, 3, 7, n):
            for fmt in ("structured", "pretty"):
                yield "bound", ["bound", "--n", str(n), *([] if k is None else ["--k", str(k)]),
                                "--format", fmt]
    for k in (2, 3, 5):
        for count in (1, 2, 10, 100, 1000):
            for fmt in ("structured", "pretty"):
                yield "fib", ["fib", "--k", str(k), "--count", str(count), "--format", fmt]

    for n in range(1, 6):
        for fmt in ("structured", "pretty"):
            yield "spectrum", ["spectrum", "--n", str(n), "--format", fmt]
            yield "spectrum", ["spectrum", "--n", str(n), "--no-values", "--format", fmt]
    yield "spectrum", ["spectrum", "--n", "5", "--workers", "2", "--format", "structured"]
    yield "spectrum", ["spectrum", "--n", "4", "--out", "spectrum-4.txt"]
    yield "spectrum", ["spectrum", "--n", "4", "--format", "structured", "--out", "spectrum-4.s"]
    for name in _rows_files(written):
        for fmt in ("structured", "pretty"):
            yield "spectrum --rows", ["spectrum", "--rows", name, "--format", fmt]

    for grid in (["--n-max", "8", "--k-max", "3", "--sweep-limit", "64", "--sample", "20"],
                 ["--n-max", "12", "--k-max", "2"],
                 ["--n-max", "16", "--k-max", "4", "--sweep-limit", "32", "--sample", "10",
                  "--seed", "3"]):
        for fmt in ("structured", "pretty"):
            yield "selftest", ["selftest", *grid, "--format", fmt]

    for argv in ([], ["construct", "--n", "10"], ["construct", "--n", "10", "--det", "x"],
                 ["verify", "missing.txt"], ["verify", "malformed.txt"],
                 ["spectrum", "--rows", "malformed.txt"], ["spectrum", "--n", "8"],
                 ["spectrum", "--n", "0"], ["fib", "--k", "2", "--count", "0"],
                 ["fib", "--k", "1", "--count", "5"], ["bound", "--n", "10", "--k", "1"],
                 ["bound", "--n", "0"], ["selftest", "--n-max", "3", "--k-max", "2"],
                 ["construct", "--n", "10", "--det", "1", "--out", "missing/cert.txt"]):
        yield "errors", argv


def _rows_files(written):
    """Write the rows files for spectrum --rows; returns their names, in order."""
    names = []
    rng = random.Random(2024)
    for n in range(2, 19):
        for kind, entries in (("binary", (0, 1)), ("ternary", (-1, 0, 1)),
                              ("small", (-2, -1, 0, 1, 2))):
            for rep in range(3):
                rows = [" ".join(str(rng.choice(entries)) for _ in range(n))
                        for _ in range(n - 1)]
                names.append(f"rows-{kind}-{n}-{rep}.txt")
                Path(names[-1]).write_text(f"{n - 1}\n" + "".join(r + "\n" for r in rows))
    for path in written:
        lines = Path(path).read_text().split("\n")[:-1]
        if not path.endswith(".matrix") or int(lines[0]) > 24:
            continue
        rows = lines[2:]  # the matrix below its top row
        for order, shuffled in (("", rows), ("-shuffled", rng.sample(rows, len(rows)))):
            names.append(f"rows-{path}{order}.txt")
            Path(names[-1]).write_text(f"{len(rows)}\n" + "".join(r + "\n" for r in shuffled))
    return names


def _tamper(path):
    """Write path.tampered: the last entry of the first matrix row flipped between 0 and 1."""
    lines = Path(path).read_text().split("\n")
    at = lines.index("matrix") + 2 if "matrix" in lines else 1
    lines[at] = lines[at][:-1] + {"0": "1", "1": "0"}[lines[at][-1]]
    Path(f"{path}.tampered").write_text("\n".join(lines))


def _records():
    """Run the corpus in a scratch directory; yield (class, argv, digest) per run."""
    from bindet import cli
    from bindet.fibk import best_k, theorem_bound

    cli.perf_counter = lambda: 0.0  # pretty timings read 0.00s
    bound = lambda n, k: theorem_bound(n, best_k(n) if k is None else k)  # noqa: E731
    with tempfile.TemporaryDirectory(prefix="bindet-digest-") as tmp:
        os.chdir(tmp)
        Path("malformed.txt").write_text("2\n1 0\n0 x\n")
        for cls, argv in _corpus(bound):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    status = cli.main(argv)
                except SystemExit as exc:  # argparse's usage errors
                    status = exc.code
            h = hashlib.sha256(json.dumps([argv, status, out.getvalue(), err.getvalue()]).encode())
            out_file = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
            if out_file is not None and out_file.is_file():
                h.update(b"\0out\0" + out_file.read_bytes())
            yield cls, argv, h.hexdigest()


def _run_tree(src: Path) -> list[tuple[str, list[str], str]]:
    """The records of the corpus run on the package in src, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--records"],
                          env=env, capture_output=True, text=True, check=True)
    return [tuple(json.loads(line)) for line in proc.stdout.splitlines()]


def _class_digests(records):
    """{class: (runs, digest of its runs' digests in order)}, in corpus order."""
    hashes, runs = {}, Counter()
    for cls, _, digest in records:
        hashes.setdefault(cls, hashlib.sha256()).update(digest.encode())
        runs[cls] += 1
    return {cls: (runs[cls], h.hexdigest()[:16]) for cls, h in hashes.items()}


def _export(rev: str, dest: Path) -> Path:
    """Extract rev's src/ into dest with git archive; returns dest/src."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return dest / "src"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", metavar="REV", help="also run REV's src/ and compare")
    parser.add_argument("--records", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.records:  # the child: one JSON line per run
        for record in _records():
            print(json.dumps(record))
        return 0
    ours = _run_tree(ROOT / "src")
    mine = _class_digests(ours)
    if args.base is None:
        for cls, (runs, digest) in mine.items():
            print(f"{cls:16} {runs:6} runs  {digest}")
        print(f"{'total':16} {len(ours):6} runs")
        return 0
    with tempfile.TemporaryDirectory(prefix="bindet-base-") as tmp:
        theirs = _run_tree(_export(args.base, Path(tmp)))
    base = _class_digests(theirs)
    for cls in dict.fromkeys([*base, *mine]):
        (runs, digest), (base_runs, base_digest) = mine.get(cls, (0, "-")), base.get(cls, (0, "-"))
        verdict = "equal" if (runs, digest) == (base_runs, base_digest) else "DIFFER"
        print(f"{cls:16} {base_runs:6} / {runs:6} runs  {base_digest}  {digest}  {verdict}")
    print(f"{'total':16} {len(theirs):6} / {len(ours):6} runs")
    first = next((i for i, (a, b) in enumerate(zip(theirs, ours)) if a != b),
                 None if len(theirs) == len(ours) else min(len(theirs), len(ours)))
    if first is None:
        print(f"every run equal to {args.base}")
        return 0
    cls, run_argv, _ = (ours if first < len(ours) else theirs)[first]
    print(f"first run that differs: #{first} ({cls}) bindet {' '.join(run_argv)}")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
