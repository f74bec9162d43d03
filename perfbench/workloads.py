"""The benchmark's three workloads: seeded inputs, timed ops, output checks.

Every workload is a closed loop with one caller: an op starts when the
previous one has finished and been checked.  Inputs come in rounds whose
make-up is fixed (which sizes, which op kinds, how many of each) while the
seed picks the targets, the tamper details, the random rows and the order
inside a round.  The runner stops at a round boundary, so every run
measures the same mix and the medians and tails stay comparable across
seeds.

An op has up to three steps: ``prepare`` (untimed, e.g. writing a tampered
copy of a file), ``run`` (the timed call into bindet) and ``check``
(untimed comparison against ``refimpl``).  ``check`` returns an Outcome:
``ok`` when the op met every expectation, ``value_ok`` when every value
bindet reported was right.  The two differ for a verifier that accepts a
tampered document yet reports the matrix's true determinant.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import refimpl
from hostspeed import ComputeProbe, StartupProbe
from refimpl import sha

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OP_TIMEOUT_S = 150


@dataclass
class Outcome:
    ok: bool
    value_ok: bool
    digest: str
    detail: str = ""


def _verdict(ok: bool, digest: str, detail: str) -> Outcome:
    return Outcome(ok, ok, digest, "" if ok else detail)


class Op:
    label = ""

    def prepare(self):
        """Untimed work before the op runs."""


class ConstructBatch:
    """In-process ``construct_matrix`` plus ``to_text`` at n in {64, 96, 128}.

    Few (n, k) pairs and many targets: the per-(n, k) setup is warmed once,
    so per-target certification is nearly the whole cost of an op.
    """

    name = "construct-batch"
    in_process = True
    SIZES = (64, 96, 128)
    PERIOD = 1
    NOMINAL_ROUND_S = 0.2
    PROBE = ComputeProbe
    DET_SAMPLE = 0.125  # share of matrices re-checked with refimpl.det

    def __init__(self, seed: int, work_dir: Path, tracer=None):
        self.rng = random.Random(seed)

    def generate(self):
        self.bounds = {n: refimpl.theorem_bound(n, refimpl.best_k(n)) for n in self.SIZES}

    def warm(self):
        from bindet import construction

        self.construction = construction
        for n in self.SIZES:
            construction.construct_matrix(n, 0).to_text()

    def rounds(self):
        while True:
            sizes = list(self.SIZES)
            self.rng.shuffle(sizes)
            yield [
                ConstructOp(self, n, self.rng.randint(-self.bounds[n], self.bounds[n]),
                            self.rng.random() < self.DET_SAMPLE)
                for n in sizes
            ]


class ConstructOp(Op):
    def __init__(self, wl: ConstructBatch, n: int, target: int, check_det: bool):
        self.wl, self.n, self.target, self.check_det = wl, n, target, check_det
        self.label = f"construct n={n}"

    def describe(self):
        return ("construct", self.n, self.target, self.check_det)

    def run(self):
        cert = self.wl.construction.construct_matrix(self.n, self.target)
        return cert, cert.to_text()

    def check(self, result) -> Outcome:
        cert, text = result
        expected, _ = refimpl.construct(self.n, self.target)
        ok = sha(text) == sha(expected)
        detail = "certificate differs from the reference bytes"
        if ok and self.check_det:
            d = refimpl.det(cert.matrix.rows)
            ok = d == self.target
            detail = f"reference determinant {d}, target {self.target}"
        return _verdict(ok, sha(text), detail)


# --------------------------------------------------------------------------
# cli-oneshot

CERT_TAMPERS = ("bit", "det", "subset", "sign_swap", "truncate")
MATRIX_TAMPERS = ("bit", "truncate")
CLI_BANDS = ((32, 55), (56, 79), (80, 103), (104, 128))


def tamper(text: str, kind: str, u: float, v: float) -> tuple[str, list | None]:
    """A damaged copy of a certificate or matrix document.

    u and v in [0, 1) pick the details.  Returns the text and, when the
    document still holds a whole matrix, its rows.
    """
    lines = text.splitlines()
    if kind == "truncate":
        return text[:max(1, int(len(text) * (0.3 + 0.4 * u)))], None
    is_cert = lines[0] == "certificate"
    first = lines.index("matrix") + 2 if is_cert else 1
    n = int(lines[first - 1])
    if kind == "bit":
        r, c = first + int(u * n), int(v * n)
        cells = lines[r].split()
        cells[c] = "1" if cells[c] == "0" else "0"
        lines[r] = " ".join(cells)
    elif kind == "det":
        i = next(i for i, ln in enumerate(lines) if ln.startswith("det "))
        delta = (1 + int(3 * u)) * (1 if v < 0.5 else -1)
        lines[i] = f"det {int(lines[i].split()[1]) + delta}"
    elif kind == "subset":
        i = next(i for i, ln in enumerate(lines) if ln.startswith("subset"))
        k = int(next(ln for ln in lines if ln.startswith("k ")).split()[1])
        members = {int(t) for t in lines[i].split()[1:]}
        members ^= {1 + int(u * (n - k))}
        lines[i] = "subset" + "".join(f" {j}" for j in sorted(members))
    elif kind == "sign_swap":
        i = lines.index("sign_swap 0") if "sign_swap 0" in lines else lines.index("sign_swap 1")
        lines[i] = "sign_swap " + ("1" if lines[i].endswith("0") else "0")
    else:
        raise ValueError(f"unknown tamper {kind}")
    rows = [tuple(int(x) for x in ln.split()) for ln in lines[first:first + n]]
    return "\n".join(lines) + "\n", rows


class CliOneshot:
    """One fresh ``bindet`` process per op: construct, verify, tampered verify, bound.

    A round is construct (certificate), construct (matrix), verify of each,
    verify of a tampered copy of each and one bound.  Construct sizes are
    stratified over four bands of 32..128 across each pair of rounds, and
    the tamper classes rotate so each appears equally often.
    """

    name = "cli-oneshot"
    in_process = False
    # Sizes repeat every 2 rounds and certificate tampers every 5.
    PERIOD = 10
    NOMINAL_ROUND_S = 2.1
    PROBE = StartupProbe

    def __init__(self, seed: int, work_dir: Path, tracer=None):
        self.rng = random.Random(seed)
        self.work_dir = work_dir
        self.tracer = tracer
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self._files = 0

    def generate(self):
        pass  # sizes and targets are drawn round by round

    @staticmethod
    def target(rng: random.Random, n: int) -> int:
        bound = refimpl.theorem_bound(n, refimpl.best_k(n))
        return rng.randint(-bound, bound)

    def warm(self):
        # Compiles bindet's bytecode caches, as the first run of an install does.
        proc = subprocess.run(self.command(["bound", "--n", "32", "--format", "structured"]),
                              capture_output=True, env=self.env, timeout=OP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"bindet warm-up failed: {proc.stderr.decode()[-400:]}")

    def command(self, args, spans_file=None, op_id=0):
        if spans_file is None:
            return [sys.executable, "-m", "bindet.cli", *args]
        return [sys.executable, str(HERE / "cli_child.py"), str(spans_file), str(op_id), "--", *args]

    def path(self, suffix: str) -> Path:
        self._files += 1
        return self.work_dir / f"doc{self._files}.{suffix}"

    def rounds(self):
        rng = self.rng
        r = 0
        while True:
            if r % 2 == 0:
                bands = list(CLI_BANDS)
                rng.shuffle(bands)
                mat_kinds = list(MATRIX_TAMPERS)
                rng.shuffle(mat_kinds)
            if r % len(CERT_TAMPERS) == 0:
                cert_kinds = list(CERT_TAMPERS)
                rng.shuffle(cert_kinds)
            n1, n2 = (rng.randint(*bands[2 * (r % 2) + i]) for i in range(2))
            c = CliConstruct(self, n1, self.target(rng, n1), "certificate")
            m = CliConstruct(self, n2, self.target(rng, n2), "matrix")
            rest = [
                CliVerify(self, c, None, 0, 0),
                CliVerify(self, m, None, 0, 0),
                CliVerify(self, c, cert_kinds[r % len(CERT_TAMPERS)], rng.random(), rng.random()),
                CliVerify(self, m, mat_kinds[r % 2], rng.random(), rng.random()),
                CliBound(self, rng.randint(32, 128)),
            ]
            rng.shuffle(rest)
            yield [c, m, *rest]
            r += 1


class CliOp(Op):
    """Common process handling: timed spawn-to-exit, optional child spans."""

    args: list

    def run(self):
        tracer = self.wl.tracer
        spans_file = None
        if tracer is not None:
            spans_file = self.wl.work_dir / f"op{tracer.op_id}.spans.json"
        proc = subprocess.run(self.wl.command(self.args, spans_file, tracer.op_id if tracer else 0),
                              capture_output=True, env=self.wl.env, timeout=OP_TIMEOUT_S)
        return proc.returncode, proc.stdout.decode(), proc.stderr.decode(), spans_file

    def adopt_spans(self, result, tracer, root: int):
        spans_file = result[3]
        if spans_file is not None and spans_file.exists():
            tracer.adopt(json.loads(spans_file.read_text()), root)
            spans_file.unlink()

    def expect(self, result, code: int, stdout: str, value_ok=None, extra: str = "") -> Outcome:
        rc, out, err, _ = result
        digest = sha(f"{rc}\n{out}{extra}")
        crashed = rc not in (0, 1) or "Traceback" in err
        ok = not crashed and rc == code and out == stdout
        if value_ok is None:
            value_ok = ok
        detail = f"exit {rc} (want {code}); stdout {out[:60]!r}; stderr {err[-200:]!r}"
        return Outcome(ok, value_ok and not crashed, digest, "" if ok else detail)


class CliConstruct(CliOp):
    def __init__(self, wl: CliOneshot, n: int, target: int, emit: str):
        self.wl, self.n, self.target, self.emit = wl, n, target, emit
        self.out = wl.path("cert" if emit == "certificate" else "mat")
        self.args = ["construct", "--n", str(n), "--det", str(target), "--format", "structured",
                     "--out", str(self.out)]
        if emit == "matrix":
            self.args += ["--emit", "matrix"]
        self.label = f"construct --emit {emit}"

    def describe(self):
        return ("construct", self.n, self.target, self.emit)

    def reference(self) -> str:
        text, rows = refimpl.construct(self.n, self.target)
        return text if self.emit == "certificate" else refimpl.matrix_text(rows)

    def check(self, result) -> Outcome:
        doc = self.out.read_text() if self.out.exists() else ""
        outcome = self.expect(result, 0, "", extra=doc)
        if outcome.ok and sha(doc) != sha(self.reference()):
            return Outcome(False, False, outcome.digest, "written document differs from the reference")
        return outcome


class CliVerify(CliOp):
    def __init__(self, wl: CliOneshot, source: CliConstruct, kind, u: float, v: float):
        self.wl, self.source, self.kind, self.u, self.v = wl, source, kind, u, v
        self.doc = source.out if kind is None else wl.path("tampered")
        self.args = ["verify", str(self.doc), "--format", "structured"]
        self.label = "verify" if kind is None else f"verify tampered {source.emit} {kind}"

    def describe(self):
        return ("verify", self.source.describe(), self.kind, self.u, self.v)

    def prepare(self):
        if self.kind is not None:
            try:
                text, self.rows = tamper(self.source.out.read_text(), self.kind, self.u, self.v)
            except (OSError, ValueError, IndexError, StopIteration):
                # The construct op wrote no usable document and has failed already.
                text, self.rows = "", None
            self.doc.write_text(text)

    def check(self, result) -> Outcome:
        target = self.source.target
        if self.kind is None:
            return self.expect(result, 0, refimpl.verify_ok_text(target))
        if self.kind != "truncate" and self.rows is None:
            return Outcome(False, False, sha(repr(result[:3])), "no document to tamper with")
        if self.source.emit == "matrix":
            if self.kind == "bit":
                return self.expect(result, 0, refimpl.verify_ok_text(refimpl.det(self.rows)))
            return self.expect(result, 1, "")
        # A certificate with any field damaged must be rejected.  If it is
        # accepted anyway, the reported determinant is still checked.
        value_ok = True
        if result[0] == 0:
            true_det = refimpl.det(self.rows) if self.kind == "bit" else target
            value_ok = self.kind != "truncate" and result[1] == refimpl.verify_ok_text(true_det)
        return self.expect(result, 1, "", value_ok=value_ok)


class CliBound(CliOp):
    def __init__(self, wl: CliOneshot, n: int):
        self.wl, self.n = wl, n
        self.args = ["bound", "--n", str(n), "--format", "structured"]
        self.label = "bound"

    def describe(self):
        return ("bound", self.n)

    def check(self, result) -> Outcome:
        return self.expect(result, 0, refimpl.bound_text(self.n))


# --------------------------------------------------------------------------
# spectrum

class Spectrum:
    """In-process spectra: exhaustive at n=5 against family spectra at n=18..24.

    A round is one ``spectrum_exhaustive(5, workers=1)`` plus
    ``spectrum_family`` over the construction rows of each (n, k) in
    FAMILIES and over RANDOM_FAMILIES sets of random 0/1 rows at n=18.  On
    the seed the exhaustive op and the families take about equal time.

    Latency classes are few and far apart, so the round is built to keep
    the median and the tail inside one class whatever the seed and the
    number of rounds: 34 ops a round make every run of three or more rounds
    report p90, which falls inside the four (24, 4) families, and the
    median falls inside the sixteen (19, 4) families.  Repeated families
    get a seeded permutation of their rows, which leaves the cost alone and
    negates the values for an odd permutation.
    """

    name = "spectrum"
    in_process = True
    FAMILIES = ((24, 4),) * 4 + ((23, 4), (23, 3), (22, 4), (21, 4)) + ((19, 4),) * 16
    RANDOM_N = 18
    RANDOM_FAMILIES = 9
    PERIOD = 1
    NOMINAL_ROUND_S = 5.0
    PROBE = ComputeProbe

    def __init__(self, seed: int, work_dir: Path, tracer=None):
        self.rng = random.Random(seed)
        self.expected: dict[tuple[int, int, int], str] = {}

    def generate(self):
        self.families = {nk: refimpl.construction_rows(*nk)[1:] for nk in set(self.FAMILIES)}

    def warm(self):
        from bindet import oracle

        self.oracle = oracle
        oracle.spectrum_exhaustive(3, workers=1)
        oracle.spectrum_family(self.families[(19, 4)])

    def permuted(self, nk):
        rows = self.families[nk]
        order = list(range(len(rows)))
        self.rng.shuffle(order)
        inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
        return tuple(rows[i] for i in order), (*nk, inversions % 2)

    def random_rows(self):
        n = self.RANDOM_N
        return tuple(tuple(self.rng.randint(0, 1) for _ in range(n)) for _ in range(n - 1))

    def rounds(self):
        while True:
            ops = [ExhaustiveOp(self)]
            ops += [FamilyOp(self, *self.permuted(nk)) for nk in self.FAMILIES]
            ops += [FamilyOp(self, self.random_rows(), None) for _ in range(self.RANDOM_FAMILIES)]
            self.rng.shuffle(ops)
            yield ops


class ExhaustiveOp(Op):
    label = "exhaustive n=5"

    def __init__(self, wl: Spectrum):
        self.wl = wl

    def describe(self):
        return ("exhaustive", 5)

    def run(self):
        return self.wl.oracle.spectrum_exhaustive(5, workers=1)

    def check(self, report) -> Outcome:
        text = report.to_text()
        expected = refimpl.spectrum_text(5, "exhaustive", refimpl.EXHAUSTIVE_5)
        return _verdict(sha(text) == sha(expected), sha(text), "n=5 spectrum is not -5..5")


class FamilyOp(Op):
    def __init__(self, wl: Spectrum, rows, key):
        """key is (n, k, permutation parity) for construction rows, None for random rows."""
        self.wl, self.rows, self.key = wl, rows, key
        n = len(rows) + 1
        self.label = f"family construction n={n} k={key[1]}" if key else f"family random n={n}"

    def describe(self):
        return ("family", self.rows)

    def run(self):
        return self.wl.oracle.spectrum_family(self.rows)

    def expected_digest(self) -> str:
        if self.key in self.wl.expected:
            return self.wl.expected[self.key]
        n = len(self.rows) + 1
        digest = sha(refimpl.spectrum_text(n, "family", refimpl.family_values(self.rows).tolist()))
        if self.key is not None:
            self.wl.expected[self.key] = digest
        return digest

    def check(self, report) -> Outcome:
        digest = sha(report.to_text())
        return _verdict(digest == self.expected_digest(), digest,
                        f"{self.label} spectrum differs from the reference")


WORKLOADS = {wl.name: wl for wl in (ConstructBatch, CliOneshot, Spectrum)}
