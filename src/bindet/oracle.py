"""Independent ground truth: brute-force spectra and direct verifiers.

The exhaustive oracle reports the exact set of determinants reached by
every binary matrix of a given size; the family oracle does the same for
the 2^n matrices sharing fixed rows 2..n.  Both expand the free top row
through the first-row Laplace expansion, which is an exact determinant
identity for any rows.  A report holds the reached values as a run, as
complete cofactors such as the construction's reach, or as a Python-int
bitset: count and d are read off either, the document is written a window
at a time, and the value tuple is only built when it is asked for.

spectrum_family takes its cofactors from exact.cofactor_vector, which
shares one elimination routine with det_exact, and sweeps their subset
sums with exact.subset_sums, so it needs no numpy.  The independent paths
are the exhaustive oracle's cofactors from a prefix tree of shared minors
(_kernels, imported by spectrum_exhaustive alone, as it loads numpy),
det_permsum in the tests and perfbench/refimpl.py, which does not import
bindet.  The reports are immutable ``_record.Record`` values, untimed.
"""

from __future__ import annotations

import io
import math
import os
import random
from functools import cached_property
from itertools import chain, compress
from typing import Iterable, Sequence, TextIO

from ._record import Record
from .construction import (
    binarizing_transform,
    binary_rows,
    construct_matrix,
    orthogonal_vector,
    seed_matrix,
)
from .errors import DependentRowsError, EnumerationCapError
from .exact import (_first_non_binary, cofactor_vector, det_exact, dot, is_orthogonal_to_all,
                    subset_sums, widen)
from .fibk import theorem_bound

_EXHAUSTIVE_MAX_N = 6
_EXHAUSTIVE_FORCE_MAX_N = 7
_FAMILY_MAX_N = 30
_FAMILY_MAX_CELLS = 1 << 28
_VALUES_WINDOW = 1 << 16
_BITS = bytes.maketrans(b"01", b"\0\1")  # binary digits to selectors for compress


class SpectrumReport(Record):
    """Determinants reached by one enumeration: a run, or a Python-int bitset.

    Values are lo + j for the bits j of rest widened by [0, s], lo <= 0:
    rest = 1 is the run [lo, lo + s]; otherwise s = 0 and rest is the
    bitset.  values is built on first access; write streams without it.
    """

    __slots__ = ("n", "mode", "lo", "s", "rest", "__dict__")  # for values

    @property
    def seen(self) -> int:  # bit v - lo is set for each reached value v
        return widen(self.s, self.rest)

    def _windows(self):
        """The reached values, one iterator per window of _VALUES_WINDOW cells with any set."""
        lo, width = self.lo, _VALUES_WINDOW
        if self.rest == 1:
            end = lo + self.s + 1
            yield from (range(i, min(i + width, end)) for i in range(lo, end, width))
            return
        seen = self.seen
        size, mask = seen.bit_length(), (1 << width) - 1
        data = seen.to_bytes((size + 7) // 8, "little")
        for i in range(0, size, width):
            cells = int.from_bytes(data[i >> 3:(i + width + 7) >> 3], "little") >> (i & 7) & mask
            if cells:
                # Digit j of the reversed binary text is cell i + j.
                selectors = format(cells, "b")[::-1].encode().translate(_BITS)
                yield compress(range(lo + i, lo + i + len(selectors)), selectors)

    @cached_property
    def values(self) -> tuple[int, ...]:
        return tuple(chain.from_iterable(self._windows()))

    @property
    def count(self) -> int:
        return self.s + 1 if self.rest == 1 else self.seen.bit_count()

    @property
    def d(self) -> int:
        # The least missing natural: 1 + the run of set cells from the cell for 1.
        if self.rest == 1:
            return max(self.lo + self.s, 0) + 1
        run = self.seen >> (1 - self.lo)
        return (run ^ (run + 1)).bit_length()

    def write_values(self, *sinks: TextIO) -> None:
        """Write the values, space-separated, onto every sink, one window at a time.

        So the peak is one window's text, not every value as an int and a string.
        """
        sep = ""
        for window in self._windows():
            text = sep + " ".join(map(str, window))
            for sink in sinks:
                sink.write(text)
            sep = " "

    def write(self, out: TextIO, include_values: bool = True,
              echo: tuple[TextIO, ...] = ()) -> None:
        """Write the document onto out; the sinks in echo get its value list too."""
        out.write(f"spectrum\nn {self.n}\nmode {self.mode}\ncount {self.count}\nd {self.d}\n")
        if include_values:
            out.write("values ")
            self.write_values(out, *echo)
            out.write("\n")
        out.write("end\n")

    def to_text(self, include_values: bool = True) -> str:
        buf = io.StringIO()
        self.write(buf, include_values)
        return buf.getvalue()


def spectrum_exhaustive(n: int, workers: int = 1, force: bool = False) -> SpectrumReport:
    """Exact determinant spectrum over all 2^(n^2) binary n x n matrices.

    Rows 2..n are enumerated as doubly-lexical sets of n-1 distinct binary
    rows, whose union closed under negation is the whole spectrum, and the
    sets reduce to a few distinct cofactor keys (the _kernels docstring has
    the argument): 2,051 sets at n = 5 and 140,199 at n = 6 instead of
    2^(n(n-1)) row assignments.  The sets, numbered in depth-first order,
    are split into min(workers, CPU count, sets) contiguous blocks, one
    thread and one bitset each, and merged by union, so the result is
    identical for every worker count.  n above _EXHAUSTIVE_MAX_N = 6, the
    largest size the tests run, is refused unless force is given, and
    above 7 (2.8e7 sets) before any work, as n = 8 means 1.6e10 sets.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if workers < 1:
        raise ValueError(f"workers must be positive, got {workers}")
    if n > (_EXHAUSTIVE_FORCE_MAX_N if force else _EXHAUSTIVE_MAX_N):
        raise EnumerationCapError(
            f"exhaustive enumeration at n={n} means 2^{n * n} matrices; cap is "
            f"n={_EXHAUSTIVE_MAX_N}, pass force to override up to n={_EXHAUSTIVE_FORCE_MAX_N}"
        )
    if n == 1:
        return SpectrumReport(1, "exhaustive", 0, 1, 1)

    from . import _kernels  # loads numpy

    # |det| <= n! bounds every reachable value, so 2 n! + 1 cells suffice.
    offset = math.factorial(n)
    total = _kernels.family_count(n)
    nblocks = min(workers, os.cpu_count() or 1, total)
    blocks = [(i * total // nblocks, (i + 1) * total // nblocks) for i in range(nblocks)]

    def run(block):
        return _kernels.exhaustive_chunk(n, block[0], block[1], offset)

    if nblocks == 1:
        results = [run(block) for block in blocks]
    else:
        from concurrent.futures import ThreadPoolExecutor  # loads logging: only when used

        with ThreadPoolExecutor(max_workers=nblocks) as pool:
            results = list(pool.map(run, blocks))
    seen = 0
    for cells in results:
        seen |= cells
    # Close under negation: the cell of -v mirrors that of v among the 2 n! + 1.
    seen |= int(format(seen, f"0{2 * offset + 1}b")[::-1], 2)
    return SpectrumReport(n, "exhaustive", -offset, 0, seen)


def spectrum_family(rows: Sequence[Sequence[int]]) -> SpectrumReport:
    """Determinants over all 2^n top rows above the given fixed rows 2..n.

    The cofactors C of the fixed rows are computed exactly.  The reached
    values are the subset sums of C, which are those of |C| shifted down by
    lo, the sum of the negative C_j: exact.subset_sums over the |C_j| in
    increasing order (the zeros a harmless prefix) gives the end s of their
    complete prefix and the bitset of the sums after it.  With none after
    it, the report is the run [lo, lo + s]; else that bitset is widened by
    [0, s] here.  Either way sum(|C_j|) + 1 <= _FAMILY_MAX_CELLS = 2^28.
    Rows of the wrong shape raise ValueError from cofactor_vector.
    """
    n = len(rows) + 1
    if n < 2:
        raise ValueError("need at least one fixed row")
    if n > _FAMILY_MAX_N:
        raise EnumerationCapError(
            f"family enumeration at n={n} means 2^{n} top rows; cap is n={_FAMILY_MAX_N}"
        )

    cof = cofactor_vector(rows)
    mags = sorted(map(abs, cof))
    size = sum(mags) + 1
    if size > _FAMILY_MAX_CELLS:
        raise EnumerationCapError(
            f"value range exceeds the bitmap cap of {_FAMILY_MAX_CELLS} cells"
        )
    lo = (sum(cof) - size + 1) // 2  # the negative C_j's sum: (sum C - sum |C|) / 2
    s, rest = subset_sums(mags)
    s, rest = (s, 1) if rest == 1 else (0, widen(s, rest))
    return SpectrumReport(n, "family", lo, s, rest)


def verify_laplace_identity(
    rows: Sequence[Sequence[int]],
    trials: int = 100,
    rng: "random.Random | int | None" = None,
) -> bool:
    """Check det([r1; rows]) = v . r1 on random binary top rows.

    v is the exact cofactor vector of the rows, so the identity holds with
    no scale factor: each trial checks one full determinant elimination
    against the cofactor path, and a wrong sign or scale in either fails.
    Linearly dependent rows raise DependentRowsError, a distinct outcome
    from a failed identity.  Entries follow exact's operator.index rule.
    """
    n = len(rows) + 1
    v = cofactor_vector(rows)
    if not any(v):
        raise DependentRowsError("rows are linearly dependent; the identity needs rank n-1")
    if not isinstance(rng, random.Random):
        rng = random.Random(rng)
    for _ in range(trials):
        r1 = tuple(rng.randint(0, 1) for _ in range(n))
        if det_exact([r1, *rows]) != dot(v, r1):
            return False
    return True


class CheckResult(Record):
    __slots__ = ("name", "passed", "detail")


class ConstructionCheckReport(Record):
    """Aggregated self-test of the construction at one (n, k)."""

    __slots__ = ("n", "k", "checks", "targets_swept")

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_text(self) -> str:
        lines = [f"selftest n={self.n} k={self.k}"]
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            suffix = f" ({c.detail})" if c.detail and not c.passed else ""
            lines.append(f"  {status} {c.name}{suffix}")
        lines.append(f"  targets swept: {self.targets_swept}")
        return "\n".join(lines) + "\n"


def verify_construction(
    n: int,
    k: int,
    sweep_limit: int = 4096,
    sample: int = 200,
    seed: int = 0,
) -> ConstructionCheckReport:
    """Re-derive and test every claimed property of the construction at (n, k).

    The binarized matrix is re-derived as the product binarizing_transform
    @ seed_matrix in plain ints.  Checks: all its entries in {0,1};
    binary_rows' closed form equal to it; orthogonality of orthogonal_vector
    to rows 2..n of both the seed and the product; the product's unit-top-row
    determinant being (-1)^(n-k-1); and a full (or, past max(sweep_limit,
    sample) targets, sampled) sweep of targets through construct_matrix
    with exact certification.  Failures are reported, not raised.
    """
    checks: list[CheckResult] = []
    swept = 0

    seed_rows = seed_matrix(n, k).rows
    # transform @ seed in Python ints: each row sums the seed rows that its
    # transform row selects, scaled by the transform's entries.
    rows = tuple(tuple(map(sum, zip((0,) * n, *(s if t == 1 else [t * x for x in s]
                                                for t, s in zip(trow, seed_rows) if t))))
                 for trow in binarizing_transform(n, k).rows)
    bad = _first_non_binary(rows)
    detail = "" if bad is None else f"entry ({bad[0] + 1}, {bad[1] + 1}) = {bad[2]}"
    checks.append(CheckResult("binary_entries", bad is None, detail))

    ok = binary_rows(n, k) == rows
    detail = "" if ok else "row-sum formula disagrees with the matrix product"
    checks.append(CheckResult("row_formula_agreement", ok, detail))

    v = orthogonal_vector(n, k)
    ok = is_orthogonal_to_all(v, seed_rows[1:])
    checks.append(CheckResult("orthogonality_seed", ok, ""))
    ok = is_orthogonal_to_all(v, rows[1:])
    checks.append(CheckResult("orthogonality_binarized", ok, ""))

    d = det_exact(rows)
    expect = -1 if (n - k - 1) % 2 else 1
    detail = "" if d == expect else f"got {d}, expected {expect}"
    checks.append(CheckResult("unit_determinant", d == expect, detail))

    bound = theorem_bound(n, k)
    # Sampling could never pick sample distinct targets from fewer.
    if 2 * bound + 1 <= max(sweep_limit, sample):
        targets: Iterable[int] = range(-bound, bound + 1)
    else:
        rng = random.Random(seed)
        picked = {0, 1, -1, bound, -bound}
        while len(picked) < sample:
            picked.add(rng.randint(-bound, bound))
        targets = sorted(picked)
    ok = True
    detail = ""
    for a in targets:
        try:
            construct_matrix(n, a, k)
        except Exception as exc:  # a raise here is a finding, not a crash
            ok = False
            detail = f"target {a}: {exc}"
            break
        swept += 1
    checks.append(CheckResult("target_sweep", ok, detail))

    return ConstructionCheckReport(n, k, tuple(checks), swept)
