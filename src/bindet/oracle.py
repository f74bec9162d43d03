"""Independent ground truth: brute-force spectra and direct verifiers.

The exhaustive oracle reports the exact set of determinants reached by
every binary matrix of a given size; the family oracle does the same for
the 2^n matrices sharing fixed rows 2..n.  Both expand the free top row
through the first-row Laplace expansion, which is an exact determinant
identity for any rows, so the enumeration kernels only ever do fixed-width
integer work (magnitudes are pre-checked).  A report is the kernels'
value bitmap itself: the count and the least missing natural d are read
off it, and the value tuple is only built when it is asked for.

spectrum_family takes its cofactors from exact.cofactor_vector, which
shares one elimination routine with det_exact.  The independent paths are
the exhaustive oracle's cofactors from a prefix tree of shared minors
(_kernels), det_permsum in the tests and perfbench/refimpl.py, which does
not import bindet.  The reports are immutable ``_record.Record`` instances.
"""

from __future__ import annotations

import math
import os
import random
import time
from concurrent.futures import ThreadPoolExecutor
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import _kernels
from ._record import Record
from .construction import (
    binarizing_transform,
    binary_rows,
    construct_matrix,
    orthogonal_vector,
    seed_matrix,
)
from .errors import DependentRowsError, EnumerationCapError, InternalInvariantError
from .exact import cofactor_vector, det_exact, dot, is_orthogonal_to_all
from .fibk import theorem_bound

_EXHAUSTIVE_MAX_N = 6
_EXHAUSTIVE_FORCE_MAX_N = 7
_FAMILY_MAX_N = 30
_FAMILY_MAX_CELLS = 1 << 28
_INT64_GUARD = 1 << 62


class SpectrumReport(Record):
    """Determinants reached by one enumeration, held as their bitmap.

    seen[v - lo] is set exactly for the reached values v, and lo <= 0.  count
    and d are read off the bitmap; the values tuple is built on first access.
    A report holds an array, so it compares by identity.
    """

    __slots__ = ("n", "mode", "seen", "lo", "elapsed", "__dict__")  # for values
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @cached_property
    def values(self) -> tuple[int, ...]:
        return tuple((np.flatnonzero(self.seen) + self.lo).tolist())

    @property
    def count(self) -> int:
        return int(np.count_nonzero(self.seen))

    @property
    def d(self) -> int:
        # The least missing natural: the first zero at or after the cell for 1.
        missing = np.flatnonzero(self.seen[1 - self.lo:] == 0)
        return 1 + int(missing[0]) if missing.size else self.lo + self.seen.size

    def to_text(self, include_values: bool = True) -> str:
        lines = [
            "spectrum",
            f"n {self.n}",
            f"mode {self.mode}",
            f"count {self.count}",
            f"d {self.d}",
        ]
        if include_values:
            lines.append("values " + " ".join(str(v) for v in self.values))
        lines.append("end")
        return "\n".join(lines) + "\n"


def spectrum_exhaustive(n: int, workers: int = 1, force: bool = False) -> SpectrumReport:
    """Exact determinant spectrum over all 2^(n^2) binary n x n matrices.

    Rows 2..n are enumerated as doubly-lexical sets of n-1 distinct binary
    rows, whose union closed under negation is the whole spectrum, and the
    sets reduce to a few distinct cofactor keys (the _kernels docstring has
    the argument): 2,051 sets at n = 5 and 140,199 at n = 6 instead of
    2^(n(n-1)) row assignments.  The sets, numbered in depth-first order,
    are split into min(workers, CPU count, sets) contiguous blocks, one
    thread and one bitmap each, and merged by bitmap union, so the result
    is identical for every worker count.  n above _EXHAUSTIVE_MAX_N = 6,
    the largest size the tests run, is refused unless force is given, and
    above 7 (2.8e7 sets) before any work, as n = 8 means 1.6e10 sets.
    """
    t0 = time.perf_counter()
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
        return SpectrumReport(1, "exhaustive", np.ones(2, dtype=np.uint8), 0,
                              time.perf_counter() - t0)

    # |det| <= n! bounds every reachable value, so a flat bitmap suffices.
    offset = math.factorial(n)
    total = _kernels.family_count(n)
    nblocks = min(workers, os.cpu_count() or 1, total)
    blocks = [(i * total // nblocks, (i + 1) * total // nblocks) for i in range(nblocks)]

    def run(block):
        seen = np.zeros(2 * offset + 1, dtype=np.uint8)
        _kernels.exhaustive_chunk(n, block[0], block[1], seen)
        return seen

    if nblocks == 1:
        results = [run(block) for block in blocks]
    else:
        with ThreadPoolExecutor(max_workers=nblocks) as pool:
            results = list(pool.map(run, blocks))
    merged = results[0]
    for seen in results[1:]:
        merged |= seen
    merged |= merged[::-1]
    return SpectrumReport(n, "exhaustive", merged, -offset, time.perf_counter() - t0)


def spectrum_family(rows: Sequence[Sequence[int]]) -> SpectrumReport:
    """Determinants over all 2^n top rows above the given fixed rows 2..n.

    The cofactors of the fixed rows are computed exactly, then every subset
    sum is marked in a bitmap.  Cofactor magnitudes and the reachable value
    range must fit the 64-bit kernels; binary rows at n <= 30 always do.
    Rows of the wrong shape raise ValueError from cofactor_vector.
    """
    t0 = time.perf_counter()
    n = len(rows) + 1
    if n < 2:
        raise ValueError("need at least one fixed row")
    if n > _FAMILY_MAX_N:
        raise EnumerationCapError(
            f"family enumeration at n={n} means 2^{n} top rows; cap is n={_FAMILY_MAX_N}"
        )

    cof = cofactor_vector(rows)
    if sum(abs(c) for c in cof) >= _INT64_GUARD:
        raise EnumerationCapError("cofactor magnitudes exceed the 64-bit kernels")
    lo = sum(c for c in cof if c < 0)
    hi = sum(c for c in cof if c > 0)
    size = hi - lo + 1
    if size > _FAMILY_MAX_CELLS:
        raise EnumerationCapError(
            f"value range {size} exceeds the bitmap cap {_FAMILY_MAX_CELLS}"
        )
    seen = np.zeros(size, dtype=np.uint8)
    _kernels.family_bitmap(np.array(cof, dtype=np.int64), lo, seen)
    return SpectrumReport(n, "family", seen, lo, time.perf_counter() - t0)


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
    from a failed identity.
    """
    rows = [tuple(int(x) for x in r) for r in rows]
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

    def __init__(self, name: str, passed: bool, detail: str = ""):
        super().__init__(name, passed, detail)


class ConstructionCheckReport(Record):
    """Aggregated self-test of the construction at one (n, k)."""

    __slots__ = ("n", "k", "checks", "targets_swept", "elapsed")

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

    Checks: all binarized entries in {0,1}; binary_rows' row-sum formula
    against the matrix product; orthogonality of the recurrence vector to
    rows 2..n of both the seed and the binarized matrix; the unit-top-row
    determinant being (-1)^(n-k-1); and a full (or, past max(sweep_limit,
    sample) targets, sampled) sweep of targets through construct_matrix
    with exact certification.  Failures are reported, not raised.
    """
    t0 = time.perf_counter()
    checks: list[CheckResult] = []
    swept = 0

    seed_rows = seed_matrix(n, k).rows
    trans = np.array(binarizing_transform(n, k).rows, dtype=np.int64)
    base = np.array(seed_rows, dtype=np.int64)
    product = trans @ base

    ok = bool(((product == 0) | (product == 1)).all())
    detail = ""
    if not ok:
        i, j = (int(x) for x in np.argwhere((product != 0) & (product != 1))[0])
        detail = f"entry ({i + 1}, {j + 1}) = {int(product[i, j])}"
    checks.append(CheckResult("binary_entries", ok, detail))

    rows = tuple(map(tuple, product.tolist()))
    try:
        ok = binary_rows(n, k) == rows
        detail = "" if ok else "row-sum formula disagrees with the matrix product"
    except InternalInvariantError as exc:
        ok, detail = False, str(exc)
    checks.append(CheckResult("row_formula_agreement", ok, detail))

    v = orthogonal_vector(n, k)
    ok = is_orthogonal_to_all(v, seed_rows[1:])
    checks.append(CheckResult("orthogonality_seed", ok))
    ok = is_orthogonal_to_all(v, rows[1:])
    checks.append(CheckResult("orthogonality_binarized", ok))

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
            cert = construct_matrix(n, a, k)
        except Exception as exc:  # a raise here is a finding, not a crash
            ok = False
            detail = f"target {a}: {exc}"
            break
        swept += 1
        if cert.certified_det != a:
            ok = False
            detail = f"target {a}: certified {cert.certified_det}"
            break
    checks.append(CheckResult("target_sweep", ok, detail))

    return ConstructionCheckReport(n, k, tuple(checks), swept, time.perf_counter() - t0)
