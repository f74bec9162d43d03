"""Exact linear algebra over arbitrary-precision integers.

Determinants and cofactors share one fraction-free (Bareiss) single-step
elimination routine, ``_eliminate``: every intermediate value is a minor of
the input matrix, so all interior divisions are exact and no rational
arithmetic is needed.  ``det_exact`` eliminates the square matrix itself.
``cofactor_vector`` eliminates its n-1 rows alone and recovers the cofactors
by Cramer back substitution: their kernel vector, scaled so that its free
entry is the maximal minor on the pivot columns, is integral.

Rows are lists of Python ints end to end, with no numpy, so results are
exact at any magnitude and importing this module stays cheap.  A row that
is zero in the pivot column is not rescaled but left to catch up at its
next real update, which on sparse 0/1 matrices skips most of the work.
Exactness is checked once per row: floor remainders all take the divisor's
sign, so a row divides exactly iff the sum of its numerators equals the
divisor times the sum of its quotients, and each row's sum is carried
beside it.  A division by 1 is exact, so it is skipped with its check.

Entries are taken through ``operator.index``: ints, bools and numpy
integers pass, while a float or a string raises TypeError instead of being
truncated or parsed.  ``IntMatrix`` is a ``_record.Record``.  Its
``to_text`` formats every row directly, except for a matrix built by the
private ``IntMatrix._of_checked_rows``, which carries its text (a slot, not
a field) and checks nothing: construction checks and renders the fixed
lower rows of each (n, k) once and builds only the 0/1 top row per target.
``subset_sums`` is the Python-int subset-sum bitset of both spectrum
oracles: one mask over a complete prefix of weights, as the k-step
Fibonacci weights are, then one shift-or per weight.
"""

from __future__ import annotations

from itertools import chain
from operator import index, mul
from typing import Iterable, Sequence

from ._record import Record, _set
from .errors import InternalInvariantError


class IntMatrix(Record):
    """Immutable square matrix of arbitrary-precision integers."""

    __slots__ = ("rows", "_text")  # _text: the to_text output, or None

    def __init__(self, rows: Iterable[Sequence[int]]):
        norm = tuple(tuple(map(index, row)) for row in rows)
        n = len(norm)
        if n < 1:
            raise ValueError("matrix must have at least one row")
        if set(map(len, norm)) != {n}:
            length = next(len(row) for row in norm if len(row) != n)
            raise ValueError(f"matrix is not square: {n} rows but a row of length {length}")
        _set(self, "rows", norm)
        _set(self, "_text", None)

    @classmethod
    def _of_checked_rows(cls, rows: tuple[tuple[int, ...], ...], text: str) -> "IntMatrix":
        """A matrix on rows the caller has already certified as n tuples of n ints.

        Checks nothing.  text must be exactly what to_text would format from
        the rows; it is returned by to_text as it is.
        """
        m = object.__new__(cls)
        _set(m, "rows", rows)
        _set(m, "_text", text)
        return m

    @property
    def n(self) -> int:
        return len(self.rows)

    def is_binary(self) -> bool:
        return all(x in (0, 1) for row in self.rows for x in row)

    def to_text(self) -> str:
        """Serialize to the shared matrix text format.

        Line 1 is n; lines 2..n+1 hold n space-separated decimal entries each.
        """
        if self._text is not None:
            return self._text
        lines = [str(self.n)]
        lines.extend(" ".join(map(str, row)) for row in self.rows)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "IntMatrix":
        return cls(parse_rows(text))


def parse_rows(text: str, extra: int = 0) -> tuple[tuple[int, ...], ...]:
    """Rows of the shared text format: a count m, then m lines of m + extra integers.

    Matrix files use extra = 0 and rows files, the n-1 rows below a free top
    row, extra = 1.  Blank lines are ignored; anything else raises ValueError.
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("text is empty")
    try:
        m = int(lines[0])
    except ValueError:
        raise ValueError(f"text must start with the row count, got {lines[0]!r}") from None
    if m < 1:
        raise ValueError(f"row count must be positive, got {m}")
    if len(lines) != m + 1:
        raise ValueError(f"expected {m} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        try:
            row = tuple(int(tok) for tok in ln.split())
        except ValueError:
            raise ValueError(f"non-integer entry in row {ln!r}") from None
        if len(row) != m + extra:
            raise ValueError(f"expected {m + extra} entries per row, found {len(row)}")
        rows.append(row)
    return tuple(rows)


def _reduce_row(row: list[int], row_sum: int, top: list[int], top_sum: int,
                piv: int, f: int, d: int) -> tuple[list[int], int]:
    """((piv * row - f * top) // d entrywise, its sum), insisting that it is exact.

    row_sum and top_sum are the sums of row and top, carried by the caller.
    Floor remainders all take the sign of d, so they vanish together exactly
    when the numerators sum to d times the quotients' sum: one check per
    row, not per entry.  Dividing by 1 is exact, so d = 1 neither divides
    nor checks.
    """
    total = piv * row_sum - f * top_sum
    if d == 1:
        return [x * piv - f * y for x, y in zip(row, top)], total
    quo = [(x * piv - f * y) // d for x, y in zip(row, top)]
    quo_sum = sum(quo)
    if total != d * quo_sum:
        raise InternalInvariantError(
            "fraction-free elimination produced a nonzero remainder"
        )
    return quo, quo_sum


def _eliminate(rows: Sequence[Sequence[int]]):
    """Fraction-free elimination of m rows of width n >= m.

    Per column, one pass lists the rows not yet used as pivots that are
    nonzero there: the first is the pivot and the rest are updated; a column
    without one is skipped.  Each row's entry sum is carried beside it for
    _reduce_row's check.  Returns the sign of the row swaps, the m pivot
    columns and the reduced rows as lists of ints, whose row t is the
    Bareiss pivot row of step t; or None when the rank is below m.

    A Bareiss step multiplies a row that is zero in the pivot column by
    piv / prev, so over a run of such steps the factors telescope.  Such a
    row is left as it is, and ``div`` remembers the pivot it was last
    current under: its true value is row * prev / div, and when the row
    next meets a nonzero f, the step (true row * piv - true f * top) / prev
    reduces to (row * piv - f * top) / div.
    """
    a = [list(map(index, row)) for row in rows]
    sums = list(map(sum, a))
    m = len(a)
    width = len(a[0]) if a else 0
    div = [1] * m
    sign = 1
    prev = 1
    pivots: list[int] = []
    # Columns left of both the first skipped column (lo) and the current one
    # are pivot columns, zero in every row below the pivot.
    lo = width
    for c in range(width):
        t = len(pivots)
        if t == m:
            break
        hit = [i for i in range(t, m) if a[i][c]]
        if not hit:
            if c + 1 - t > width - m:
                return None  # too few columns left for m pivots
            lo = min(lo, c)
            continue
        p = hit[0]
        if p != t:
            a[t], a[p] = a[p], a[t]
            sums[t], sums[p] = sums[p], sums[t]
            div[t], div[p] = div[p], div[t]
            sign = -sign
        if div[t] != prev:
            a[t], sums[t] = _reduce_row(a[t], sums[t], a[t], 0, prev, 0, div[t])
        piv = a[t][c]
        s = min(lo, c)
        top, top_sum = a[t][s:], sums[t]
        # Rows t+1..p-1 are zero in column c, and row p now holds the old
        # row t, which is too.
        for i in hit[1:]:
            row = a[i]
            row[s:], sums[i] = _reduce_row(row[s:], sums[i], top, top_sum, piv, row[c], div[i])
            div[i] = piv
        pivots.append(c)
        prev = piv
    return sign, pivots, a


def det_exact(m: "IntMatrix | Sequence[Sequence[int]]") -> int:
    """Exact determinant of a square integer matrix.

    Fraction-free single-step elimination with first-nonzero row pivoting.
    Interior divisions are asserted remainder-free; a failure there raises
    InternalInvariantError (it would mean a bug, not bad input).
    """
    rows = m.rows if isinstance(m, IntMatrix) else m
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant requires a square matrix")
    reduced = _eliminate(rows)
    if reduced is None:
        return 0
    sign, _, a = reduced
    return sign * a[-1][-1]


def dot(u: Sequence[int], w: Sequence[int]) -> int:
    """Exact inner product of two equal-length integer vectors."""
    if len(u) != len(w):
        raise ValueError(f"length mismatch: {len(u)} vs {len(w)}")
    return sum(map(mul, map(index, u), map(index, w)))


def cofactor_vector(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """First-row cofactors (C_11, ..., C_1n) of any matrix with these rows below.

    Given n-1 rows of length n, returns the vector C with
    ``det([r1; rows]) == sum_j C[j] * r1[j]`` for every top row r1 (the
    Laplace expansion weights).  When the rows are linearly independent the
    result is orthogonal to every input row; dependent rows yield the zero
    vector, which callers must detect.

    Runs in O(n^3): the n-1 rows are eliminated alone, then back
    substitution solves for their kernel vector scaled by a maximal minor.
    """
    m = len(rows)
    n = m + 1
    if any(len(r) != n for r in rows):
        raise ValueError(f"need {m} rows of length {m + 1}")
    reduced = _eliminate(rows)
    if reduced is None:
        return (0,) * n
    sign, pivots, a = reduced
    # The reduced rows are echelon in the pivot columns; the one non-pivot
    # column j0 is zero in every row whose pivot lies right of it.  Fixing
    # x[j0] to the last pivot, the maximal minor on the pivot columns, makes
    # the kernel vector integral (Cramer), so each pivot divides exactly.
    j0 = next(c for c in range(n) if c not in pivots)
    x = [0] * n
    x[j0] = a[-1][pivots[-1]] if m else 1
    for t in range(m - 1, -1, -1):
        row, p = a[t], pivots[t]
        q, r = divmod(-sum(map(mul, row[p + 1:], x[p + 1:])), row[p])
        if r:
            raise InternalInvariantError("back substitution left a nonzero remainder")
        x[p] = q
    # The last pivot is sign * det(rows[:, pivots]), and C[j0] is
    # (-1)^j0 * det(rows[:, pivots]); C is the kernel vector with that entry.
    s = -sign if j0 % 2 else sign
    return tuple(s * v for v in x)


def is_orthogonal_to_all(v: Sequence[int], rows: Iterable[Sequence[int]]) -> bool:
    """True iff v has exactly zero dot product with every given row."""
    return all(dot(v, row) == 0 for row in rows)


def subset_sums(weights: Iterable[int]) -> int:
    """Bitset of the subset sums of nonnegative weights: bit s is set iff some subset sums to s.

    While each weight is at most 1 + the sum s of those before it, the sums
    fill [0, s], in any order, so that prefix costs one mask.  Each weight
    from the first gap on costs one shift-or, which raises ValueError on a
    negative weight; given in increasing order, the prefix is longest.
    """
    s = 0
    weights = iter(weights)
    for w in weights:
        if not 0 <= w <= s + 1:
            weights = chain((w,), weights)
            break
        s += w
    reach = (1 << (s + 1)) - 1
    for w in weights:
        reach |= reach << w
    return reach
