"""Exact linear algebra over arbitrary-precision integers.

Determinants and cofactors share one fraction-free (Bareiss) single-step
elimination routine, ``_eliminate``: every intermediate value is a minor of
the input matrix, so all interior divisions are exact and no rational
arithmetic is needed.  ``det_exact`` eliminates the square matrix itself.
``cofactor_vector`` eliminates its n-1 rows alone and recovers the cofactors
by Cramer back substitution: their kernel vector, scaled so that its free
entry is the maximal minor on the pivot columns, is integral.  Columns
are swept from the last to the first; undoing that reversal of n columns
is the sign (-1)^(n(n-1)/2).  The construction's rows are B_i = S_i +
B_{i+k}, with S lower-triangular and a +-1 diagonal, so row i minus row
i+k is the seed row S_i, whose last nonzero entry is its diagonal: swept
from the last column they eliminate with +-1 pivots and entries in
{-1, 0, 1}, and from the first they fill in and divide by growing pivots.

Rows are lists of Python ints end to end, with no numpy, so results are
exact at any magnitude and importing this module stays cheap.  A row that
is zero in the pivot column is not rescaled but left to catch up at its
next real update, which on sparse 0/1 matrices skips most of the work.
Exactness is checked once per row: floor remainders all take the divisor's
sign, so a row divides exactly iff the sum of its numerators equals the
divisor times the sum of its quotients, and each row's sum is carried
beside it.  A division by 1 is exact, so it is skipped with its check,
and +-1 steps (see _reduce_row) add or subtract whole rows at C speed.

Entries are taken through ``operator.index``: ints, bools and numpy
integers pass, while a float or a string raises TypeError instead of being
truncated or parsed.  ``IntMatrix`` is a ``_record.Record``.  Its
``to_text`` formats every row directly, except for a matrix built by the
private ``IntMatrix._of_checked_rows``, which carries its text (a slot, not
a field) and checks nothing: construction checks and renders the fixed
lower rows of each (n, k) once and builds only the 0/1 top row per target.
``subset_sums`` gives both spectrum oracles' subset sums as (s, rest): a
complete prefix of weights, as the k-step Fibonacci ones are, fills
[0, s], and rest is the Python-int bitset of the sums of the weights
after it, one shift-or each; ``widen`` joins the two in O(log s) steps.

One rule reads matrix, rows and certificate text: a line is read only as
the writer writes its values, so it ends in "\\n" (the last line too) and
holds ASCII decimal entries as ``str(int)`` writes them, single-spaced.
"""

from __future__ import annotations

import re
from itertools import chain
from operator import add, index, mul, neg, sub
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
    def _of_checked_rows(cls, rows: tuple[tuple[int, ...], ...], text: str | None) -> "IntMatrix":
        """A matrix on rows the caller has already certified as n tuples of n ints.

        Checks nothing.  text must be None or exactly what to_text would
        format from the rows, which to_text then returns as it is.
        """
        m = object.__new__(cls)
        _set(m, "rows", rows)
        _set(m, "_text", text)
        return m

    @property
    def n(self) -> int:
        return len(self.rows)

    def is_binary(self) -> bool:
        return _first_non_binary(self.rows) is None

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
        """Read the matrix text format, keeping text as to_text's; else ValueError."""
        return cls._of_checked_rows(parse_rows(text), text)


def _first_non_binary(rows: Sequence[Sequence[int]]) -> tuple[int, int, int] | None:
    """(i, j, x) for the first entry x outside {0, 1} in row-major order, or None."""
    if set().union(*rows) <= {0, 1}:  # one C-level pass; the scan runs only on a failure
        return None
    return next((i, j, x) for i, row in enumerate(rows)
                for j, x in enumerate(row) if x not in (0, 1))


_INTS = re.compile(r"(?:0|-?[1-9][0-9]*)(?: (?:0|-?[1-9][0-9]*))*")


def _read_ints(line: str) -> tuple[int, ...] | None:
    """The ints that " ".join(map(str, ints)) writes as line, or None if there are none."""
    try:
        return tuple(map(int, line.split(" "))) if _INTS.fullmatch(line) else None
    except ValueError:  # past int()'s digit limit
        return None


def parse_rows(text: str, extra: int = 0) -> tuple[tuple[int, ...], ...]:
    """Rows of the shared text format: a count m, then m lines of m + extra integers.

    Matrix files use extra = 0 and rows files, the n-1 rows below a free top
    row, extra = 1.  Text not written so by the module's one rule raises
    ValueError.
    """
    if text[-1:] != "\n":
        raise ValueError("text does not end with a newline" if text else "text is empty")
    lines = text.split("\n")[:-1]
    count = _read_ints(lines[0])
    if count is None or len(count) != 1:
        raise ValueError(f"text must start with the row count, got {lines[0]!r}")
    m = count[0]
    if m < 1:
        raise ValueError(f"row count must be positive, got {m}")
    if len(lines) != m + 1:
        raise ValueError(f"expected {m} rows, found {len(lines) - 1}")
    rows = []
    for line in lines[1:]:
        row = _read_ints(line)
        if row is None:
            raise ValueError(f"non-integer entry in row {line!r}")
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
    row, not per entry.  d = 1 is exact, so it neither divides nor checks,
    and with a +-1 pivot and f = +-1 the step is one ``map`` at C speed.
    """
    total = piv * row_sum - f * top_sum
    if d == 1:
        if piv == 1 and (f == 1 or f == -1):
            return list(map(sub if f == 1 else add, row, top)), total
        if piv == -1 and f == -1:
            return list(map(sub, top, row)), total
        return [x * piv - f * y for x, y in zip(row, top)], total
    quo = [(x * piv - f * y) // d for x, y in zip(row, top)]
    quo_sum = sum(quo)
    if total != d * quo_sum:
        raise InternalInvariantError(
            "fraction-free elimination produced a nonzero remainder"
        )
    return quo, quo_sum


def _eliminate(rows: Sequence[Sequence[int]]):
    """Fraction-free elimination of m rows of width n >= m, last column first.

    Rows are read reversed: swept column c is column n-1-c, and the result
    is in swept coordinates.  Per column, one pass lists the rows not yet
    used as pivots that are nonzero there: the first is the pivot and the
    rest are updated from column c on; a column without one is skipped.
    Each row's entry sum is carried beside it for _reduce_row's check.
    Returns the sign of the row swaps, the m pivot columns and the reduced
    rows as lists of ints, whose row t is the Bareiss pivot row of step t;
    or None when the rank is below m.

    A Bareiss step multiplies a row that is zero in the pivot column by
    piv / prev, so over a run of such steps the factors telescope.  Such a
    row is left as it is, and ``div`` remembers the pivot it was last
    current under: its true value is row * prev / div, and when the row
    next meets a nonzero f, the step (true row * piv - true f * top) / prev
    reduces to (row * piv - f * top) / div.
    """
    a = [list(map(index, reversed(row))) for row in rows]
    sums = list(map(sum, a))
    m = len(a)
    width = len(a[0]) if a else 0
    div = [1] * m
    sign = 1
    prev = 1
    pivots: list[int] = []
    # Every row not yet pivoted is zero before column c: an earlier pivot
    # column is eliminated below its pivot, and a skipped column is zero in
    # every such row, whose later updates combine only such rows.  So the
    # updates slice at c, and the carried sums are the slices' sums.
    for c in range(width):
        t = len(pivots)
        if t == m:
            break
        hit = [i for i in range(t, m) if a[i][c]]
        if not hit:
            if c + 1 - t > width - m:
                return None  # too few columns left for m pivots
            continue
        p = hit[0]
        if p != t:
            a[t], a[p] = a[p], a[t]
            sums[t], sums[p] = sums[p], sums[t]
            div[t], div[p] = div[p], div[t]
            sign = -sign
        if div[t] == -prev:  # the true row is -row
            a[t], sums[t] = list(map(neg, a[t])), -sums[t]
        elif div[t] != prev:
            a[t], sums[t] = _reduce_row(a[t], sums[t], a[t], 0, prev, 0, div[t])
        piv = a[t][c]
        top, top_sum = a[t][c:] if len(hit) > 1 else None, sums[t]
        # Rows t+1..p-1 are zero in column c, and row p now holds the old
        # row t, which is too.
        for i in hit[1:]:
            row = a[i]
            row[c:], sums[i] = _reduce_row(row[c:], sums[i], top, top_sum, piv, row[c], div[i])
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
    # Undo the reversal of the n swept columns.
    return (-sign if n % 4 > 1 else sign) * a[-1][-1]


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
    # In swept coordinates the reduced rows are echelon in the pivot columns,
    # and the one non-pivot column j0 is zero in every row pivoted after it.
    # Fixing x[j0] to the last pivot, the maximal minor on the pivot columns,
    # makes the kernel vector integral (Cramer): each pivot divides exactly.
    j0 = n * m // 2 - sum(pivots)  # the one column of n missing from the m pivots
    x = [0] * n
    x[j0] = a[-1][pivots[-1]] if m else 1
    for t in range(m - 1, -1, -1):
        row, p = a[t], pivots[t]
        q, r = divmod(-sum(map(mul, row[p + 1:], x[p + 1:])), row[p])
        if r:
            raise InternalInvariantError("back substitution left a nonzero remainder")
        x[p] = q
    # The last pivot is sign * det(swept rows[:, pivots]), and the swept
    # cofactor C'[j0] is (-1)^j0 times that minor, so C' is the kernel
    # vector with that entry; C is C' reversed, times the reversal's sign.
    s = -sign if (j0 % 2) ^ (n % 4 > 1) else sign
    return tuple(reversed(x) if s == 1 else map(neg, reversed(x)))


def is_orthogonal_to_all(v: Sequence[int], rows: Iterable[Sequence[int]]) -> bool:
    """True iff v has exactly zero dot product with every given row."""
    return all(dot(v, row) == 0 for row in rows)


def subset_sums(weights: Iterable[int]) -> tuple[int, int]:
    """(s, rest): the subset sums of nonnegative weights are rest widened by [0, s].

    While each weight is at most 1 + the sum s of those before it, the sums
    fill [0, s], in any order.  rest is the bitset of the sums of the rest
    of the weights (1 if none), one shift-or each, which raises ValueError
    on a negative weight; given in increasing order, the prefix is longest.
    """
    s = 0
    weights = iter(weights)
    for w in weights:
        if not 0 <= w <= s + 1:
            weights = chain((w,), weights)
            break
        s += w
    rest = 1
    for w in weights:
        rest |= rest << w
    return s, rest


def widen(s: int, bits: int) -> int:
    """bits | bits << 1 | ... | bits << s, in O(log s) shift-ors: (s, rest) as one bitset."""
    done = 0  # bits is widened by [0, done]
    while done < s:
        bits |= bits << min(done + 1, s - done)
        done = min(2 * done + 1, s)
    return bits
