"""Exact linear algebra over arbitrary-precision integers.

Determinants and cofactors share one elimination routine, ``_eliminate``.
``det_exact`` eliminates the square matrix itself.  ``cofactor_vector``
eliminates its n-1 rows alone and recovers the cofactors by Cramer back
substitution: their kernel vector, scaled so that its free entry is the
maximal minor on the pivot columns, is integral.  Columns are swept from
the last to the first; undoing that reversal of n columns is the sign
(-1)^(n(n-1)/2).

The elimination runs in two phases.  The unit phase (``_unit_phase``)
keeps each row in a bucket keyed by its leading column.  Along the current
column's bucket, while the leads are +-1, it subtracts (or adds) each
row's successor from it and pivots on the last; a row led by another
value subtracts that multiple of the pivot.  These are unimodular steps
with no scan and no division.  At the first column whose bucket has no
+-1 lead, the rows left are zero in every earlier column, and a
fraction-free (Bareiss) single-step elimination takes them from there with
prev = 1: every intermediate value is a minor of that block, so all its
interior divisions are exact and no rational arithmetic is needed.  The
construction's rows are B_i = S_i + B_{i+k}, with S lower-triangular and a
+-1 diagonal, so row i minus row i+k is the seed row S_i, whose last
nonzero entry is its diagonal: swept from the last column they finish in
the unit phase with entries in {-1, 0, 1}, and from the first they fill in
and divide by growing pivots.

Rows whose entries are all 0 or 1 start the unit phase as pairs of
Python-int bitsets (``_bit_phase``), the +1 and the -1 entries of each
row, on which a chain step is a few int ops and back substitution visits
the nonzero entries alone.  The construction's rows stay in {-1, 0, 1} to
the end; other rows go on as lists from the first step that would make an
entry +-2, with the state built so far.  Elsewhere rows are lists of
Python ints, with no numpy, so results are exact at any magnitude and
importing this module stays cheap.  In the Bareiss phase, a row that is
zero in the pivot column is not rescaled but left to catch up at its next
real update, which on sparse 0/1 matrices skips most of the work.
Exactness is checked once per row: floor remainders all take the
divisor's sign, so a row divides exactly iff the sum of its numerators
equals the divisor times the sum of its quotients, and each row's sum is
carried beside it.  A division by 1 is exact, so it is skipped with its
check, and +-1 steps (see _reduce_row) add or subtract whole rows at C
speed.

Entries are taken through ``__index__``, by ``bytes()`` for the bitsets
(never on a row's own buffer, such as a numpy array's) and by
``operator.index`` for the lists: ints, bools and numpy integers pass,
while a float or a string raises TypeError instead of being truncated or
parsed.  ``IntMatrix`` is a ``_record.Record``.  Its ``to_text`` formats
every row directly, except for a matrix built by the private
``IntMatrix._of_checked_rows``, which carries its text (a slot, not a
field) and checks nothing: construction checks and renders the fixed lower
rows of each (n, k) once and builds only the 0/1 top row per target.
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
from itertools import chain, compress, count
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


def _cycle_sign(order: list[int]) -> int:
    """The sign of the permutation order of range(len(order)): -1 per cycle of even length."""
    sign = 1
    seen = bytearray(len(order))
    for i in range(len(order)):
        if not seen[i]:
            j = order[i]
            while j != i:
                seen[j] = 1
                sign = -sign
                j = order[j]
    return sign


def _unit_phase(a: list[list[int]], width: int, resume=None):
    """Pivot a's rows on +-1 leads by unimodular row steps alone, from column 0 on.

    Each row sits in the bucket of its lead, its first nonzero column.  In
    column c's bucket, each row of the prefix led by +-1 but its last
    becomes itself minus (or plus) its successor there, which zeroes column
    c and moves it to the bucket of its new lead; the prefix's last row is
    the pivot.  Each row after the prefix, led by some other f, subtracts
    f times the pivot (times its lead, +-1); with no prefix, the first
    +-1-led row of the bucket is the pivot.  This needs no scan, no
    division and no sum.  It stops at the first bucket with no +-1 lead,
    where the rows not yet pivoted are zero in every column before it: the
    rest of the elimination then starts afresh on them, whose determinant
    is unchanged by the steps.

    resume, from _bit_phase, is (buckets, order, pivots, sign, c, pos): the
    phase's state when it stopped at the chain step from bucket c's row pos,
    with a's rows as that state left them; the phase goes on from there.

    Changed rows are written back into a.  Returns (sign, pivots, rows):
    the unit pivots' columns, the pivot rows in that order followed by the
    others in their order in a, and sign, the product of the unit pivots and
    the sign of that reordering; or None when the rank is below len(a).
    """
    m = len(a)
    if resume is None:
        buckets: list[list[int]] = [[] for _ in range(width + 1)]  # bucket width: zero rows
        for i, row in enumerate(a):
            buckets[0 if row[0] else next(compress(count(), row), width)].append(i)
        if buckets[width]:
            return None
        order: list[int] = []
        pivots: list[int] = []
        sign, start, pos = 1, 0, 0
    else:
        buckets, order, pivots, sign, start, pos = resume
    for c in range(start, width):  # past the m-th pivot, every bucket is empty
        b = buckets[c]
        if not b:
            if c + 1 - len(order) > width - m:
                return None  # too few columns left for m pivots
            continue
        i = b[pos]
        x = a[i][c]
        rest = x != 1 and x != -1  # rows left led at c, once the chain stops
        if rest:
            i = next((j for j in b if a[j][c] == 1 or a[j][c] == -1), -1)
            if i < 0:
                break
            x = a[i][c]
        else:
            for j in b[pos + 1:]:
                y = a[j][c]
                if y != 1 and y != -1:
                    rest = True
                    break
                row = a[i] = list(map(sub if x == y else add, a[i], a[j]))
                # Zero up to column c; a dense row most often leads at c + 1.
                lead = c + 1 if c + 1 < width and row[c + 1] else next(compress(count(), row), width)
                if lead == width:
                    return None
                buckets[lead].append(i)
                i, x = j, y
        pos = 0
        if rest:
            top = a[i]
            for j in b:
                f = a[j][c] * x  # 0 for the chained rows
                if not f or j == i:
                    continue
                row = a[j] = (list(map(sub, a[j], top)) if f == 1 else
                              list(map(add, a[j], top)) if f == -1 else
                              [u - f * v for u, v in zip(a[j], top)])
                lead = c + 1 if c + 1 < width and row[c + 1] else next(compress(count(), row), width)
                if lead == width:
                    return None
                buckets[lead].append(j)
        order.append(i)
        pivots.append(c)
        if x < 0:
            sign = -sign
    if len(order) < m:
        pivoted = set(order)
        order += [i for i in range(m) if i not in pivoted]
    return sign * _cycle_sign(order), pivots, [a[i] for i in order]


def _bit_phase(raw: list[bytes], plus: list[int], width: int):
    """_unit_phase on 0/1 rows held as pairs of bitsets, while the entries stay in {-1, 0, 1}.

    raw holds the rows' bytes, and plus their ints in swept coordinates:
    bit c is column c.  Row i is the pair (plus[i], minus[i]) of the
    bitsets of its +1 and -1 entries, so its lead is the lowest set bit of
    plus[i] | minus[i], and it is +-1.  Every bucket is then one chain, and
    a chain step is a few int ops: row i minus row j is plus (Pi | Nj) &
    ~(Ni | Pj) and minus (Ni | Pj) & ~(Pi | Nj), and it would leave
    {-1, 0, 1} exactly where Pi & Nj | Ni & Pj is set; row i plus row j
    swaps Pj and Nj.  Buckets, chain order, pivots and signs are
    _unit_phase's own.  At the first step that would leave {-1, 0, 1}, the
    rows are rebuilt as lists from raw, the steps taken so far are
    replayed on them (each bucket's chain in turn, up to that step), and
    _unit_phase resumes at that step with the state built so far.

    Returns _unit_phase's (sign, pivots, rows), with rows the (plus, minus)
    pairs in pivot order when every row pivoted here; or None when the rank
    is below len(raw).  plus is updated in place.
    """
    m = len(plus)
    minus = [0] * m
    buckets: list[list[int]] = [[] for _ in range(width + 1)]
    for i, p in enumerate(plus):
        buckets[(p & -p).bit_length() - 1].append(i)  # a zero row lands in buckets[-1]
    if buckets[width]:
        return None
    order: list[int] = []
    pivots: list[int] = []
    sign = 1
    for c in range(width):  # every row pivots, so past the m-th pivot every bucket is empty
        b = buckets[c]
        if not b:
            if c + 1 - len(order) > width - m:
                return None  # too few columns left for m pivots
            continue
        bit = 1 << c
        i = b[0]
        pi, ni = plus[i], minus[i]
        for j in b[1:]:
            pj = plus[j]
            nj = minus[j]
            if (pi ^ pj) & bit:  # leads of opposite signs: row i plus row j
                if pi & pj | ni & nj:
                    break
                u = pi | pj
                w = ni | nj
            else:
                if pi & nj | ni & pj:
                    break
                u = pi | nj
                w = ni | pj
            both = u & w  # cancelled entries, column c among them
            plus[i] = u ^ both
            minus[i] = w ^ both
            u ^= w
            if not u:
                return None
            buckets[(u & -u).bit_length() - 1].append(i)
            i = j
            pi = pj
            ni = nj
        else:
            order.append(i)
            pivots.append(c)
            if ni & bit:
                sign = -sign
            continue
        # The step from row i would make an entry +-2: replay the steps
        # taken on lists, each bucket's chain in turn, and go on with them.
        # The replay writes in place: a new list per step is over-allocated,
        # so it cannot take the place of the exact-size row it frees (that
        # cost about 20 MiB more peak RSS for a determinant at n = 2048).
        pos = b.index(i)
        a = [[*r[::-1]] for r in raw]
        for d in (*pivots, c):
            chain = buckets[d] if d < c else b[:pos + 1]
            i = chain[0]
            for j in chain[1:]:
                row, top = a[i], a[j]
                row[:] = map(sub if row[d] == top[d] else add, row, top)
                i = j
        return _unit_phase(a, width, (buckets, order, pivots, sign, c, pos))
    return sign * _cycle_sign(order), pivots, [(plus[i], minus[i]) for i in order]


# bytes.translate table: 0 and 1 become binary digits, and every other
# byte the digit 2, which int(., 2) rejects.
_BINARY_DIGITS = b"01" + b"2" * 254


def _eliminate(rows: Sequence[Sequence[int]]):
    """Fraction-free elimination of m rows of width n >= m, last column first.

    Rows are read reversed: swept column c is column n-1-c, and the result
    is in swept coordinates.  Rows whose entries are all 0 or 1 start in
    _bit_phase, others in _unit_phase; either pivots the leading columns
    that have a +-1 lead, and from the first column where it stops, the
    Bareiss loop takes the rows it left with prev = 1.  Per column, one
    pass lists the rows not yet used as pivots that are nonzero there: the
    first is the pivot and the rest are updated from column c on; a column
    without one is skipped.  Each row's entry sum is carried beside it for
    _reduce_row's check.  Returns (minor, pivots, rows): the determinant of
    the rows' m pivot columns, those columns, and the reduced rows, whose
    row t is the pivot row of step t; or None when the rank is below m.
    The reduced rows are lists of ints, or (plus, minus) bitset pairs when
    every row pivoted in _bit_phase.

    A Bareiss step multiplies a row that is zero in the pivot column by
    piv / prev, so over a run of such steps the factors telescope.  Such a
    row is left as it is, and ``div`` remembers the pivot it was last
    current under: its true value is row * prev / div, and when the row
    next meets a nonzero f, the step (true row * piv - true f * top) / prev
    reduces to (row * piv - f * top) / div.
    """
    width = len(rows[0]) if len(rows) else 0
    try:
        # bytes() takes each entry through __index__, but reads the raw
        # buffer of an object that has one, such as a numpy array.
        raw = [bytes(row) if type(row) is tuple else bytes(iter(row)) for row in rows]
        plus = [int(r.translate(_BINARY_DIGITS), 2) for r in raw]
    except ValueError:  # an entry outside 0..255, or a 2 digit
        plus = None
    if plus is None:
        unit = _unit_phase([list(map(index, reversed(row))) for row in rows], width)
    else:
        unit = _bit_phase(raw, plus, width)
    if unit is None:
        return None
    sign, pivots, a = unit
    m = len(a)
    if len(pivots) == m:
        return sign, pivots, a
    sums = list(map(sum, a))
    div = [1] * m
    prev = 1
    # Every row not yet pivoted is zero before column c: an earlier pivot
    # column is eliminated below its pivot, and a skipped column is zero in
    # every such row, whose later updates combine only such rows.  So the
    # updates slice at c, and the carried sums are the slices' sums.
    for c in range(pivots[-1] + 1 if pivots else 0, width):
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
    # On the pivot columns the rows are block triangular: sign holds the
    # unit block's determinant, and the last Bareiss pivot is the other's.
    return sign * prev, pivots, a


def det_exact(m: "IntMatrix | Sequence[Sequence[int]]") -> int:
    """Exact determinant of a square integer matrix.

    Unit pivots first, then fraction-free single-step elimination with
    first-nonzero row pivoting (see _eliminate).  Interior divisions are
    asserted remainder-free; a failure there raises InternalInvariantError
    (it would mean a bug, not bad input).
    """
    rows = m.rows if isinstance(m, IntMatrix) else m
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant requires a square matrix")
    reduced = _eliminate(rows)
    if reduced is None:
        return 0
    # Undo the reversal of the n swept columns.
    return -reduced[0] if n % 4 > 1 else reduced[0]


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
    substitution through their +-1 unit rows and Bareiss rows alike solves
    for their kernel vector, scaled by the maximal minor on the pivot
    columns: up to the sign of the row order, the unit pivots' product
    times the last Bareiss pivot.  When every row pivoted in the bit phase,
    as the construction's rows do, the reduced rows are bitset pairs, and
    back substitution adds up x over their nonzero entries alone.
    """
    m = len(rows)
    n = m + 1
    if any(len(r) != n for r in rows):
        raise ValueError(f"need {m} rows of length {m + 1}")
    reduced = _eliminate(rows)
    if reduced is None:
        return (0,) * n
    minor, pivots, a = reduced
    # In swept coordinates the reduced rows are echelon in the pivot columns,
    # and the one non-pivot column j0 is zero in every row pivoted after it.
    # Fixing x[j0] to the maximal minor on the pivot columns makes the kernel
    # vector integral (Cramer): each pivot, +-1 or Bareiss, divides exactly.
    j0 = n * m // 2 - sum(pivots)  # the one column of n missing from the m pivots
    if a and type(a[0]) is tuple:
        # (plus, minus) pairs from _bit_phase, each led by a +-1 pivot: the
        # sum over x runs over the set bits alone, top bit first, the
        # pivot's included while its x is still 0.  x[j + 1] holds column j,
        # so that a bit_length indexes it, and bit[j + 1] is its bit.
        bit = [0] + [1 << j for j in range(n)]
        x = [0] * (n + 1)
        x[j0 + 1] = minor
        for t in range(m - 1, -1, -1):
            plus, minus = a[t]
            p = pivots[t]
            negative = not plus >> p & 1
            q = 0
            while minus:
                j = minus.bit_length()
                q += x[j]
                minus ^= bit[j]
            while plus:
                j = plus.bit_length()
                q -= x[j]
                plus ^= bit[j]
            x[p + 1] = -q if negative else q
        del x[0]
    else:
        x = [0] * n
        x[j0] = minor
        for t in range(m - 1, -1, -1):
            # Row t is zero before its pivot column p, and x[p] is still 0.
            row, p = a[t], pivots[t]
            q, d = -sum(map(mul, row, x)), row[p]
            if d != 1:
                q, r = divmod(q, d)
                if r:
                    raise InternalInvariantError("back substitution left a nonzero remainder")
            x[p] = q
    # The swept cofactor C'[j0] is (-1)^j0 times that minor, so C' is the
    # kernel vector with that entry; C is C' reversed, times the reversal's sign.
    s = -1 if (j0 % 2) ^ (n % 4 > 1) else 1
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
