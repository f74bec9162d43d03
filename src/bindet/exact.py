"""Exact linear algebra over arbitrary-precision integers.

Determinants and cofactors share one fraction-free (Bareiss) single-step
elimination routine, ``_eliminate``: every intermediate value is a minor of
the input matrix, so all interior divisions are exact and no rational
arithmetic is needed.  ``det_exact`` eliminates the square matrix itself;
``cofactor_vector`` stacks the n unit rows below its n-1 rows and carries
them through the same pivot chain.  Entries are Python ints end to end;
results are exact at any magnitude.

Elimination runs on object-dtype numpy arrays so the elementwise big-int
work happens in C-level loops rather than Python-level ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import InternalInvariantError


@dataclass(frozen=True)
class IntMatrix:
    """Immutable square matrix of arbitrary-precision integers."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        norm = tuple(tuple(map(int, row)) for row in self.rows)
        n = len(norm)
        if n < 1:
            raise ValueError("matrix must have at least one row")
        for row in norm:
            if len(row) != n:
                raise ValueError(
                    f"matrix is not square: {n} rows but a row of length {len(row)}"
                )
        object.__setattr__(self, "rows", norm)

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "IntMatrix":
        return cls(tuple(rows))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def is_binary(self) -> bool:
        return all(x in (0, 1) for row in self.rows for x in row)

    def is_ternary(self) -> bool:
        return all(x in (-1, 0, 1) for row in self.rows for x in row)

    def with_rows_swapped(self, i: int, j: int) -> "IntMatrix":
        rows = list(self.rows)
        rows[i], rows[j] = rows[j], rows[i]
        return IntMatrix(tuple(rows))

    def to_text(self) -> str:
        """Serialize to the shared matrix text format.

        Line 1 is n; lines 2..n+1 hold n space-separated decimal entries each.
        """
        lines = [str(self.n)]
        lines.extend(" ".join(str(x) for x in row) for row in self.rows)
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


def _exact_div(arr: np.ndarray, d) -> np.ndarray:
    """Divide elementwise, insisting the division is remainder-free."""
    if d == 1:
        return arr
    if d == -1:
        return -arr
    q = arr // d
    if not (q * d == arr).all():
        raise InternalInvariantError(
            "fraction-free elimination produced a nonzero remainder"
        )
    return q


def _eliminate(rows: Sequence[Sequence[int]], m: int):
    """Fraction-free elimination that pivots only on rows[:m].

    Per column, the first nonzero among the unused rows of rows[:m] is the
    pivot (a column without one is skipped), and every row below it, rows[m:]
    included, is eliminated through the same pivot chain.  Returns the sign
    of the row swaps, the pivot columns and the reduced object array, or None
    when rows[:m] have rank below m.
    """
    a = np.array([[int(x) for x in row] for row in rows], dtype=object)
    width = a.shape[1]
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
        nz = np.flatnonzero(a[t:m, c] != 0)
        if nz.size == 0:
            if c + 1 - t > width - m:
                return None  # too few columns left for m pivots
            lo = min(lo, c)
            continue
        p = t + int(nz[0])
        if p != t:
            a[[t, p]] = a[[p, t]]
            sign = -sign
        piv = a[t, c]
        s = min(lo, c)
        sub = a[t + 1:, s:] * piv - np.outer(a[t + 1:, c], a[t, s:])
        a[t + 1:, s:] = _exact_div(sub, prev)
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
    reduced = _eliminate(rows, n)
    if reduced is None:
        return 0
    sign, _, a = reduced
    return int(sign * a[-1, -1])


def dot(u: Sequence[int], w: Sequence[int]) -> int:
    """Exact inner product of two equal-length integer vectors."""
    if len(u) != len(w):
        raise ValueError(f"length mismatch: {len(u)} vs {len(w)}")
    return sum(int(a) * int(b) for a, b in zip(u, w))


def cofactor_vector(rows: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """First-row cofactors (C_11, ..., C_1n) of any matrix with these rows below.

    Given n-1 rows of length n, returns the vector C with
    ``det([r1; rows]) == sum_j C[j] * r1[j]`` for every top row r1 (the
    Laplace expansion weights).  When the rows are linearly independent the
    result is orthogonal to every input row; dependent rows yield the zero
    vector, which callers must detect.

    Runs in O(n^3): the n unit rows are stacked below the given rows and
    carried through their pivot chain in one elimination pass.
    """
    m = len(rows)
    n = m + 1
    if any(len(r) != n for r in rows):
        raise ValueError(f"need {m} rows of length {m + 1}")
    reduced = _eliminate([*rows, *IntMatrix.identity(n).rows], m)
    if reduced is None:
        return (0,) * n
    sign, pivots, a = reduced
    # Unit row j ends up carrying det([rows; e_j]) in the single non-pivot
    # column j0.  det([e_j; rows]) = (-1)^(n-1) det([rows; e_j]); moving the
    # pivot columns in front costs a further (-1)^(n-1-j0), so the net
    # factor is (-1)^j0.
    j0 = next(c for c in range(n) if c not in set(pivots))
    s = sign * (-1 if j0 % 2 else 1)
    return tuple(int(s * a[m + j, j0]) for j in range(n))


def is_orthogonal_to_all(v: Sequence[int], rows: Iterable[Sequence[int]]) -> bool:
    """True iff v has exactly zero dot product with every given row."""
    return all(dot(v, row) == 0 for row in rows)
