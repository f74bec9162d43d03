"""Enumeration kernels in vectorized numpy, exact in int64.

Two kernels live here (callers guarantee magnitudes fit):

* ``exhaustive_chunk``: enumerate rows 2..n of a binary matrix as
  doubly-lexical sets of n-1 distinct row codes, expand each set's 2^n
  top rows through the first-row Laplace expansion, and mark every
  reachable determinant in a shared bitmap.  Column j of a row is bit j
  of its code, and the most significant bit is the first column.  A set
  is doubly-lexical when its codes strictly decrease and its columns do
  not increase, each column read as a word over the rows, first row
  most significant.  Every (n-1) x n 0/1 matrix with distinct rows can
  be brought to such a set by permuting rows and columns: sorting the
  rows, then the columns, never lowers the row-major bit string, so
  alternating the two sorts stops at a doubly-lexical matrix (A. Lubiw,
  "Doubly lexical orderings of matrices", SIAM J. Comput. 16, 1987).
  That loses no determinant: a repeated row gives 0, which the zero top
  row reaches anyway; a row permutation flips the sign; a column
  permutation permutes the cofactors and flips their sign, and the top
  row ranges over all of {0,1}^n.  So the bitmap covers the full
  spectrum once the caller closes it under negation.  The sets are
  numbered in depth-first order (2,051 at n = 5, 140,199 at n = 6),
  and a memoized count lets a walk start anywhere in that order.  A
  batch of sets gets its cofactors from shared minors: the minors of
  the bottom r rows on every r-subset of columns are built once each,
  from the (r-1)-minors, so a batch costs sum_r C(n, r) * r vector
  multiply-adds, and one integer matmul expands the cofactors over the
  2^n top rows;

* ``family_bitmap``: given the first-row cofactors of fixed rows 2..n,
  mark every determinant reachable by a 0/1 top row.  It sweeps the
  nonzero cofactors in order of increasing magnitude, and each sweep
  shifts only the window of cells reached so far.  For the
  construction's near-geometric cofactors the windows add up to a small
  multiple of the bitmap, not n times it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

_BATCH = 1 << 13  # row sets per exhaustive_chunk batch


def _cofactors(rows: np.ndarray) -> np.ndarray:
    """Exact first-row cofactors of a (batch, n-1, n) int64 stack of rows 2..n.

    The minors of the bottom r rows are built for every r-subset of
    columns, r = 1 .. n-1, each by one Laplace step along its top row
    from the (r-1)-minors below it, so no minor is computed twice.  The
    cofactor of column j is then (-1)^j times the minor on every column
    but j.
    """
    batch, m, n = rows.shape
    minors = {(): 1}
    for r in range(1, m + 1):
        top = rows[:, m - r].T
        wider = {}
        for cols in combinations(range(n), r):
            acc = top[cols[0]] * minors[cols[1:]]
            for i in range(1, r):
                term = top[cols[i]] * minors[cols[:i] + cols[i + 1:]]
                if i % 2:
                    acc -= term
                else:
                    acc += term
            wider[cols] = acc
        minors = wider
    cof = np.empty((batch, n), dtype=np.int64)
    for j in range(n):
        minor = minors[tuple(c for c in range(n) if c != j)]
        cof[:, j] = minor if j % 2 == 0 else -minor
    return cof


@lru_cache(maxsize=None)
def _moves(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """For each tie mask, the (code, new mask) pairs a next row may take.

    Bit j of a mask says columns j+1 and j are still equal in every row
    placed so far; such a pair allows no row with bit j set and bit j+1
    clear, and stays tied only where the row's two bits agree.  Codes are
    listed in decreasing order.
    """
    codes = range((1 << n) - 1, -1, -1)
    return tuple(
        tuple((c, mask & ~(c ^ (c >> 1))) for c in codes if c & ~(c >> 1) & mask == 0)
        for mask in range(1 << (n - 1))
    )


@lru_cache(maxsize=None)
def _count(n: int, left: int, prev: int, mask: int) -> int:
    """Ways to extend a doubly-lexical prefix by `left` more rows.

    prev is the prefix's last code (2^n before the first row) and mask its
    tie mask.
    """
    if left == 0:
        return 1
    return sum(_count(n, left - 1, c, nxt) for c, nxt in _moves(n)[mask] if c < prev)


def family_count(n: int) -> int:
    """Number of doubly-lexical sets of n-1 distinct binary rows of length n."""
    return _count(n, n - 1, 1 << n, (1 << (n - 1)) - 1)


def _row_sets(n: int, start: int, stop: int) -> list[tuple[int, ...]]:
    """The doubly-lexical row sets numbered [start, stop) in depth-first order.

    Subtrees that lie wholly outside the window are skipped by their counts.
    """
    moves = _moves(n)
    out: list[tuple[int, ...]] = []

    def visit(prefix, left, prev, mask, base):
        # base is the depth-first number of the first set below prefix.
        if left == 0:
            out.append(prefix)
            return
        for c, nxt in moves[mask]:
            if c >= prev:
                continue
            if base >= stop:
                return
            size = _count(n, left - 1, c, nxt)
            if base + size > start:
                visit(prefix + (c,), left - 1, c, nxt, base)
            base += size

    visit((), n - 1, 1 << n, (1 << (n - 1)) - 1, 0)
    return out


def exhaustive_chunk(n, start, stop, seen):
    """Mark the determinants of the doubly-lexical row sets numbered [start, stop).

    seen[d + (len(seen) - 1) // 2] is set for every determinant d; one
    set stands for all row and column orders of its rows, which reach the
    same values up to sign, so the caller closes the merged bitmap under
    negation.
    """
    offset = (seen.shape[0] - 1) // 2
    bits = np.arange(n, dtype=np.int64)
    tops = (np.arange(1 << n, dtype=np.int64)[:, None] >> bits) & 1
    for s in range(start, stop, _BATCH):
        e = min(stop, s + _BATCH)
        codes = np.array(_row_sets(n, s, e), dtype=np.int64)
        dets = _cofactors((codes[:, :, None] >> bits) & 1) @ tops.T
        seen[dets.ravel() + offset] = 1


def family_bitmap(cof, lo, seen):
    """Subset-sum reachability by shift-or sweeps: seen[s - lo] for every subset sum s.

    The weights are swept in order of increasing magnitude, and each sweep
    touches only the window [a, b] of cells reached so far, which starts at
    the cell for 0.
    """
    a = b = -lo
    seen[a] = 1
    for c in sorted((int(c) for c in cof if c), key=abs):
        # The copy keeps one sweep from cascading a weight into itself.
        seen[a + c:b + c + 1] |= seen[a:b + 1].copy()
        if c > 0:
            b += c
        else:
            a += c
