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
  and a memoized count lets a walk start anywhere in that order;

* ``family_bitmap``: given the first-row cofactors of fixed rows 2..n,
  mark every determinant reachable by a 0/1 top row.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

_BATCH = 1 << 13  # row sets per exhaustive_chunk batch


def _det_stack(mats: np.ndarray) -> np.ndarray:
    """Exact int64 determinants of a (..., m, m) stack by cofactor expansion."""
    m = mats.shape[-1]
    if m == 1:
        return mats[..., 0, 0].astype(np.int64, copy=True)
    if m == 2:
        return mats[..., 0, 0] * mats[..., 1, 1] - mats[..., 0, 1] * mats[..., 1, 0]
    total = np.zeros(mats.shape[:-2], dtype=np.int64)
    below = mats[..., 1:, :]
    for j in range(m):
        cols = [c for c in range(m) if c != j]
        term = mats[..., 0, j] * _det_stack(below[..., cols])
        if j % 2 == 0:
            total += term
        else:
            total -= term
    return total


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
    minor_cols = [[c for c in range(n) if c != j] for j in range(n)]
    for s in range(start, stop, _BATCH):
        e = min(stop, s + _BATCH)
        codes = np.array(_row_sets(n, s, e), dtype=np.int64)
        rows = (codes[:, :, None] >> bits) & 1
        cof = np.empty((e - s, n), dtype=np.int64)
        for j, cols in enumerate(minor_cols):
            d = _det_stack(rows[:, :, cols])
            cof[:, j] = d if j % 2 == 0 else -d
        dets = cof @ tops.T
        seen[dets.ravel() + offset] = 1


def family_bitmap(cof, lo, seen):
    """Subset-sum reachability by shift-or sweeps: seen[s - lo] for every subset sum s."""
    seen[0 - lo] = 1
    for c in cof:
        c = int(c)
        # The copy keeps one sweep from cascading a weight into itself.
        if c > 0:
            seen[c:] |= seen[:-c].copy()
        elif c < 0:
            seen[:c] |= seen[-c:].copy()
