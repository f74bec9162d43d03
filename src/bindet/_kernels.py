"""Enumeration kernels in vectorized numpy, exact in int64.

Two kernels live here (callers guarantee magnitudes fit):

* ``exhaustive_chunk``: enumerate rows 2..n of a binary matrix as sorted
  sets of n-1 distinct row codes, C(2^n, n-1) families ranked in colex
  order, expand each family's 2^n top rows through the first-row Laplace
  expansion, and mark every reachable determinant in a shared bitmap.
  Families with a repeated row are skipped (their determinant is 0) and
  reordering the rows only flips the sign, so the bitmap covers the full
  spectrum once the caller closes it under negation;

* ``family_bitmap``: given the first-row cofactors of fixed rows 2..n,
  mark every determinant reachable by a 0/1 top row.
"""

from __future__ import annotations

from math import comb

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


def family_count(n: int) -> int:
    """Number of sets of n-1 distinct binary rows of length n."""
    return comb(1 << n, n - 1)


def _unrank(n: int, ranks: np.ndarray) -> np.ndarray:
    """Row codes c_0 < ... < c_{n-2} with rank sum_i C(c_i, i+1), one set per rank."""
    codes = np.arange(1 << n, dtype=np.int64)
    out = np.empty((ranks.size, n - 1), dtype=np.int64)
    rest = ranks.copy()
    for i in range(n - 2, -1, -1):
        # C(c, i+1) is nondecreasing in c, so the largest c with
        # C(c, i+1) <= rest is found by a sorted search.
        table = np.array([comb(int(c), i + 1) for c in codes], dtype=np.int64)
        c = np.searchsorted(table, rest, side="right") - 1
        out[:, i] = c
        rest -= table[c]
    return out


def exhaustive_chunk(n, start, stop, seen):
    """Mark the determinants of the row sets ranked [start, stop).

    seen[d + (len(seen) - 1) // 2] is set for every determinant d; only
    one sign of each row order is visited, so the caller closes the
    merged bitmap under negation.
    """
    offset = (seen.shape[0] - 1) // 2
    bits = np.arange(n, dtype=np.int64)
    tops = (np.arange(1 << n, dtype=np.int64)[:, None] >> bits) & 1
    minor_cols = [[c for c in range(n) if c != j] for j in range(n)]
    for s in range(start, stop, _BATCH):
        e = min(stop, s + _BATCH)
        codes = _unrank(n, np.arange(s, e, dtype=np.int64))
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
