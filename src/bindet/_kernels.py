"""The exhaustive enumeration kernel, in vectorized numpy.

``exhaustive_chunk`` enumerates rows 2..n of a binary matrix as
doubly-lexical sets of n-1 distinct row codes, and returns every
determinant that a 0/1 top row reaches above them as a Python-int bitset.
Column j of a row is bit j of its code, and the most significant bit is
the first column.  A set is doubly-lexical when its codes strictly
decrease and its columns do not increase, each column read as a word
over the rows, first row most significant.  Every (n-1) x n 0/1 matrix
with distinct rows can be brought to such a set by permuting rows and
columns: sorting the rows, then the columns, never lowers the row-major
bit string, so alternating the two sorts stops at a doubly-lexical
matrix (A. Lubiw, "Doubly lexical orderings of matrices", SIAM J.
Comput. 16, 1987).  That loses no determinant: a repeated row gives 0,
which the zero top row reaches anyway; a row permutation flips the
sign; a column permutation permutes the cofactors and flips their sign,
and the top row ranges over all of {0,1}^n.  So the bitset covers the
full spectrum once the caller closes it under negation.

The sets are the leaves of a prefix tree, built a level at a time and
numbered depth-first (2,051 at n = 5, 140,199 at n = 6).  A prefix of r
rows carries its r x r minors on every r-subset of columns.  A block of
parents gets its children from one table lookup, in depth-first order,
and their minors by one Laplace step along the new row: bits(code) .
W(parent), with W the parent's signed minors.  The leaves' minors are
the first-row cofactors C.  Each is a 0/1 determinant of order below n,
at most (n-1)! in magnitude, so int32 is exact for n <= 13.  A leaf
reaches the subset sums S(C) = S(|C|) - (sum of |C_j| over C_j < 0), as
negating C_j maps a subset T to T xor {j}.  So one sweep of
``exact.subset_sums`` per distinct key (multiset of |C|, negative sum)
marks the cells of all its leaves: 36 keys at n = 5, 160 at n = 6.  The
family spectrum in ``oracle`` runs the same sweep on its cofactors, with
no numpy.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, repeat

import numpy as np

from .exact import subset_sums, widen

_PARENTS = 1 << 10  # parents expanded at once; bounds each level's arrays
_NEG_BITS = 16  # a key's low field: the sum of |C_j| over C_j < 0


@lru_cache(maxsize=None)
def _tables(n: int):
    """(bits, nxt, sizes, steps, root): the level-expansion tables of size n.

    A prefix's state is last * 2^(n-1) + mask: its last code (2^n at the
    root), and bit j set while columns j+1 and j are equal in every row,
    which forbids a row with bit j set and bit j+1 clear.  The i-th code is
    2^n - 1 - i with bits bits[i]; nxt[state, i] is the state after it, or
    the last state (dead) if it is not allowed.  sizes[left, state] counts
    the ways to add `left` rows.  W(parent) = sign * minors[:, index] for
    (index, sign) = steps[r], the step from r to r+1 rows.
    """
    half = 1 << (n - 1)
    codes = np.arange((1 << n) - 1, -1, -1)
    masks = np.arange(half)[:, None]
    allowed = (codes & ~(codes >> 1) & masks) == 0
    dead = ((1 << n) + 1) * half
    nxt = np.where(allowed & (codes < np.arange((1 << n) + 1)[:, None, None]),
                   codes * half + (masks & ~(codes ^ (codes >> 1))), dead)
    nxt = nxt.reshape(dead, 1 << n).astype(np.int32)
    sizes = np.zeros((n, dead + 1), dtype=np.int64)
    sizes[0, :dead] = 1
    for left in range(1, n):
        sizes[left, :dead] = sizes[left - 1][nxt].sum(axis=1)

    steps, subsets = [], [()]
    for r in range(n - 1):
        last = r == n - 2  # the leaves' subsets: every column but t, signed (-1)^t
        wider = [tuple(c for c in range(n) if c != t) for t in range(n)] if last \
            else list(combinations(range(n), r + 1))
        position = {s: i for i, s in enumerate(subsets)}
        index = np.zeros((n, len(wider)), dtype=np.intp)
        sign = np.zeros((n, len(wider)), dtype=np.int32)  # 0 where j is not in the subset
        for k, cols in enumerate(wider):
            for i, j in enumerate(cols):
                index[j, k] = position[cols[:i] + cols[i + 1:]]
                sign[j, k] = (-1) ** (r + i + (k if last else 0))
        steps.append((index, sign))
        subsets = wider
    bits = ((codes[:, None] >> np.arange(n)) & 1).astype(np.int32)
    return bits, nxt, sizes, steps, (1 << n) * half + half - 1


def family_count(n: int) -> int:
    """Number of doubly-lexical sets of n-1 distinct binary rows of length n."""
    _, _, sizes, _, root = _tables(n)
    return int(sizes[n - 1, root])


def _levels(n: int, start: int, stop: int):
    """Yield (r, ids, minors) blocks of the r-row prefixes of the sets [start, stop).

    Blocks come in depth-first order, each before the blocks below it.  An
    id holds a prefix's codes in base 2^n, first row most significant;
    minors holds its int32 minors, the cofactors when r = n-1.
    """
    bits, nxt, sizes, steps, root = _tables(n)

    def visit(r, states, ids, minors, base):
        # base is the depth-first number of the first set below states[0].
        yield r, ids, minors
        if r == n - 1:
            return
        index, sign = steps[r]
        for s in range(0, len(states), _PARENTS):
            child = nxt[states[s:s + _PARENTS]]
            size = sizes[n - 2 - r][child]
            ends = base + np.cumsum(size).reshape(size.shape)
            base = int(ends[-1, -1])
            p, c = np.nonzero((size > 0) & (ends > start) & (ends - size < stop))
            if p.size:
                w = minors[s:s + _PARENTS][:, index] * sign
                yield from visit(r + 1, child[p, c],
                                 (ids[s:s + _PARENTS][p] << n) | ((1 << n) - 1 - c),
                                 np.einsum("cj,cjk->ck", bits[c], w[p]),
                                 int(ends[p[0], c[0]] - size[p[0], c[0]]))

    if start < min(stop, sizes[n - 1, root]):
        yield from visit(0, np.array([root]), np.zeros(1, dtype=np.int64),
                         np.ones((1, 1), dtype=np.int32), 0)


@lru_cache(maxsize=None)
def _key_table(n: int) -> tuple[int, np.ndarray]:
    """(largest, table): table[C + largest] is cofactor C's share of its key.

    Fields of n.bit_length() bits above the low field count the cofactors
    of each magnitude 1 .. largest, so no share carries into another.
    """
    width = n.bit_length()
    largest = (63 - _NEG_BITS) // width
    c = np.arange(-largest, largest + 1)
    shares = np.where(c != 0, 1 << (_NEG_BITS + width * (np.abs(c) - 1)), 0)
    return largest, shares + np.maximum(-c, 0)


def _keys(cof: np.ndarray) -> np.ndarray:
    """The sorted distinct int64 keys of the rows of cofactors; raise if one does not fit."""
    largest, table = _key_table(cof.shape[1])
    if cof.size and max(int(cof.max()), -int(cof.min())) > largest:
        raise OverflowError(f"a cofactor exceeds {largest}, the largest the int64 key holds")
    keys = np.sort(np.take(table, cof.T + largest).sum(axis=0))
    # np.unique hashes, which is 3-7x slower than a sort here.
    return keys[np.append(keys[1:] != keys[:-1], True)]


def _magnitudes(key: int, n: int):
    """The |C_j| that a key counts, in increasing order."""
    width, magnitude = n.bit_length(), 1
    fields = key >> _NEG_BITS
    while fields:
        yield from repeat(magnitude, fields & ((1 << width) - 1))
        fields >>= width
        magnitude += 1


def _reach(key: int, n: int) -> tuple[int, int]:
    """(S(|C|) as a Python-int bitset, sum of |C_j| over C_j < 0) for one key."""
    return widen(*subset_sums(_magnitudes(key, n))), key & ((1 << _NEG_BITS) - 1)


def exhaustive_chunk(n, start, stop, offset):
    """The determinants of the doubly-lexical row sets numbered [start, stop).

    Returns a Python-int bitset with bit d + offset set for every
    determinant d; offset must be at least the largest |d|, such as n!.  One
    set stands for all row and column orders of its rows, which reach the
    same values up to sign, so the caller closes the merged bitset under
    negation.
    """
    distinct = set()
    for r, _, cof in _levels(n, start, stop):
        if r == n - 1:
            distinct.update(_keys(cof).tolist())
    cells = 0
    for key in distinct:
        reach, negative = _reach(key, n)
        cells |= reach << (offset - negative)
    return cells


# Kept only as a name for perfbench/spans.py, which times it and counts
# seen.size; no bindet code calls it.  It goes with that counter.
def family_bitmap(cof, lo, seen):
    """OR the subset sums of cof into the uint8 array seen, at seen[s - lo]."""
    shift = int(sum(c for c in cof if c < 0)) - lo
    cells = widen(*subset_sums(sorted(abs(int(c)) for c in cof if c))) << shift
    packed = np.frombuffer(cells.to_bytes(seen.size // 8 + 1, "little"), dtype=np.uint8)
    seen |= np.unpackbits(packed, count=seen.size, bitorder="little")
