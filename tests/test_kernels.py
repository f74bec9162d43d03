"""The enumeration kernels against plain enumerations and against themselves."""

import functools
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bindet import _kernels, cofactor_vector, det_exact, fib_prefix, spectrum_exhaustive
from bindet.exact import subset_sums


def _members(cells, lo):
    """The values v whose cell v - lo is set in a Python-int bitset."""
    return {s + lo for s in range(cells.bit_length()) if cells >> s & 1}


def run_exhaustive(n, blocks):
    """Determinants marked by exhaustive_chunk over the given rank blocks."""
    offset = math.factorial(n)
    cells = 0
    for start, stop in blocks:
        cells |= _kernels.exhaustive_chunk(n, start, stop, offset)
    assert cells.bit_length() <= 2 * offset + 1
    return _members(cells, -offset)


def run_family(cof):
    """The family sweep: subset sums of |cof|, shifted down by the negative sum."""
    return _members(subset_sums(sorted(abs(c) for c in cof if c)), sum(c for c in cof if c < 0))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exhaustive_matches_plain_enumeration(n):
    # Every one of the 2^(n^2) matrices through the arbitrary-precision
    # elimination, with no row sets, no Laplace expansion and no negation.
    direct = set()
    for bits in itertools.product((0, 1), repeat=n * n):
        direct.add(det_exact([bits[i * n:(i + 1) * n] for i in range(n)]))
    assert spectrum_exhaustive(n).values == tuple(sorted(direct))


def test_exhaustive_uneven_split_equals_whole():
    n = 4
    total = _kernels.family_count(n)
    assert total == 85
    cuts = [0, 1, 2, 37, 38, 60, total - 1, total]
    blocks = list(zip(cuts, cuts[1:]))
    whole = run_exhaustive(n, [(0, total)])
    assert run_exhaustive(n, blocks) == whole
    # One sign of each orbit: the negation closure is the caller's.
    assert whole | {-v for v in whole} == set(range(-3, 4))


def _matrix(n, codes):
    """Rows as bit tuples, most significant bit first."""
    return [tuple((c >> (n - 1 - j)) & 1 for j in range(n)) for c in codes]


def _orbit_key(n, rows):
    """Least sorted row tuple over all column permutations of the row set."""
    return min(tuple(sorted(tuple(r[p] for p in perm) for r in rows))
               for perm in itertools.permutations(range(n)))


def _codes(n, r, prefix_id):
    """The r codes of a prefix id, first row first."""
    return tuple((prefix_id >> (n * (r - 1 - t))) & ((1 << n) - 1) for t in range(r))


def _levels(n, start, stop):
    """{r: [code tuples]} and the leaves' cofactors from _kernels._levels, in yield order."""
    levels, cofactors = {}, []
    for r, ids, minors in _kernels._levels(n, start, stop):
        levels.setdefault(r, []).extend(_codes(n, r, int(i)) for i in ids)
        if r == n - 1:
            cofactors.extend(tuple(int(c) for c in row) for row in minors)
    return levels, cofactors


# A plain reference for the level expansion: the doubly-lexical rules as
# per-code loops and a memoized recursive count of completions.

def _moves(n, mask):
    """(code, new tie mask) of every row allowed after tie mask `mask`, codes decreasing.

    Bit j of a mask says columns j+1 and j are still equal in every row so
    far; such a pair allows no row with bit j set and bit j+1 clear.
    """
    return [(c, mask & ~(c ^ (c >> 1))) for c in range((1 << n) - 1, -1, -1)
            if c & ~(c >> 1) & mask == 0]


@functools.lru_cache(maxsize=None)
def _count(n, left, prev, mask):
    """Ways to extend a prefix with last code prev and tie mask mask by `left` rows."""
    if left == 0:
        return 1
    return sum(_count(n, left - 1, c, nxt) for c, nxt in _moves(n, mask) if c < prev)


@functools.lru_cache(maxsize=None)
def _live(n, depth, r, prev, mask):
    """Ways to extend a prefix of `depth` rows by r rows to one that a set completes."""
    if r == 0:
        return int(_count(n, n - 1 - depth, prev, mask) > 0)
    return sum(_live(n, depth + 1, r - 1, c, nxt) for c, nxt in _moves(n, mask) if c < prev)


def _walk(n, start, stop):
    """{r: [code tuples]}: the prefixes, in depth-first order, whose subtree
    holds a set numbered in [start, stop)."""
    levels = {}

    def visit(prefix, prev, mask, base):
        levels.setdefault(len(prefix), []).append(prefix)
        for c, nxt in _moves(n, mask):
            if c >= prev:
                continue
            size = _count(n, n - 2 - len(prefix), c, nxt)
            if size and base < stop and base + size > start:
                visit(prefix + (c,), c, nxt, base)
            base += size

    full = (1 << (n - 1)) - 1
    if start < min(stop, _count(n, n - 1, 1 << n, full)):
        visit((), 1 << n, full, 0)
    return levels


@pytest.mark.parametrize("n", [2, 3, 4])
def test_leaves_are_doubly_lexical_and_cover_every_orbit(n):
    sets = _levels(n, 0, _kernels.family_count(n))[0][n - 1]
    assert len(set(sets)) == len(sets)
    for codes in sets:
        assert all(a > b for a, b in zip(codes, codes[1:]))
        rows = _matrix(n, codes)
        cols = list(zip(*rows))
        assert all(a >= b for a, b in zip(cols, cols[1:]))
    # Every set of n-1 distinct rows reaches a generated set by permuting
    # its rows and columns.
    generated = {_orbit_key(n, _matrix(n, codes)) for codes in sets}
    for codes in itertools.combinations(range(1 << n), n - 1):
        assert _orbit_key(n, _matrix(n, codes)) in generated


def test_family_count_matches_known_totals():
    assert [_kernels.family_count(n) for n in range(2, 7)] == [3, 10, 85, 2051, 140199]


@pytest.mark.parametrize("n", range(2, 6))
def test_leaf_cofactors_match_exact(n):
    levels, cofactors = _levels(n, 0, _kernels.family_count(n))
    assert len(cofactors) == len(levels[n - 1]) == _kernels.family_count(n)
    for codes, got in zip(levels[n - 1], cofactors):
        # Column j of a row is bit j of its code.
        rows = [tuple((c >> j) & 1 for j in range(n)) for c in codes]
        assert got == tuple(cofactor_vector(rows))


def test_windows_concatenate_to_the_whole_in_depth_first_order():
    n = 5
    whole = _levels(n, 0, 2051)[0][n - 1]
    parts = [_levels(n, a, b)[0][n - 1] for a, b in ((0, 700), (700, 1500), (1500, 2051))]
    assert [len(p) for p in parts] == [700, 800, 551]
    assert sum(parts, []) == whole
    # Depth-first order is decreasing lexicographic order of the code tuples.
    assert whole == sorted(whole, reverse=True) and len(set(whole)) == len(whole)


@pytest.mark.parametrize("n", range(2, 8))
def test_subtree_sizes_match_the_recursive_count(n):
    _, _, sizes, _, root = _kernels._tables(n)
    full = (1 << (n - 1)) - 1
    levels = range(n) if n <= 6 else range(5)
    assert [int(sizes[r, root]) for r in levels] == [_count(n, r, 1 << n, full) for r in levels]
    if n == 7:
        # Every r-row doubly-lexical prefix, completable or not.
        assert [int(sizes[r, root]) for r in range(1, 5)] == [8, 84, 1506, 37527]


@pytest.mark.parametrize("n, start, stop", [
    (1, 0, 1), (2, 0, 3), (3, 0, 10), (4, 0, 85), (5, 0, 2051),
    (4, 37, 38), (4, 60, 60), (4, 84, 200), (5, 700, 1500),
    (6, 50_000, 52_000),
    # Deep inside n = 7 (27,740,695 sets): every level, in a few thousand sets.
    (7, 0, 1_000), (7, 13_000_000, 13_004_000), (7, 27_738_000, 27_740_695),
])
def test_levels_match_a_recursive_walk(n, start, stop):
    # Each level holds exactly the prefixes whose subtree holds a set in the
    # window, in depth-first order: a wrong validity mask, subtree size or
    # window cut changes some level.
    assert _levels(n, start, stop)[0] == _walk(n, start, stop)


@pytest.mark.parametrize("n", range(1, 7))
def test_level_sizes_count_the_completable_prefixes(n):
    sizes = [0] * n
    for r, ids, _ in _kernels._levels(n, 0, _kernels.family_count(n)):
        sizes[r] += len(ids)
    assert sizes == [_live(n, 0, r, 1 << n, (1 << (n - 1)) - 1) for r in range(n)]


def _prefix_ids(n, start, stop):
    """{r: ids of the r-row prefixes, in yield order}."""
    levels = {}
    for r, ids, _ in _kernels._levels(n, start, stop):
        levels.setdefault(r, []).extend(ids.tolist())
    return levels


@pytest.mark.parametrize("n", [5, 6])
def test_bitmap_does_not_depend_on_the_parent_block(n, monkeypatch):
    total = _kernels.family_count(n)
    blocks = [(0, total), (0, total // 3), (total // 3, total)]
    whole = run_exhaustive(n, blocks[:1])
    pieces = run_exhaustive(n, blocks[1:])
    prefixes = _prefix_ids(n, 0, total)
    monkeypatch.setattr(_kernels, "_PARENTS", 7)
    assert run_exhaustive(n, blocks[:1]) == whole
    assert run_exhaustive(n, blocks[1:]) == pieces == whole
    assert _prefix_ids(n, 0, total) == prefixes


def test_keys_refuse_a_magnitude_past_their_field():
    n = 7
    largest = _kernels._key_table(n)[0]
    edge = np.array([[largest, -largest, 1, 0, 0, -1, 2]], dtype=np.int32)
    (key,) = _kernels._keys(edge).tolist()
    reach, negative = _kernels._reach(key, n)
    assert {s - negative for s in range(reach.bit_length()) if reach >> s & 1} == \
        _direct_subset_sums(edge[0].tolist())
    for bad in (largest + 1, -largest - 1, 1 << 40):
        with pytest.raises(OverflowError, match="exceeds"):
            _kernels._keys(np.array([[bad, 0, 0, 0, 0, 0, 0]], dtype=np.int64))


def _direct_subset_sums(cof):
    return {sum(c for i, c in enumerate(cof) if mask >> i & 1) for mask in range(1 << len(cof))}


def test_family_sweep_against_direct_subsets():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 10)
        cof = [rng.randint(-15, 15) for _ in range(n)]
        assert run_family(cof) == _direct_subset_sums(cof)


def _fibonacci_then_negated_tail(k, length, tail):
    """k-step Fibonacci weights, then the last `tail` of them negated."""
    w = fib_prefix(k, length)
    return w[:length - tail] + [-x for x in w[length - tail:]]


EDGE_COFACTORS = [
    [0], [0, 0, 0], [0, 3, 0, -2, 0],  # zero cofactors
    [5, 5, 5], [-4, -4, 4, 4], [2, -2, 2, -2, 7],  # repeated values
    [1, 2, 3, 10, 40], [40, 10, 3, 2, 1],  # all positive
    [-1, -2, -3, -10, -40], [-40, -10, -3, -2, -1],  # all negative
    [9], [-9], [1], [-1],  # a single cofactor
    [-9, 1, 2, 4], [9, -1, -2, -4],  # the largest against the rest
    _fibonacci_then_negated_tail(2, 10, 3),
    _fibonacci_then_negated_tail(3, 12, 4),
    [-c for c in _fibonacci_then_negated_tail(4, 13, 5)],
]


@pytest.mark.parametrize("cof", EDGE_COFACTORS)
def test_family_sweep_on_edge_cofactors(cof):
    # Whatever the order and the signs of the cofactors, the sweep over
    # their sorted magnitudes, shifted by the negative sum, gives S(C).
    assert run_family(cof) == _direct_subset_sums(cof)


@pytest.mark.parametrize("cof", EDGE_COFACTORS + [[3, -7], [-2, 6, 0, 1]])
def test_family_bitmap_adapter_equals_the_sweep(cof):
    lo = sum(c for c in cof if c < 0)
    for pad in (0, 9):  # a longer array and a lower lo shift the cells up
        seen = np.zeros(sum(map(abs, cof)) + 1 + pad, dtype=np.uint8)
        _kernels.family_bitmap(np.array(cof, dtype=np.int64), lo - pad, seen)
        assert set(seen.tolist()) <= {0, 1}
        assert {int(i) + lo - pad for i in np.flatnonzero(seen)} == run_family(cof)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-11, 11), max_size=10))
def test_subset_sums_are_the_magnitudes_shifted_by_the_negative_sum(cof):
    # S(c) = S(sorted |c|) - sum of |c_j| over c_j < 0, through the packed
    # key and its sweep; a key of up to 15 cofactors holds magnitudes to 11.
    n = max(len(cof), 1)
    (key,) = _kernels._keys(np.array([cof + [0] * (n - len(cof))], dtype=np.int64)).tolist()
    reach, negative = _kernels._reach(key, n)
    assert negative == -sum(c for c in cof if c < 0)
    shifted = {s - negative for s in range(reach.bit_length()) if reach >> s & 1}
    assert shifted == _direct_subset_sums(cof)
