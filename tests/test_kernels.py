"""The enumeration kernels against plain enumerations and against themselves."""

import itertools
import math
import random

import numpy as np
import pytest

from bindet import _kernels, cofactor_vector, det_exact, fib_prefix, spectrum_exhaustive


def run_exhaustive(n, blocks):
    """Determinants marked by exhaustive_chunk over the given rank blocks."""
    offset = math.factorial(n)
    seen = np.zeros(2 * offset + 1, dtype=np.uint8)
    for start, stop in blocks:
        _kernels.exhaustive_chunk(n, start, stop, seen)
    return set(int(i) - offset for i in np.flatnonzero(seen))


def run_family(cof):
    lo = sum(c for c in cof if c < 0)
    hi = sum(c for c in cof if c > 0)
    seen = np.zeros(hi - lo + 1, dtype=np.uint8)
    _kernels.family_bitmap(np.array(cof, dtype=np.int64), lo, seen)
    return set(int(i) + lo for i in np.flatnonzero(seen))


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


@pytest.mark.parametrize("n", [2, 3, 4])
def test_row_sets_are_doubly_lexical_and_cover_every_orbit(n):
    sets = _kernels._row_sets(n, 0, _kernels.family_count(n))
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


def test_row_set_windows_concatenate_to_the_whole():
    n = 5
    whole = _kernels._row_sets(n, 0, _kernels.family_count(n))
    parts = [_kernels._row_sets(n, a, b) for a, b in ((0, 700), (700, 1500), (1500, 2051))]
    assert sum(parts, []) == whole


def _direct_subset_sums(cof):
    return {sum(c for i, c in enumerate(cof) if mask >> i & 1) for mask in range(1 << len(cof))}


def test_family_numpy_against_direct_subsets():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 10)
        cof = [rng.randint(-15, 15) for _ in range(n)]
        assert run_family(cof) == _direct_subset_sums(cof)


def _fibonacci_then_negated_tail(k, length, tail):
    """k-step Fibonacci weights, then the last `tail` of them negated."""
    w = fib_prefix(k, length)
    return w[:length - tail] + [-x for x in w[length - tail:]]


@pytest.mark.parametrize("cof", [
    [0], [0, 0, 0], [0, 3, 0, -2, 0],  # zero cofactors
    [5, 5, 5], [-4, -4, 4, 4], [2, -2, 2, -2, 7],  # repeated values
    [1, 2, 3, 10, 40], [40, 10, 3, 2, 1],  # all positive
    [-1, -2, -3, -10, -40], [-40, -10, -3, -2, -1],  # all negative
    [9], [-9], [1], [-1],  # a single cofactor
    [-9, 1, 2, 4], [9, -1, -2, -4],  # the largest against the rest
    _fibonacci_then_negated_tail(2, 10, 3),
    _fibonacci_then_negated_tail(3, 12, 4),
    [-c for c in _fibonacci_then_negated_tail(4, 13, 5)],
])
def test_family_window_in_both_directions(cof):
    # The window grows left for a negative weight and right for a positive
    # one, in whatever order the weights arrive.
    assert run_family(cof) == _direct_subset_sums(cof)


@pytest.mark.parametrize("n", range(2, 8))
def test_cofactors_match_exact(n):
    rng = np.random.default_rng(n)
    rows = rng.integers(0, 2, size=(60, n - 1, n))
    if n > 2:
        # A repeated row: every cofactor is zero.
        dup = rng.integers(1, n - 1, size=20)
        rows[np.arange(20), dup] = rows[np.arange(20), dup - 1]
    cof = _kernels._cofactors(rows)
    assert cof.dtype == np.int64 and cof.shape == (60, n)
    for stack, got in zip(rows, cof):
        expect = cofactor_vector([tuple(int(x) for x in row) for row in stack])
        assert tuple(int(c) for c in got) == tuple(expect)
    if n > 2:
        assert not cof[:20].any()
