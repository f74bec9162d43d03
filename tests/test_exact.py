"""Exact linear algebra: determinants, cofactors, dot products."""

import collections
import functools
import itertools
import math
import random
from operator import getitem

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bindet import (
    IntMatrix,
    InternalInvariantError,
    binary_rows,
    cofactor_vector,
    det_exact,
    dot,
    fib_prefix,
    is_orthogonal_to_all,
    orthogonal_vector,
    seed_matrix,
)
from bindet import exact
from bindet.cli import main
from bindet.construction import _lower_rows


@functools.lru_cache(maxsize=None)
def signed_permutations(n):
    """Each permutation of range(n) with its sign, -1 for an odd inversion count."""
    signed = []
    for perm in itertools.permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        signed.append((perm, -1 if inv % 2 else 1))
    return tuple(signed)


def det_permsum(rows):
    """Independent oracle: determinant as the signed permutation sum."""
    return sum(sign * math.prod(map(getitem, rows, perm))
               for perm, sign in signed_permutations(len(rows)))


class TestIntMatrix:
    def test_identity(self):
        m = IntMatrix([[int(i == j) for j in range(4)] for i in range(4)])
        assert m.n == 4
        assert m.is_binary()
        assert det_exact(m) == 1

    def test_rejects_ragged(self):
        with pytest.raises(ValueError, match="not square"):
            IntMatrix([(1, 0), (1,)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            IntMatrix(())

    def test_flags_are_checked_not_trusted(self):
        m = IntMatrix([(1, 0), (-1, 2)])
        assert not m.is_binary()

    @given(st.data())
    def test_first_non_binary_is_a_row_major_scan(self, data):
        n = data.draw(st.integers(1, 4))
        entries = data.draw(st.sampled_from([st.integers(0, 1), st.integers(-2, 3)]))
        rows = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                                  min_size=n, max_size=n))
        scanned = None
        for i, row in enumerate(rows):
            for j, x in enumerate(row):
                if scanned is None and x not in (0, 1):
                    scanned = (i, j, x)
        assert exact._first_non_binary(rows) == scanned
        assert IntMatrix(rows).is_binary() == (scanned is None)

    def test_text_round_trip(self):
        m = IntMatrix([(1, 0, 1), (0, 1, 1), (1, 1, 0)])
        assert IntMatrix.from_text(m.to_text()) == m

    def test_text_rejects_bad_size(self):
        with pytest.raises(ValueError, match="expected 3"):
            IntMatrix.from_text("3\n1 0 1\n0 1 1\n")

    def test_text_rejects_garbage(self):
        with pytest.raises(ValueError):
            IntMatrix.from_text("hello\n")


class TestEntryTypes:
    """Entries go through operator.index: no truncation, no parsing."""

    NON_INTEGERS = [1.5, 2.0, 2.9, "1", None]

    @pytest.mark.parametrize("bad", NON_INTEGERS)
    def test_matrix_rejects_non_integer_entries(self, bad):
        with pytest.raises(TypeError):
            IntMatrix([(bad, 0), (0, 1)])
        with pytest.raises(TypeError):
            IntMatrix(((1, 0), (0, bad)))

    @pytest.mark.parametrize("bad", NON_INTEGERS)
    def test_det_and_cofactors_reject_non_integer_entries(self, bad):
        with pytest.raises(TypeError):
            det_exact([[1, 0], [0, bad]])
        with pytest.raises(TypeError):
            cofactor_vector([(bad, 1)])

    @pytest.mark.parametrize("bad", NON_INTEGERS)
    def test_dot_rejects_non_integer_entries(self, bad):
        with pytest.raises(TypeError):
            dot((bad, 1), (1, 1))
        with pytest.raises(TypeError):
            dot((1, 1), (1, bad))

    def test_fractional_diagonal_is_not_truncated(self):
        with pytest.raises(TypeError):
            det_exact([[1.5, 0], [0, 2.9]])
        with pytest.raises(TypeError):
            IntMatrix([(1.5, 0), (0, 2.9)])

    def test_bools_and_numpy_integers_become_ints(self):
        import numpy as np

        m = IntMatrix([(True, np.int64(2)), (np.uint8(3), False)])
        assert m.rows == ((1, 2), (3, 0))
        assert all(type(x) is int for row in m.rows for x in row)
        assert m.to_text() == "2\n1 2\n3 0\n"
        assert det_exact([[np.int64(2), True], [np.int8(-1), np.int64(5)]]) == 11
        assert dot((True, np.int64(3)), (np.uint8(4), 2)) == 10


class TestDetExact:
    def test_identity_5(self):
        assert det_exact([[int(i == j) for j in range(5)] for i in range(5)]) == 1

    def test_repeated_row_is_singular(self):
        m = [(1, 0, 1), (1, 0, 1), (0, 1, 1)]
        assert det_exact(m) == 0

    def test_construction_matrix_10_3(self, seed_10_3):
        # Lower triangular with one +1, six -1, three +1 on the diagonal.
        assert det_exact(seed_10_3) == 1
        assert det_exact(seed_matrix(10, 3)) == 1

    def test_exhaustive_ternary_3x3(self):
        for entries in itertools.product((-1, 0, 1), repeat=9):
            rows = (entries[0:3], entries[3:6], entries[6:9])
            assert det_exact(rows) == det_permsum(rows)

    def test_randomized_ternary_4x4(self):
        rng = random.Random(20240211)
        for _ in range(100_000):
            rows = [tuple(rng.randint(-1, 1) for _ in range(4)) for _ in range(4)]
            assert det_exact(rows) == det_permsum(rows)

    def test_row_swap_antisymmetry(self):
        rng = random.Random(99)
        for _ in range(300):
            n = rng.randint(2, 6)
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            i, j = rng.sample(range(n), 2)
            swapped = list(rows)
            swapped[i], swapped[j] = rows[j], rows[i]
            assert det_exact(swapped) == -det_exact(rows)

    def test_large_entries_stay_exact(self):
        big = 10**40
        m = [(big, 1), (1, big)]
        assert det_exact(m) == big * big - 1

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            det_exact([(1, 2, 3), (4, 5, 6)])


class TestDot:
    def test_unit_vector_selects_coordinate(self):
        assert dot((1, 0, 0), (7, 9, 9)) == 7

    def test_self_product(self):
        assert dot((1, 1, 2), (1, 1, 2)) == 6

    def test_orthogonal_pair_from_construction(self, v_10_3, seed_10_3):
        assert dot(v_10_3, seed_10_3[7]) == 0  # s_8, supported on columns 5..8

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            dot((1, 2), (1, 2, 3))


class TestCofactorVector:
    def test_identity_minors(self):
        assert cofactor_vector([(0, 1, 0), (0, 0, 1)]) == (1, 0, 0)

    def test_small_example(self):
        assert cofactor_vector([(1, 1, 0), (0, 1, 1)]) == (1, -1, 1)

    def test_construction_rows_give_orthogonal_vector(self, v_10_3):
        # The first order of _lower_rows has cofactors +F_k, the recurrence
        # vector; the second, with the bottom two rows exchanged, negates them.
        assert cofactor_vector(_lower_rows(10, 3)[0]) == v_10_3
        grid = [(n, k) for n in range(4, 61) for k in range(2, n // 2 + 1)]
        for n, k in grid + [(128, 6), (256, 7)]:
            plain, swapped = _lower_rows(n, k)
            v = orthogonal_vector(n, k)
            assert cofactor_vector(plain) == v
            assert cofactor_vector(swapped) == tuple(-x for x in v)

    def test_dependent_rows_give_zero_vector(self):
        assert cofactor_vector([(1, 1, 0), (1, 1, 0)]) == (0, 0, 0)
        assert cofactor_vector([(0, 0, 0), (1, 0, 1)]) == (0, 0, 0)

    def test_laplace_expansion_random_binary(self):
        rng = random.Random(4242)
        for _ in range(1000):
            n = rng.randint(2, 8)
            rows = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(n - 1)]
            cof = cofactor_vector(rows)
            top = tuple(rng.randint(0, 1) for _ in range(n))
            assert det_exact([top, *rows]) == dot(cof, top)

    def test_output_orthogonal_to_inputs(self):
        rng = random.Random(77)
        for _ in range(300):
            n = rng.randint(2, 7)
            rows = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n - 1)]
            cof = cofactor_vector(rows)
            if any(cof):
                assert is_orthogonal_to_all(cof, rows)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            cofactor_vector([(1, 0), (0, 1)])

    def test_one_by_one(self):
        # No rows below: det([r1]) = r1[0].
        assert cofactor_vector([]) == (1,)

    @pytest.mark.parametrize("n, k", [(19, 4), (24, 4)])
    def test_unit_top_rows_on_construction_families(self, n, k):
        rows = binary_rows(n, k)[1:]
        cof = cofactor_vector(rows)
        for j in range(n):
            unit = tuple(int(i == j) for i in range(n))
            assert det_exact([unit, *rows]) == cof[j]

    def test_inexact_back_substitution_is_an_invariant_failure(self, monkeypatch):
        # An echelon form that is not the Bareiss one: with the minor 3 as
        # x[2], x = (?, -1, 3) leaves -3 to be divided by the first pivot, 2.
        monkeypatch.setattr(exact, "_eliminate",
                            lambda rows: (3, [0, 1], [[2, 0, 1], [0, 3, 1]]))
        with pytest.raises(InternalInvariantError, match="remainder"):
            cofactor_vector([(2, 0, 1), (0, 3, 1)])


class TestOrthogonality:
    def test_simple_true(self):
        assert is_orthogonal_to_all((1, -1), [(1, 1)])

    def test_simple_false(self):
        assert not is_orthogonal_to_all((1, 1), [(1, 1)])

    def test_construction_rows(self, v_10_3):
        assert is_orthogonal_to_all(v_10_3, binary_rows(10, 3)[1:])


def subset_sums_by_enumeration(weights):
    """Independent oracle: the bitset of the sums of all 2^len subsets."""
    reach = 0
    for size in range(len(weights) + 1):
        for subset in itertools.combinations(weights, size):
            reach |= 1 << sum(subset)
    return reach


@st.composite
def complete_prefix_then_gap(draw):
    """A complete k-step Fibonacci prefix, a weight past its sum + 1, then anything."""
    prefix = fib_prefix(draw(st.integers(2, 5)), draw(st.integers(0, 6)))
    gap = sum(prefix) + draw(st.integers(2, 30))
    return prefix + [gap] + draw(st.lists(st.integers(0, 60), max_size=3))


def complete_prefix_length(weights):
    """Independent reading of the prefix: how many leading weights fill [0, their sum]."""
    i = 0
    while i < len(weights) and subset_sums_by_enumeration(weights[:i + 1]) == \
            (1 << (sum(weights[:i + 1]) + 1)) - 1:
        i += 1
    return i


class TestSubsetSums:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.lists(st.integers(0, 40), max_size=10),
        st.lists(st.sampled_from([0, 1, 2, 3, 5]), max_size=10),
        complete_prefix_then_gap(),
        complete_prefix_then_gap().flatmap(st.permutations),
    ))
    def test_matches_enumeration_in_any_order(self, weights):
        # (s, rest): the complete prefix's end, and the sums of the weights after it.
        i = complete_prefix_length(weights)
        s, rest = exact.subset_sums(weights)
        assert exact.subset_sums(iter(weights)) == (s, rest)
        assert (s, rest) == (sum(weights[:i]), subset_sums_by_enumeration(weights[i:]))
        assert exact.widen(s, rest) == subset_sums_by_enumeration(weights)

    @pytest.mark.parametrize("k", [2, 3, 4, 7])
    def test_complete_fibonacci_prefixes_fill_an_interval(self, k):
        for m in range(12):
            weights = fib_prefix(k, m)
            full = (1 << (sum(weights) + 1)) - 1
            assert exact.subset_sums(weights) == (sum(weights), 1)
            assert exact.widen(sum(weights), 1) == subset_sums_by_enumeration(weights) == full

    @pytest.mark.parametrize("weights", [[-1], [0, -1], [1, 1, -1, 2], [1, 2, 10, -1],
                                         [3, -2], [1, 1, 2, 4, 50, 3, -7]])
    def test_a_negative_weight_raises(self, weights):
        with pytest.raises(ValueError):
            exact.subset_sums(weights)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 70), st.integers(0, (1 << 40) - 1))
    def test_widen_is_one_shift_or_per_offset(self, s, bits):
        expect = 0
        for j in range(s + 1):
            expect |= bits << j
        assert exact.widen(s, bits) == expect


@st.composite
def square_int_matrix(draw, max_n=5, lo=-3, hi=3):
    n = draw(st.integers(2, max_n))
    return [
        tuple(draw(st.integers(lo, hi)) for _ in range(n)) for _ in range(n)
    ]


small_ints = st.integers(-50, 50)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(small_ints, small_ints), max_size=6),
    small_ints,
    small_ints,
    st.integers(-6, 6).filter(bool),
    st.booleans(),
)
@example(pairs=[(1, 2), (-3, 5)], piv=7, f=2, d=1, scale=False)
@example(pairs=[(1, 2), (-3, 5)], piv=7, f=0, d=1, scale=False)
def test_row_reduction_raises_iff_a_remainder_is_left(pairs, piv, f, d, scale):
    # d = 1 skips the division and the check, and never leaves a remainder.
    if scale:  # every numerator a multiple of d, so the row is exact
        pairs = [(x * d, y * d) for x, y in pairs]
    row, top = [x for x, _ in pairs], [y for _, y in pairs]
    nums = [piv * x - f * y for x, y in pairs]
    if any(v % d for v in nums):
        with pytest.raises(InternalInvariantError):
            exact._reduce_row(row, sum(row), top, sum(top), piv, f, d)
    else:
        quo = [v // d for v in nums]
        assert exact._reduce_row(row, sum(row), top, sum(top), piv, f, d) == (quo, sum(quo))


# The (19, 4) construction rows, each mirrored: swept from the last column,
# they eliminate step for step as the rows themselves would from the first,
# leaving the unit phase for Bareiss pivots other than 1.  The rows
# themselves finish in the unit phase
# (test_construction_rows_eliminate_with_unit_pivots).
MIRRORED_19_4 = tuple(row[::-1] for row in binary_rows(19, 4)[1:])


def _wrap_reduce_row(monkeypatch, corrupt):
    """(list of _reduce_row divisors, set of entries it returned), filled as it runs.

    With corrupt, the first returned row sum is off by one.
    """
    reduce_row, divisors, entries = exact._reduce_row, [], set()

    def wrapped(*args):
        quo, quo_sum = reduce_row(*args)
        divisors.append(args[-1])
        entries.update(quo)
        return quo, quo_sum + (corrupt and len(divisors) == 1)

    monkeypatch.setattr(exact, "_reduce_row", wrapped)
    return divisors, entries


def test_the_family_divides_by_pivots_other_than_one(monkeypatch):
    divisors, _ = _wrap_reduce_row(monkeypatch, corrupt=False)
    cofactor_vector(MIRRORED_19_4)
    # The corrupted sum below comes from a division by 1, which is unchecked.
    assert divisors[0] == 1 and set(divisors) - {1}


@pytest.mark.parametrize("compute", [
    lambda: det_exact([(1,) * 19, *MIRRORED_19_4]),
    lambda: cofactor_vector(MIRRORED_19_4),
], ids=["det_exact", "cofactor_vector"])
def test_a_corrupted_carried_sum_is_an_invariant_failure(monkeypatch, compute):
    _wrap_reduce_row(monkeypatch, corrupt=True)
    with pytest.raises(InternalInvariantError, match="remainder"):
        compute()


def test_a_corrupted_carried_sum_exits_3(monkeypatch, capsys, tmp_path):
    rows = tmp_path / "rows.txt"
    rows.write_text("18\n" + "".join(" ".join(map(str, r)) + "\n" for r in MIRRORED_19_4))
    _wrap_reduce_row(monkeypatch, corrupt=True)
    assert main(["spectrum", "--rows", str(rows)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("internal invariant failure:")


def _wrap_unit_phase(monkeypatch):
    """List of (outcome, rows after the call, result), one per _unit_phase call.

    outcome says where the phase left the elimination: "to the end",
    "part-way", "at the first column" (before any unit pivot), "zero row"
    when one of its steps zeroed a row, or "rank" for the other exits on a
    rank below the row count.
    """
    unit_phase, calls = exact._unit_phase, []

    def wrapped(a, width):
        had_zero_row = not all(map(any, a))
        out = unit_phase(a, width)
        if out is None:
            outcome = "zero row" if not had_zero_row and not all(map(any, a)) else "rank"
        else:
            t = len(out[1])
            outcome = "to the end" if t == len(a) else "part-way" if t else "at the first column"
        calls.append((outcome, [list(row) for row in a], out))
        return out

    monkeypatch.setattr(exact, "_unit_phase", wrapped)
    return calls


def test_construction_rows_eliminate_with_unit_pivots(monkeypatch):
    # Row i minus row i+k of a construction is the seed row S_i, whose last
    # nonzero entry is its +-1 diagonal.  Swept from the last column, that
    # keeps every lead +-1 and every entry in {-1, 0, 1}, so the unit phase
    # pivots every row, also under a unit top row; swept from the first,
    # it would not (MIRRORED_19_4 above).
    calls = _wrap_unit_phase(monkeypatch)
    divisors, _ = _wrap_reduce_row(monkeypatch, corrupt=False)
    for n in range(4, 41):
        unit = (1,) + (0,) * (n - 1)
        for k in range(2, n // 2 + 1):
            for rows in _lower_rows(n, k):
                cofactor_vector(rows)
                det_exact([unit, *rows])
    assert {outcome for outcome, _, _ in calls} == {"to the end"} and not divisors
    assert set().union(*(set().union(*rows) for _, rows, _ in calls)) == {-1, 0, 1}


def test_construction_rows_divide_by_one_alone(monkeypatch):
    # Every admissible (n, k) up to 80, in both orders, finishes in the unit
    # phase: no row reaches _reduce_row, so nothing is divided or checked.
    calls = _wrap_unit_phase(monkeypatch)
    divisors, _ = _wrap_reduce_row(monkeypatch, corrupt=False)
    for n in range(4, 81):
        for k in range(2, n // 2 + 1):
            for rows in _lower_rows(n, k):
                cofactor_vector(rows)
    assert len(calls) == sum(2 * (n // 2 - 1) for n in range(4, 81))
    assert {outcome for outcome, _, _ in calls} == {"to the end"} and not divisors


SMALL_MATRICES = st.tuples(
    st.integers(1, 7), st.sampled_from([(0, 1), (-1, 0, 1), tuple(range(-2, 4))])
).flatmap(lambda spec: st.lists(st.tuples(*[st.sampled_from(spec[1])] * spec[0]),
                                min_size=spec[0], max_size=spec[0]))


def test_unit_phase_matches_permutation_sums(monkeypatch):
    calls = _wrap_unit_phase(monkeypatch)

    @settings(max_examples=300, deadline=None)
    @given(SMALL_MATRICES)
    # Swept from the last column, the unit phase pivots every row; leaves at
    # the third column, led by 2 alone; leaves at once, led by 2 and 3; and
    # zeroes the first row by a chain step.  Above a lead of 1, a lead of 2
    # subtracts twice that pivot, then leads at the second column with -2.
    @example([(1, 0), (0, 1)])
    @example([(2, 0, 1), (1, 1, 0), (0, 0, 1)])
    @example([(0, 2), (1, 3)])
    @example([(1, 1), (1, 1)])
    @example([(0, 2), (1, 1)])
    def check(rows):
        assert det_exact(rows) == det_permsum(rows)
        assert cofactor_vector(rows[1:]) == cofactors_permsum(rows[1:])

    check()
    assert {outcome for outcome, _, _ in calls} >= {
        "to the end", "part-way", "at the first column", "zero row"}


def _count_unit_steps(monkeypatch):
    """Counter of the Bareiss loop's +-1 branches taken, each checked to run as it should.

    A row update through a branch must make one add or sub per entry and
    nothing else; a single-hit column is a Bareiss pivot column that
    updates no row.
    """
    taken, ops, tops, units = collections.Counter(), collections.Counter(), [], []

    def counted(name, op):
        def call(*args):
            ops[name] += 1
            return op(*args)
        return call

    for name in ("add", "sub", "neg"):
        monkeypatch.setattr(exact, name, counted(name, getattr(exact, name)))
    reduce_row, eliminate, unit_phase = exact._reduce_row, exact._eliminate, exact._unit_phase

    def wrapped_reduce_row(row, row_sum, top, top_sum, piv, f, d):
        before = ops.copy()
        out = reduce_row(row, row_sum, top, top_sum, piv, f, d)
        step = {(1, 1): "sub", (1, -1): "add", (-1, -1): "sub"}.get((piv, f)) if d == 1 else None
        assert ops - before == collections.Counter({step: len(row)} if step else {})
        if step:
            taken[f"piv {piv}, f {f}"] += 1
        if f:
            tops.append(top)  # kept alive, so that each column's top has its own id
        return out

    def wrapped_unit_phase(a, width):
        out = unit_phase(a, width)
        units.append(0 if out is None else len(out[1]))
        return out

    def wrapped_eliminate(rows):
        tops.clear()
        negated = ops["neg"]
        out = eliminate(rows)
        if ops["neg"] > negated:
            taken["negated pivot row"] += 1
        if out is not None and len(out[1]) - units[-1] > len(set(map(id, tops))):
            taken["single hit"] += 1
        return out

    monkeypatch.setattr(exact, "_reduce_row", wrapped_reduce_row)
    monkeypatch.setattr(exact, "_unit_phase", wrapped_unit_phase)
    monkeypatch.setattr(exact, "_eliminate", wrapped_eliminate)
    return taken


UNIT_ENTRY_MATRICES = st.tuples(st.integers(2, 6), st.sampled_from([(0, 1), (-1, 0, 1)])).flatmap(
    lambda spec: st.lists(st.tuples(*[st.sampled_from(spec[1])] * spec[0]),
                          min_size=spec[0], max_size=spec[0]))


def test_unit_steps_match_permutation_sums(monkeypatch):
    taken = _count_unit_steps(monkeypatch)

    @settings(max_examples=300, deadline=None)
    @given(UNIT_ENTRY_MATRICES)
    # Swept from the last column, each leaves the unit phase at once, led
    # by 2 and 3, and the Bareiss loop pivots on the 2.  Then, on a row the
    # first step left alone: piv 1 with f 1, then with f -1; piv -1 with
    # f -1; and a -2 pivot in a single-hit column that leaves the next
    # pivot row to be negated.
    @example([(0, 1, 2), (0, 2, 3), (1, 1, 0)])
    @example([(0, 1, 2), (0, 2, 3), (1, -1, 0)])
    @example([(0, 1, 2), (0, 1, 3), (1, -1, 0)])
    @example([(0, 0, 0, 2), (0, 1, 0, 3), (0, 0, -1, 0), (1, 0, 0, 0)])
    def check(rows):
        assert det_exact(rows) == det_permsum(rows)
        assert cofactor_vector(rows[1:]) == cofactors_permsum(rows[1:])

    check()
    assert set(taken) == {"piv 1, f 1", "piv 1, f -1", "piv -1, f -1",
                          "negated pivot row", "single hit"}


@settings(max_examples=150, deadline=None)
@given(square_int_matrix())
def test_det_matches_permutation_sum(rows):
    assert det_exact(rows) == det_permsum(rows)


def cofactors_permsum(rows):
    """Independent oracle: signed first-row minors by permutation sums."""
    n = len(rows) + 1
    return tuple(
        (-1) ** j * det_permsum([r[:j] + r[j + 1:] for r in rows]) for j in range(n)
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.tuples(*[st.integers(-3, 3)] * n), min_size=n - 1, max_size=n - 1
    )
))
def test_cofactors_match_permutation_minors(rows):
    assert cofactor_vector(rows) == cofactors_permsum(rows)


@pytest.mark.parametrize("rows", [
    [(0, 1, 1, 0), (0, 0, 1, 1), (0, 1, 0, 1)],  # non-pivot column first
    [(0, 2, -1), (0, 1, 3)],
    [(1, 0, 0, 5), (0, 1, 0, 7), (0, 0, 1, 2)],  # non-pivot column last
    [(2, 1, -3), (1, 1, 1)],
    [(1, 2, 0, 3), (2, 4, 1, 1), (0, 0, 3, -2)],  # non-pivot column in between
])
def test_cofactors_at_each_non_pivot_position(rows):
    cof = cofactor_vector(rows)
    assert cof == cofactors_permsum(rows)
    assert any(cof)


@pytest.mark.parametrize("rows", [
    [(1, 2, 3, 4), (2, 4, 6, 8), (0, 1, 1, 0)],
    [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)],  # two columns without a pivot
    [(0, 0, 0), (0, 0, 0)],
])
def test_rank_deficient_rows_give_zero_cofactors(rows):
    assert cofactor_vector(rows) == (0,) * (len(rows) + 1)
    assert cofactors_permsum(rows) == (0,) * (len(rows) + 1)


def low_rank_rows(rng, n, rank):
    """n random integer rows of length n and rank at most rank: a product n x rank by rank x n."""
    left = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(n)]
    right = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rank)]
    return [tuple(sum(l * r[j] for l, r in zip(row, right)) for j in range(n)) for row in left]


def reversal_sign_cases():
    """pytest params of n x n rows, n in 1..7, in the shapes the hypothesis tests may not reach."""
    for n in range(1, 8):
        rng = random.Random(n)
        rows = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)]
        if n not in range(2, 6):  # square_int_matrix draws n = 2..5
            yield pytest.param(rows, id=f"{n}-random")
        yield pytest.param([(0, *row[1:]) for row in rows], id=f"{n}-zero first column")
        yield pytest.param([(*row[:-1], 0) for row in rows], id=f"{n}-zero last column")
        for rank in range(max(n - 2, 0), n):
            yield pytest.param(low_rank_rows(rng, n, rank), id=f"{n}-rank {rank}")


@pytest.mark.parametrize("rows", reversal_sign_cases())
def test_reversal_sign_in_every_residue_of_n_mod_4(rows):
    # Undoing the sweep's reversal of n columns negates exactly when n % 4
    # is 2 or 3; cofactor_vector sweeps n columns of n-1 rows.
    assert det_exact(rows) == det_permsum(rows)
    assert cofactor_vector(rows[1:]) == cofactors_permsum(rows[1:])


@settings(max_examples=150, deadline=None)
@given(square_int_matrix(), st.randoms(use_true_random=False))
def test_laplace_identity_any_top_row(rows, rnd):
    n = len(rows)
    cof = cofactor_vector(rows[1:])
    top = tuple(rnd.randint(-2, 2) for _ in range(n))
    assert det_exact([top, *rows[1:]]) == dot(cof, top)


# Entries around and beyond the 64-bit range, of both signs.
text_entries = st.one_of(
    st.integers(-9, 9),
    st.integers(-(2**70), 2**70),
    st.integers(2**64, 2**80).flatmap(lambda x: st.sampled_from((x, -x))),
)


@st.composite
def matrix_with_repeated_rows(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    pool = draw(st.lists(st.tuples(*[text_entries] * n), min_size=1, max_size=n))
    return [draw(st.sampled_from(pool)) for _ in range(n)]


@settings(max_examples=150, deadline=None)
@given(matrix_with_repeated_rows())
def test_to_text_formats_every_row(rows):
    m = IntMatrix(rows)
    expected = "\n".join([str(len(rows)), *(" ".join(str(x) for x in row) for row in rows)]) + "\n"
    assert m.to_text() == expected
    assert IntMatrix.from_text(expected) == m
