"""The mutant registry: edits to src/ that named tests are expected to kill.

Each entry changes one file under src/: ``old`` is an exact snippet that
occurs once in it, ``new`` replaces it, and ``killers`` are test ids, as
pytest prints them, of which at least one must fail on the mutated tree.
``tests/run_mutants.py`` applies each entry to a copy of src/ and runs its
killers; ``tests/test_mutants.py`` keeps every snippet and test id in step
with the tree.  Plain data and the standard library only, so that the
runner can load it without bindet or pytest.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    old: str
    new: str
    killers: tuple[str, ...]


CONSTRUCTION = "bindet/construction.py"
EXACT = "bindet/exact.py"
FIBK = "bindet/fibk.py"
ORACLE = "bindet/oracle.py"

MUTANTS = (
    # The unit phase of the elimination core.
    Mutant(
        "chain step with add and sub swapped", EXACT,
        "map(sub if x == y else add, a[i], a[j])",
        "map(add if x == y else sub, a[i], a[j])",
        ("tests/test_exact.py::test_unit_phase_matches_permutation_sums",
         "tests/test_exact.py::test_construction_rows_eliminate_with_unit_pivots"),
    ),
    Mutant(
        "chained row dropped from the buckets", EXACT,
        "buckets[lead].append(i)",
        "pass",
        ("tests/test_exact.py::test_unit_phase_matches_permutation_sums",
         "tests/test_exact.py::test_construction_rows_eliminate_with_unit_pivots"),
    ),
    Mutant(
        "prev at the hand-off is the last unit pivot, not 1", EXACT,
        "div = [1] * m\n    prev = 1\n",
        "div = [1] * m\n    prev = a[len(pivots) - 1][pivots[-1]] if pivots else 1\n",
        ("tests/test_exact.py::test_unit_phase_matches_permutation_sums",
         "tests/test_exact.py::TestDetExact::test_exhaustive_ternary_3x3"),
    ),
    Mutant(
        "unit pivots' signs dropped from the minor", EXACT,
        "if x < 0:\n            sign = -sign",
        "if x < 0:\n            pass",
        ("tests/test_exact.py::test_unit_phase_matches_permutation_sums",
         "tests/test_exact.py::TestDetExact::test_exhaustive_ternary_3x3"),
    ),
    Mutant(
        "row reduced by a multiple left in its old bucket", EXACT,
        "buckets[lead].append(j)",
        "b.append(j)",
        ("tests/test_exact.py::test_unit_phase_matches_permutation_sums",),
    ),
    Mutant(
        "multiple of the pivot with its sign flipped", EXACT,
        "f = a[j][c] * x",
        "f = -a[j][c] * x",
        ("tests/test_exact.py::test_unit_phase_matches_permutation_sums",),
    ),
    Mutant(
        "rows past the chain left unreduced", EXACT,
        "rest = True\n                    break",
        "break",
        ("tests/test_exact.py::test_unit_phase_matches_permutation_sums",),
    ),
    # The bit phase: 0/1 rows as (plus, minus) bitset pairs.
    Mutant(
        "bit phase: overflow test of the subtracting step dropped", EXACT,
        "if pi & nj | ni & pj:",
        "if False:",
        ("tests/test_exact.py::test_bit_phase_matches_permutation_sums",),
    ),
    Mutant(
        "bit phase: overflow test of the adding step dropped", EXACT,
        "if pi & pj | ni & nj:",
        "if False:",
        ("tests/test_exact.py::test_bit_phase_matches_permutation_sums",),
    ),
    Mutant(
        "bit phase: add and sub chosen the wrong way round", EXACT,
        "if (pi ^ pj) & bit:",
        "if not (pi ^ pj) & bit:",
        ("tests/test_exact.py::test_bit_phase_matches_permutation_sums",
         "tests/test_exact.py::test_construction_rows_eliminate_with_unit_pivots"),
    ),
    Mutant(
        "bit phase: a -1 pivot's sign dropped from the minor", EXACT,
        "if ni & bit:",
        "if False:",
        ("tests/test_exact.py::test_bit_phase_matches_permutation_sums",
         "tests/test_exact.py::TestCofactorVector::test_construction_rows_give_orthogonal_vector"),
    ),
    Mutant(
        "bit phase: the replay skips each bucket's first step", EXACT,
        "i = chain[0]\n            for j in chain[1:]:",
        "i = chain[1 % len(chain)]\n            for j in chain[2:]:",
        ("tests/test_exact.py::test_bit_phase_matches_permutation_sums",),
    ),
    Mutant(
        "bit phase: the list phase resumes one bucket row late", EXACT,
        "(buckets, order, pivots, sign, c, pos))",
        "(buckets, order, pivots, sign, c, pos + 1))",
        ("tests/test_exact.py::test_bit_phase_matches_permutation_sums",),
    ),
    Mutant(
        "bit phase: back substitution ignores the -1 entries", EXACT,
        "plus, minus = a[t]",
        "plus, minus = a[t][0], 0",
        ("tests/test_exact.py::test_bit_phase_matches_permutation_sums",
         "tests/test_exact.py::TestCofactorVector::test_construction_rows_give_orthogonal_vector"),
    ),
    Mutant(
        "bit phase: bytes() reads a row's own buffer", EXACT,
        "bytes(row) if type(row) is tuple else bytes(iter(row))",
        "bytes(row)",
        ("tests/test_exact.py::TestEntryTypes::test_numpy_array_rows_are_read_entry_by_entry",),
    ),
    # The Bareiss loop.
    Mutant(
        "negation of a pivot row disabled", EXACT,
        "if div[t] == -prev:",
        "if False:",
        ("tests/test_exact.py::test_unit_steps_match_permutation_sums",),
    ),
    Mutant(
        "+-1 branch of the row step disabled", EXACT,
        "if piv == 1 and (f == 1 or f == -1):",
        "if False:",
        ("tests/test_exact.py::test_unit_steps_match_permutation_sums",),
    ),
    Mutant(
        "top and row swapped in the pivot -1 branch", EXACT,
        "return list(map(sub, top, row)), total",
        "return list(map(sub, row, top)), total",
        ("tests/test_exact.py::test_unit_steps_match_permutation_sums",),
    ),
    Mutant(
        "top slice copied only for three or more hits", EXACT,
        "a[t][c:] if len(hit) > 1 else None",
        "a[t][c:] if len(hit) > 2 else None",
        ("tests/test_exact.py::test_unit_steps_match_permutation_sums",),
    ),
    Mutant(
        "Bareiss updates sliced from c + 1", EXACT,
        "row[c:], sums[i] = _reduce_row(row[c:],",
        "row[c + 1:], sums[i] = _reduce_row(row[c + 1:],",
        ("tests/test_exact.py::test_unit_steps_match_permutation_sums",
         "tests/test_exact.py::test_cofactors_match_permutation_minors"),
    ),
    # Binarity, subset sums and the run form of a spectrum.
    Mutant(
        "_first_non_binary finds nothing", EXACT,
        "if set().union(*rows) <= {0, 1}:",
        "if True:",
        ("tests/test_exact.py::TestIntMatrix::test_first_non_binary_is_a_row_major_scan",
         "tests/test_exact.py::TestIntMatrix::test_flags_are_checked_not_trusted"),
    ),
    Mutant(
        "widen shifts by one less", EXACT,
        "bits |= bits << min(done + 1, s - done)",
        "bits |= bits << min(done, s - done)",
        ("tests/test_exact.py::TestSubsetSums::test_widen_is_one_shift_or_per_offset",),
    ),
    Mutant(
        "d of a run is lo + s + 1", ORACLE,
        "return max(self.lo + self.s, 0) + 1",
        "return self.lo + self.s + 1",
        ("tests/test_records.py::test_a_spectrum_run_holds_no_bitset",),
    ),
    Mutant(
        "count of a run is s", ORACLE,
        "return self.s + 1 if self.rest == 1",
        "return self.s if self.rest == 1",
        ("tests/test_oracle.py::TestRunForm::test_construction_rows_are_one_run",
         "tests/test_oracle.py::TestRunForm::test_random_rows"),
    ),
    Mutant(
        "a run's last window ends one short", ORACLE,
        "end = lo + self.s + 1",
        "end = lo + self.s",
        ("tests/test_oracle.py::TestRunForm::test_construction_rows_are_one_run",
         "tests/test_oracle.py::TestRunForm::test_random_rows"),
    ),
    # The closed form of the (n, k) rows.
    Mutant(
        "binary_rows: max(i - k, 1) clip dropped", CONSTRUCTION,
        "lo = max(i - k, 1)",
        "lo = i - k",
        ("tests/test_construction.py::TestBinaryRows::test_closed_form_is_transform_times_seed",),
    ),
    Mutant(
        "binary_rows: the chain's 1 past n - k dropped", CONSTRUCTION,
        "row[i - 1 + m * k] = 1",
        "pass",
        ("tests/test_construction.py::TestBinaryRows::test_closed_form_is_transform_times_seed",),
    ),
    Mutant(
        "binary_rows: the chain stepped by k - 1", CONSTRUCTION,
        "row[i - 1:n - k:k] = [0] * m",
        "row[i - 1:n - k:k - 1] = [0] * len(row[i - 1:n - k:k - 1])",
        ("tests/test_construction.py::TestBinaryRows::test_closed_form_is_transform_times_seed",),
    ),
    # The k-step Fibonacci stream.
    Mutant(
        "window of k zeros in place of k - 1", FIBK,
        "deque([0] * (k - 1) + [1])",
        "deque([0] * k + [1])",
        ("tests/test_fibk.py::TestFibK::test_classic_prefix",
         "tests/test_fibk.py::TestFibK::test_three_step_prefix",
         "tests/test_fibk.py::TestFibK::test_prefix_matches_the_window_sum_definition"),
    ),
    Mutant(
        "fib_k skips j terms in place of j - 1", FIBK,
        "islice(_fib_terms(k), j - 1, None)",
        "islice(_fib_terms(k), j, None)",
        ("tests/test_fibk.py::TestFibK::test_second_term_is_one",
         "tests/test_fibk.py::TestFibK::test_early_terms_double",
         "tests/test_fibk.py::TestFibK::test_prefix_matches_the_window_sum_definition"),
    ),
    Mutant(
        "theorem_bound sums a fib_prefix list", FIBK,
        "return sum(islice(_fib_terms(k), n - k))",
        "return sum(fib_prefix(k, n - k))",
        ("tests/test_fibk.py::TestTheoremBound::test_holds_k_terms_not_the_prefix",),
    ),
)
