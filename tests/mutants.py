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


EXACT = "bindet/exact.py"
FIBK = "bindet/fibk.py"

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
