"""Brute-force spectra and the direct identity verifiers."""

import concurrent.futures
import io
import itertools
import os
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bindet import _kernels, oracle
from bindet.cli import main as cli_main
from bindet.construction import _lower_rows
from bindet import (
    DependentRowsError,
    EnumerationCapError,
    IntMatrix,
    best_k,
    binary_rows,
    cofactor_vector,
    det_exact,
    spectrum_exhaustive,
    spectrum_family,
    theorem_bound,
    verify_construction,
    verify_laplace_identity,
)


def smallest_missing_natural(values):
    """Independent oracle for SpectrumReport.d: the least d >= 1 absent from values."""
    present = set(values)
    d = 1
    while d in present:
        d += 1
    return d


class TestSpectrumExhaustive:
    def test_n1(self):
        r = spectrum_exhaustive(1)
        assert r.values == (0, 1)
        assert r.d == 2 and r.count == 2

    def test_n2(self):
        r = spectrum_exhaustive(2)
        assert r.values == (-1, 0, 1)
        assert r.d == 2

    def test_n3_against_direct_enumeration(self):
        # Independent route: determinant of every one of the 2^9 matrices
        # through the arbitrary-precision elimination.
        direct = set()
        for bits in itertools.product((0, 1), repeat=9):
            direct.add(det_exact([bits[0:3], bits[3:6], bits[6:9]]))
        r = spectrum_exhaustive(3)
        assert set(r.values) == direct
        assert r.values == (-2, -1, 0, 1, 2)
        assert r.d == 3

    def test_n4_frozen(self):
        r = spectrum_exhaustive(4)
        assert r.values == (-3, -2, -1, 0, 1, 2, 3)
        assert r.d == 4

    @pytest.mark.parametrize("n, largest, d", [
        (1, 1, 2), (2, 1, 2), (3, 2, 3), (4, 3, 4), (5, 5, 6), (6, 9, 10)])
    def test_published_spectra_on_one_and_two_workers(self, n, largest, d):
        # Largest |det| (OEIS A003432) and the least missing natural d_n
        # (OEIS A013588); every value between -largest and largest is reached.
        one, two = spectrum_exhaustive(n, workers=1), spectrum_exhaustive(n, workers=2)
        assert one.values == tuple(range(0 if n == 1 else -largest, largest + 1))
        assert (one.d, one.count) == (d, len(one.values))
        assert (two.seen, two.lo, two.to_text()) == (one.seen, one.lo, one.to_text())

    def test_worker_partitioning_is_deterministic(self):
        # The 85 row sets at n=4 and the 2,051 at n=5 do not split into 2,
        # 3 or 8 equal blocks; the block count is also capped by the CPU count.
        for n in (3, 4, 5):
            expect = spectrum_exhaustive(n, workers=1)
            for workers in (2, 3, 4, 8):
                r = spectrum_exhaustive(n, workers=workers)
                assert (r.values, r.d, r.count) == (expect.values, expect.d, expect.count)

    def test_worker_count_is_capped_by_cpus(self, monkeypatch):
        # A serial stand-in for the pool records the thread count it is
        # asked for, so a huge --workers value starts no threads at all.
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
        r = spectrum_exhaustive(4, workers=10**6)
        assert all(w <= (os.cpu_count() or 1) for w in asked)
        assert len(asked) == (0 if (os.cpu_count() or 1) == 1 else 1)
        expect = spectrum_exhaustive(4, workers=1)
        assert (r.values, r.d, r.count) == (expect.values, expect.d, expect.count)

    def test_shared_invariants(self):
        for n in range(2, 5):
            r = spectrum_exhaustive(n)
            assert 0 in r.values
            assert all(-v in r.values for v in r.values)
            assert r.count >= 2 * r.d - 1

    def test_cap_refuses_oversized(self):
        with pytest.raises(EnumerationCapError, match="2\\^49"):
            spectrum_exhaustive(7)

    def test_force_refuses_past_its_ceiling_before_any_work(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("enumeration work started")

        for name in ("_tables", "family_count", "exhaustive_chunk"):
            monkeypatch.setattr(_kernels, name, forbidden)
        for n in (8, 13, 40, 10**6):
            for force in (True, False):
                with pytest.raises(EnumerationCapError, match=f"n={n} .* up to n=7"):
                    spectrum_exhaustive(n, workers=2, force=force)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            spectrum_exhaustive(0)
        with pytest.raises(ValueError):
            spectrum_exhaustive(3, workers=0)

    def test_report_serialization(self):
        r = spectrum_exhaustive(2)
        text = r.to_text()
        assert "mode exhaustive" in text
        assert "values -1 0 1" in text
        assert text.endswith("end\n")
        assert "values" not in r.to_text(include_values=False)

    def test_text_without_values_leaves_the_tuple_unbuilt(self):
        r = spectrum_exhaustive(3)
        assert r.to_text(include_values=False).endswith("count 5\nd 3\nend\n")
        assert "values" not in vars(r)
        assert r.values == (-2, -1, 0, 1, 2) and "values" in vars(r)


EXHAUSTIVE_VALUES = {1: range(0, 2), 2: range(-1, 2), 3: range(-2, 3), 4: range(-3, 4)}


class TestWindowedText:
    """to_text formats the values a window of cells at a time, as one list."""

    @pytest.mark.parametrize("window", [1, 3, 7])
    def test_exhaustive(self, monkeypatch, window):
        monkeypatch.setattr(oracle, "_VALUES_WINDOW", window)
        for n, values in EXHAUSTIVE_VALUES.items():
            r = spectrum_exhaustive(n)
            text = r.to_text()
            assert "values" not in vars(r)
            assert f"\nvalues {' '.join(map(str, values))}\nend\n" in text
            assert r.values == tuple(values)

    @pytest.mark.parametrize("window", [1, 3, 7])
    def test_random_families_with_negative_lo(self, monkeypatch, window):
        monkeypatch.setattr(oracle, "_VALUES_WINDOW", window)
        for r in _reports_with_negative_lo(window):
            cells = range(r.seen.bit_length())
            expect = [c + r.lo for c in cells if r.seen >> c & 1]
            assert r.to_text().splitlines()[5] == "values " + " ".join(map(str, expect))
            assert "values" not in vars(r)


def _reports_with_negative_lo(seed):
    rng = random.Random(seed)
    reports = [_family_report(cof) for cof in ([-3, 5], [0, -5, 0], [-9, 1, 20, -2])]
    for n in (3, 5, 6, 7):
        rows = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(n - 1)]
        reports.append(spectrum_family(rows))
    assert sum(r.lo < 0 for r in reports) >= 5
    return reports


class TestStreamedDocument:
    """write puts the same bytes onto a sink as to_text, a window at a time."""

    @pytest.mark.parametrize("window", [1, 3, 7])
    def test_streamed_bytes_equal_to_text(self, monkeypatch, window):
        reports = [spectrum_exhaustive(n) for n in EXHAUSTIVE_VALUES]
        reports += _reports_with_negative_lo(window)
        expected = [(r.to_text(), r.to_text(include_values=False)) for r in reports]
        monkeypatch.setattr(oracle, "_VALUES_WINDOW", window)
        for r, (text, short) in zip(reports, expected):
            for include_values, want in ((True, text), (False, short)):
                out, echo = io.StringIO(), io.StringIO()
                r.write(out, include_values, echo=(echo,))
                assert out.getvalue() == r.to_text(include_values) == want
                assert echo.getvalue() == (want.splitlines()[5][len("values "):]
                                           if include_values else "")
            assert "values" not in vars(r)

    def test_n1_and_empty_value_lists(self):
        out = io.StringIO()
        spectrum_exhaustive(1).write(out)
        assert out.getvalue() == "spectrum\nn 1\nmode exhaustive\ncount 2\nd 2\nvalues 0 1\nend\n"
        # No cell set: the values line keeps its single space.
        empty = oracle.SpectrumReport(2, "family", -4, 0, 0)
        assert empty.to_text() == "spectrum\nn 2\nmode family\ncount 0\nd 1\nvalues \nend\n"
        out = io.StringIO()
        empty.write_values(out)
        assert out.getvalue() == "" and empty.values == ()


def _family_report(cof):
    """spectrum_family's report for fixed rows whose cofactors are cof."""
    with mock.patch.object(oracle, "cofactor_vector", lambda rows: tuple(cof)):
        return spectrum_family([()])


def _subset_sums(cof):
    return sorted({sum(c for c, b in zip(cof, mask) if b)
                   for mask in itertools.product((0, 1), repeat=len(cof))})


def _signed(big, small, positive):
    """One large weight against small ones of the other sign."""
    return [big if positive else -big] + [-c if positive else c for c in small]


COFACTOR_VECTORS = st.one_of(
    st.lists(st.integers(-40, 40), min_size=1, max_size=9),
    st.lists(st.sampled_from([0, 0, 2, -2, 3, 3, -5]), min_size=1, max_size=9),  # zeros, repeats
    st.lists(st.integers(-40, -1), min_size=1, max_size=9),  # all negative
    st.integers(-10**4, 10**4).map(lambda c: [c]),  # a single entry
    st.builds(_signed, st.integers(50, 10**4), st.lists(st.integers(1, 9), max_size=8),
              st.booleans()),
    st.builds(lambda k, sign: [sign] * k, st.integers(1, 9), st.sampled_from([1, -1])),  # full
)


class TestReportFromBitmap:
    """values, count and d read off the family bitset against a plain subset-sum enumeration."""

    @settings(max_examples=300, deadline=None)
    @given(COFACTOR_VECTORS)
    def test_random_cofactors(self, cof):
        r = _family_report(cof)
        expect = _subset_sums(cof)
        assert r.lo == sum(c for c in cof if c < 0)
        assert r.values == tuple(expect)
        assert r.count == len(expect)
        assert r.d == smallest_missing_natural(expect)

    def test_every_natural_up_to_hi_is_reachable(self):
        # Every cell is set: each value from lo to lo + size - 1 is reached,
        # so d = lo + size.
        for cof in ([1, 2, 4, -3], [1, 1, 1], [1], [5, -1, -2, -2, 1, 1, 1]):
            r = _family_report(cof)
            size = sum(map(abs, cof)) + 1
            assert (r.s, r.rest) == (size - 1, 1) and r.seen == (1 << size) - 1
            assert r.values == tuple(range(r.lo, r.lo + size))
            assert r.d == r.lo + size == smallest_missing_natural(r.values)

    @pytest.mark.parametrize("cof", [[-1, -2], [0, -5, 0], [-3]])
    def test_nonpositive_cofactors(self, cof):
        r = _family_report(cof)
        assert r.values == tuple(_subset_sums(cof))
        assert r.d == 1

    def test_dependent_rows(self):
        assert not any(cofactor_vector([(1, 1, 0), (1, 1, 0)]))
        r = spectrum_family([(1, 1, 0), (1, 1, 0)])
        assert r.values == (0,)
        assert r.d == 1 and r.count == 1
        assert _family_report([0, 0, 0]).values == (0,)


def _mask_then_shift_ors(cof):
    """The reached cells as a bitset, built as before runs: one mask over the
    complete prefix of the sorted |C|, then one shift-or per weight after it."""
    weights = sorted(abs(c) for c in cof if c)
    s = i = 0
    while i < len(weights) and weights[i] <= s + 1:
        s += weights[i]
        i += 1
    seen = (1 << (s + 1)) - 1
    for w in weights[i:]:
        seen |= seen << w
    return seen


# The benchmark's construction families past n = 20, whose documents are
# compared in full; the others past n = 20 compare all but the value list.
BENCHMARKED_FAMILIES = {(21, 4), (22, 4), (23, 3), (23, 4), (24, 4)}


class TestRunForm:
    """A run report reads the same as the bitset built the old way."""

    @staticmethod
    def _check(rows, full_text=True):
        r = spectrum_family(rows)
        cof = cofactor_vector(rows)
        seen, lo = _mask_then_shift_ors(cof), sum(c for c in cof if c < 0)
        old = oracle.SpectrumReport(r.n, "family", lo, 0, seen)
        run = seen >> (1 - lo)
        assert r.rest == 1 or r.s == 0
        assert (r.lo, r.seen, r.count) == (lo, seen, seen.bit_count())
        assert r.d == (run ^ (run + 1)).bit_length()
        assert r.to_text(include_values=False) == old.to_text(include_values=False)
        if full_text:
            assert r.to_text() == old.to_text()
        if r.n <= 18:
            assert r.values == old.values
        return r

    @pytest.mark.parametrize("n", range(4, 25))
    def test_construction_rows_are_one_run(self, n):
        for k in range(2, n // 2 + 1):
            for rows in _lower_rows(n, k):
                r = self._check(rows, n <= 20 or (n, k) in BENCHMARKED_FAMILIES)
                assert r.rest == 1

    def test_random_rows(self):
        rng = random.Random(11)
        forms = set()
        for n in range(2, 19):
            for _ in range(6):
                rows = [tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(n - 1)]
                forms.add(self._check(rows).rest == 1)
        assert forms == {True, False}


class TestSpectrumFamily:
    def test_identity_rows(self):
        rows = [(0, 1, 0), (0, 0, 1)]
        r = spectrum_family(rows)
        assert r.values == (0, 1)
        assert r.mode == "family"

    def test_construction_rows_cover_the_bound(self):
        rows = list(binary_rows(10, 3))
        if det_exact(rows) == -1:
            rows[1], rows[2] = rows[2], rows[1]
        r = spectrum_family(rows[1:])
        bound = theorem_bound(10, 3)
        assert set(range(0, bound + 1)) <= set(r.values)
        assert r.count <= 2 ** 10

    def test_matches_direct_determinants_sampled(self):
        rng = random.Random(31337)
        rows = [tuple(rng.randint(0, 1) for _ in range(8)) for _ in range(7)]
        r = spectrum_family(rows)
        seen = set()
        for _ in range(200):
            top = tuple(rng.randint(0, 1) for _ in range(8))
            seen.add(det_exact([top, *rows]))
        assert seen <= set(r.values)

    def test_small_family_exact_set(self):
        rows = [(1, 1, 0), (0, 1, 1)]
        r = spectrum_family(rows)
        expect = set()
        for top in itertools.product((0, 1), repeat=3):
            expect.add(det_exact([top, *rows]))
        assert set(r.values) == expect

    def test_rejects_oversized(self):
        rows = [(0,) * 32 for _ in range(31)]
        with pytest.raises(EnumerationCapError):
            spectrum_family(rows)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            spectrum_family([(1, 0), (0, 1)])

    def test_rejects_no_rows(self):
        with pytest.raises(ValueError, match="need at least one fixed row"):
            spectrum_family([])

    def test_cell_cap_refuses_a_small_entry_family_just_past_it(self):
        # Cofactors (2^28, 0, 0) need 2^28 + 1 cells, one more than the cap.
        rows = [(0, 1 << 14, 0), (0, 0, 1 << 14)]
        assert cofactor_vector(rows) == (1 << 28, 0, 0)
        with pytest.raises(EnumerationCapError) as err:
            spectrum_family(rows)
        assert str(err.value) == "value range exceeds the bitmap cap of 268435456 cells"

    def test_cell_cap_admits_a_family_that_fills_it(self, monkeypatch):
        # Sum |C| + 1 cells: (0, 4, 0), (0, 0, 2) has cofactors (8, 0, 0), 9 cells.
        monkeypatch.setattr(oracle, "_FAMILY_MAX_CELLS", 9)
        assert spectrum_family([(0, 4, 0), (0, 0, 2)]).values == (0, 8)
        assert spectrum_family([(0, -2, 0), (0, 0, 4)]).values == (-8, 0)
        with pytest.raises(EnumerationCapError, match="cap of 9 cells"):
            spectrum_family([(1, 4, 0), (0, 0, 2)])  # cofactors (8, -2, 0)


class TestVerifyLaplaceIdentity:
    def test_identity_rows(self):
        rows = [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
        assert verify_laplace_identity(rows, trials=20, rng=0)

    def test_construction_rows(self):
        assert verify_laplace_identity(binary_rows(10, 3)[1:], trials=100, rng=1)

    def test_random_independent_ternary_rows(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 100:
            n = rng.randint(2, 8)
            rows = [tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(n - 1)]
            from bindet import cofactor_vector

            if not any(cofactor_vector(rows)):
                continue
            assert verify_laplace_identity(rows, trials=10, rng=rng)
            checked += 1

    def test_sign_error_in_cofactors_is_caught(self, monkeypatch):
        rows = binary_rows(10, 3)[1:]
        real = oracle.cofactor_vector
        monkeypatch.setattr(oracle, "cofactor_vector", lambda r: tuple(-c for c in real(r)))
        assert not verify_laplace_identity(rows, trials=100, rng=1)

    def test_dependent_rows_is_a_distinct_outcome(self):
        with pytest.raises(DependentRowsError):
            verify_laplace_identity([(1, 1, 0), (1, 1, 0)], trials=5)

    @pytest.mark.parametrize("bad", [0.9, 1.0, "0", "1"])
    def test_rejects_non_integer_entries(self, bad):
        # Entries go through operator.index, as in exact: 0.9 is not truncated
        # to 0 and "1" is not parsed, either of which would make this hold.
        with pytest.raises(TypeError):
            verify_laplace_identity([(bad, 1, 0), (0, 0, 1)], trials=5, rng=0)


class TestVerifyConstruction:
    def test_10_3_full_sweep(self):
        report = verify_construction(10, 3)
        assert report.all_passed
        assert report.targets_swept == 105  # every target in [-52, 52]
        names = [c.name for c in report.checks]
        assert "binary_entries" in names and "target_sweep" in names

    def test_boundary_cases(self):
        for k in range(2, 7):
            report = verify_construction(2 * k, k)
            assert report.all_passed, report.to_text()

    def test_odd_size_case(self):
        report = verify_construction(9, 4)
        assert report.all_passed

    def test_sampled_sweep_above_limit(self):
        report = verify_construction(24, best_k(24), sweep_limit=64, sample=40)
        assert report.all_passed
        assert report.targets_swept == 40

    def test_a_raise_in_the_sweep_is_reported(self, monkeypatch):
        def refuse(n, target, k=None):
            raise ValueError(f"no matrix for {target}")

        monkeypatch.setattr(oracle, "construct_matrix", refuse)
        report = verify_construction(10, 3)
        failed = {c.name: c.detail for c in report.checks if not c.passed}
        assert failed == {"target_sweep": "target -52: no matrix for -52"}
        assert report.targets_swept == 0 and not report.all_passed

    def test_row_formula_disagreement_is_reported(self, monkeypatch):
        # binary_rows is compared with the product of the transform and the
        # seed; rows that are still binary but differ must fail only that check.
        def swapped_rows(n, k):
            rows = binary_rows(n, k)
            return (rows[0], rows[2], rows[1]) + rows[3:]

        monkeypatch.setattr(oracle, "binary_rows", swapped_rows)
        report = verify_construction(10, 3)
        failed = {c.name: c.detail for c in report.checks if not c.passed}
        assert failed == {
            "row_formula_agreement": "row-sum formula disagrees with the matrix product"
        }

    def test_non_binary_seed_is_reported(self, monkeypatch, capsys):
        # A 2 in seed row 2 reaches row 2 of transform @ seed, which the
        # closed form of binary_rows does not follow: both are findings in
        # the report, never an exception out of verify_construction.
        real_seed = oracle.seed_matrix

        def bad_seed(n, k):
            rows = [list(r) for r in real_seed(n, k).rows]
            rows[1][0] = 2
            return IntMatrix(rows)

        monkeypatch.setattr(oracle, "seed_matrix", bad_seed)
        report = verify_construction(10, 3)
        failed = {c.name: c.detail for c in report.checks if not c.passed}
        assert failed["binary_entries"] == "entry (2, 1) = 2"
        assert failed["row_formula_agreement"] == (
            "row-sum formula disagrees with the matrix product")
        assert cli_main(["selftest", "--n-max", "10", "--k-max", "3"]) == 3
        assert capsys.readouterr().out.endswith("selftest: 0/12 cases passed\n")

    @pytest.mark.parametrize("changes, detail", [
        ([(0, 0, 2)], "entry (1, 1) = 2"),  # a weight, not a selection
        ([(6, 0, -1), (3, 1, 1)], "entry (4, 1) = 2"),  # the first row in order
        ([(4, 6, 1)], "entry (5, 4) = 2"),  # the first column of its row
    ])
    def test_binary_entries_names_the_first_bad_product_entry(self, monkeypatch, changes,
                                                              detail):
        real = oracle.binarizing_transform

        def bad_transform(n, k):
            rows = [list(r) for r in real(n, k).rows]
            for i, j, x in changes:
                rows[i][j] = x
            return IntMatrix(rows)

        monkeypatch.setattr(oracle, "binarizing_transform", bad_transform)
        report = verify_construction(10, 3)
        failed = {c.name: c.detail for c in report.checks if not c.passed}
        assert failed["binary_entries"] == detail
        assert failed["row_formula_agreement"] == (
            "row-sum formula disagrees with the matrix product")
        assert f"  FAIL binary_entries ({detail})\n" in report.to_text()

    def test_report_text(self):
        text = verify_construction(8, 2).to_text()
        assert "pass" in text and "targets swept" in text
