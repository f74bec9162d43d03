"""Brute-force spectra and the direct identity verifiers."""

import itertools
import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bindet import _kernels, construction, oracle
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

        monkeypatch.setattr(oracle, "ThreadPoolExecutor", SerialPool)
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


def _bitmap_report(cof):
    lo = sum(c for c in cof if c < 0)
    hi = sum(c for c in cof if c > 0)
    seen = np.zeros(hi - lo + 1, dtype=np.uint8)
    _kernels.family_bitmap(np.array(cof, dtype=np.int64), lo, seen)
    return oracle.SpectrumReport(len(cof), "family", seen, lo, 0.0)


def _subset_sums(cof):
    return sorted({sum(c for c, b in zip(cof, mask) if b)
                   for mask in itertools.product((0, 1), repeat=len(cof))})


class TestReportFromBitmap:
    """values and d read off the bitmap against a plain subset-sum enumeration."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-40, 40), min_size=1, max_size=9))
    def test_random_cofactors(self, cof):
        r = _bitmap_report(cof)
        expect = _subset_sums(cof)
        assert r.values == tuple(expect)
        assert r.count == len(expect)
        assert r.d == smallest_missing_natural(expect)

    def test_every_natural_up_to_hi_is_reachable(self):
        r = _bitmap_report([1, 2, 4, -3])
        assert r.values == tuple(range(-3, 8))
        assert r.d == 8 == smallest_missing_natural(r.values)

    @pytest.mark.parametrize("cof", [[-1, -2], [0, -5, 0], [-3]])
    def test_nonpositive_cofactors(self, cof):
        r = _bitmap_report(cof)
        assert r.values == tuple(_subset_sums(cof))
        assert r.d == 1

    def test_dependent_rows(self):
        assert not any(cofactor_vector([(1, 1, 0), (1, 1, 0)]))
        r = spectrum_family([(1, 1, 0), (1, 1, 0)])
        assert r.values == (0,)
        assert r.d == 1 and r.count == 1
        assert _bitmap_report([0, 0, 0]).values == (0,)


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

    def test_row_formula_raise_is_reported(self, monkeypatch):
        # A seed that makes binary_rows leave {0, 1} is a finding in the
        # report, never an exception out of verify_construction.
        real_seed = construction.seed_matrix

        def bad_seed(n, k):
            rows = [list(r) for r in real_seed(n, k).rows]
            rows[1][0] = 2
            return IntMatrix.from_rows(rows)

        monkeypatch.setattr(construction, "seed_matrix", bad_seed)
        construction._normalized_rows.cache_clear()
        try:
            report = verify_construction(10, 3)
        finally:
            construction._normalized_rows.cache_clear()
        check = next(c for c in report.checks if c.name == "row_formula_agreement")
        assert not check.passed
        assert "out of {0,1}" in check.detail
        assert not report.all_passed

    def test_report_text(self):
        text = verify_construction(8, 2).to_text()
        assert "pass" in text and "targets swept" in text
