"""k-step sequences, the growth root, and the derived bounds."""

import math
import tracemalloc
from fractions import Fraction

import pytest

from bindet import (
    alpha_k,
    best_k,
    bound_table,
    corollary_bound,
    fib_closed_form,
    fib_k,
    fib_lower_bound_check,
    fib_prefix,
    theorem_bound,
)
from bindet.fibk import _alpha_bracket


class TestFibK:
    def test_classic_prefix(self):
        assert fib_prefix(2, 6) == [1, 1, 2, 3, 5, 8]

    def test_three_step_prefix(self):
        assert fib_prefix(3, 7) == [1, 1, 2, 4, 7, 13, 24]

    def test_nonpositive_index_is_zero(self):
        assert fib_k(5, 0) == 0
        assert fib_k(3, -4) == 0

    def test_second_term_is_one(self):
        # The recurrence applied from j = 2 gives F_k(2) = F_k(1) = 1.
        for k in range(2, 12):
            assert fib_k(k, 2) == 1

    def test_early_terms_double(self):
        # F_k(j) = 2^(j-2) while the window still covers every earlier term.
        for k in range(2, 10):
            for j in range(2, k + 2):
                assert fib_k(k, j) == 2 ** (j - 2)

    def test_rejects_small_k(self):
        with pytest.raises(ValueError, match="at least 2"):
            fib_k(1, 5)

    def test_prefix_matches_the_window_sum_definition(self):
        # Through every entry point that reads the k-term stream.
        for k in range(2, 17):
            vals = []
            for j in range(1, 401):
                vals.append(1 if j == 1 else sum(vals[max(0, j - 1 - k):j - 1]))
            for m in range(401):
                assert fib_prefix(k, m) == vals[:m]
                assert fib_k(k, m) == (vals[m - 1] if m else 0)
                if m >= k:
                    assert theorem_bound(m + k, k) == sum(vals[:m])


class TestTheoremBound:
    def test_10_3(self):
        assert theorem_bound(10, 3) == 52

    def test_4_2(self):
        assert theorem_bound(4, 2) == 2

    def test_boundary_n_equals_2k(self):
        for k in range(2, 8):
            assert theorem_bound(2 * k, k) == sum(fib_prefix(k, k))

    def test_rejects_n_below_2k(self):
        with pytest.raises(ValueError, match="n >= 2k"):
            theorem_bound(7, 4)

    def test_strictly_increasing_in_n(self):
        for k in (2, 3, 5):
            bounds = [theorem_bound(n, k) for n in range(2 * k, 40)]
            assert all(b < c for b, c in zip(bounds, bounds[1:]))

    def test_holds_k_terms_not_the_prefix(self):
        # Summing F_2(1..19998) as a list peaked at about 18 MiB.
        tracemalloc.start()
        try:
            theorem_bound(20000, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestAlphaK:
    def test_is_an_exact_fraction(self):
        assert isinstance(alpha_k(3), Fraction)

    def test_golden_ratio(self):
        golden = (1 + math.sqrt(5)) / 2
        assert abs(float(alpha_k(2)) - golden) < 1e-12

    def test_tribonacci_constant(self):
        assert abs(float(alpha_k(3)) - 1.839286755214161) < 1e-12

    def test_root_residual_is_tiny(self):
        for k in (2, 5, 17):
            a = alpha_k(k)
            assert abs(a - 2 + a ** (-k)) < Fraction(1, 2 ** 80)

    def test_confined_to_interval(self):
        for k in range(2, 33):
            a = alpha_k(k)
            assert 2 - Fraction(2) ** (1 - k) <= a < 2

    def test_strictly_increasing_in_k(self):
        vals = [alpha_k(k) for k in range(2, 33)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_bracket_certifies_the_root(self):
        # z - 2 + z^(-k) is negative below alpha_k and non-negative from it
        # up to 2, so the signs at the ends certify lo < alpha_k <= hi.
        for k in range(2, 201):
            lo, hi = _alpha_bracket(k, 128)
            assert lo - 2 + lo ** (-k) < 0, k
            assert hi - 2 + hi ** (-k) >= 0, k
            assert hi - lo <= Fraction(1, 2 ** max(112, k + 2)), k
            a = alpha_k(k)
            assert lo < a < hi, k
            assert 2 - Fraction(2) ** (1 - k) <= a < 2, k

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            alpha_k(1)


class TestClosedForm:
    def test_matches_recurrence(self):
        for k in range(2, 9):
            expect = fib_prefix(k, 64)
            for j in range(1, 65):
                assert fib_closed_form(k, j) == expect[j - 1], (k, j)

    def test_spot_values(self):
        assert fib_closed_form(2, 10) == 55
        assert fib_closed_form(3, 7) == 24
        assert fib_closed_form(4, 1) == 1

    def test_rejects_nonpositive_index(self):
        with pytest.raises(ValueError):
            fib_closed_form(3, 0)


class TestLowerBoundCheck:
    def test_spot_cases(self):
        assert fib_lower_bound_check(2, 8)   # 5*21 > 46.98
        assert fib_lower_bound_check(3, 8)   # 5*44 > 130.99
        assert fib_lower_bound_check(10, 20)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            fib_lower_bound_check(2, 7)


class TestCorollaryBound:
    def test_below_regime_is_zero(self):
        assert corollary_bound(1) == 0
        assert corollary_bound(8) == 0  # 256 / 1608 < 1

    def test_n_16(self):
        assert corollary_bound(16) == 20  # 65536 // 3216

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            corollary_bound(0)

    def test_dominated_by_prefix_bound_spot(self):
        for n in (8, 16, 100, 512):
            assert theorem_bound(n, n.bit_length() - 1) >= corollary_bound(n)


class TestBestK:
    def test_smallest_case(self):
        assert best_k(4) == 2

    def test_n_10_recomputed_table(self):
        # Direct evaluation over the admissible k: the classic sequence wins.
        table = {k: theorem_bound(10, k) for k in range(2, 6)}
        assert table == {2: 54, 3: 52, 4: 31, 5: 16}
        assert best_k(10) == 2

    def test_argmax_dominates_log_choice(self):
        n = 1024
        assert theorem_bound(n, best_k(n)) >= theorem_bound(n, 10)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            best_k(3)

    def test_early_stop_matches_exhaustive_scan(self):
        # best_k stops once 2^(n-k-1) cannot beat the best bound; the argmax
        # over every admissible k, ties toward smaller k, must agree.
        for n in range(4, 301):
            bounds = [theorem_bound(n, k) for k in range(2, n // 2 + 1)]
            assert best_k(n) == 2 + bounds.index(max(bounds)), n


def test_bound_table_fields():
    t = bound_table(16)
    assert t.n == 16 and t.k == best_k(16)
    assert t.theorem_bound == theorem_bound(16, t.k)
    assert t.corollary_bound == 20
    assert 1 < float(t.alpha) < 2
