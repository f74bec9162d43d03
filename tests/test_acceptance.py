"""Acceptance suite: one test per release criterion, with stated tolerances.

Every check here is exact integer equality unless a tolerance is called
out inline.  Each test prints one summary line on success so a verbose
run reads as a checklist.
"""

import math
import random
import time
from fractions import Fraction

from bindet import (
    alpha_k,
    best_k,
    binary_rows,
    cofactor_vector,
    construct_matrix,
    corollary_bound,
    det_exact,
    fib_closed_form,
    fib_prefix,
    is_orthogonal_to_all,
    orthogonal_vector,
    spectrum_exhaustive,
    theorem_bound,
    verify_laplace_identity,
)
from bindet.cli import main

GRID = [(n, k) for k in range(2, 9) for n in range(2 * k, 97)]

# Exhaustive spectra for n <= 6, frozen from oracle runs; every value set
# is the full symmetric integer interval at these sizes.  d_6 = 10 as in
# OEIS A013588.
FROZEN_SPECTRA = {
    1: tuple(range(0, 2)),
    2: tuple(range(-1, 2)),
    3: tuple(range(-2, 3)),
    4: tuple(range(-3, 4)),
    5: tuple(range(-5, 6)),
    6: tuple(range(-9, 10)),
}
FROZEN_D = {1: 2, 2: 2, 3: 3, 4: 4, 5: 6, 6: 10}


def _ok(num: int, msg: str) -> None:
    print(f"[PASS] criterion {num}: {msg}")


def test_criterion_1_exact_range_10_3():
    t0 = time.perf_counter()
    bound = theorem_bound(10, 3)
    assert bound == 52  # 1+1+2+4+7+13+24
    for a in range(-bound, bound + 1):
        cert = construct_matrix(10, a, 3)
        assert cert.target == det_exact(cert.matrix) == a
        assert cert.matrix.is_binary()
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"range sweep took {elapsed:.1f}s, limit 5s"
    _ok(1, f"all 105 targets in [-52, 52] constructed and certified ({elapsed:.2f}s)")


def test_criterion_2_scaled_sweep():
    t0 = time.perf_counter()
    rng = random.Random(0xB1BD37)
    # A separate stream picks the re-checked sample, so the targets stay put.
    sample = random.Random(0x5A3)
    sizes = (8, 12, 16, 24, 32, 48, 64)
    rechecked = 0
    for n in sizes:
        k = best_k(n)
        bound = theorem_bound(n, k)
        for _ in range(1000):
            a = rng.randint(-bound, bound)
            cert = construct_matrix(n, a, k)
            assert cert.target == a, (n, k, a)
            if sample.random() < 0.02:
                assert det_exact(cert.matrix) == a, (n, k, a)
                rechecked += 1
    elapsed = time.perf_counter() - t0
    assert rechecked >= 70, f"only {rechecked} matrices re-checked"
    assert elapsed < 120.0, f"scaled sweep took {elapsed:.1f}s, limit 120s"
    _ok(2, f"7000 random targets across n in {sizes} certified, {rechecked} "
           f"re-checked with det_exact ({elapsed:.1f}s)")


def test_criterion_3_row_and_orthogonality_grid():
    t0 = time.perf_counter()
    for n, k in GRID:
        rows = binary_rows(n, k)  # the closed form; the loop below checks its entries
        for row in rows:
            assert set(row) <= {0, 1}, (n, k)
        v = orthogonal_vector(n, k)
        assert is_orthogonal_to_all(v, rows[1:]), (n, k)
        d = det_exact(rows)
        assert d in (1, -1), (n, k, d)
        assert d == (-1 if (n - k - 1) % 2 else 1), (n, k, d)
    elapsed = time.perf_counter() - t0
    _ok(3, f"{len(GRID)} (n, k) cases: binary rows, orthogonality, "
           f"unit determinant ({elapsed:.1f}s)")


def test_criterion_4_exhaustive_oracle():
    reports = {}
    for n in range(1, 5):
        reports[n] = spectrum_exhaustive(n)
    t5 = time.perf_counter()
    reports[5] = spectrum_exhaustive(5, workers=8)
    elapsed5 = time.perf_counter() - t5
    t6 = time.perf_counter()
    reports[6] = spectrum_exhaustive(6, workers=8)
    elapsed6 = time.perf_counter() - t6

    assert elapsed5 < 300.0, f"n=5 took {elapsed5:.1f}s, limit 300s"
    assert elapsed6 < 300.0, f"n=6 took {elapsed6:.1f}s, limit 300s"
    for n in range(1, 7):
        r = reports[n]
        assert r.values == FROZEN_SPECTRA[n], n
        assert r.d == FROZEN_D[n], n
        assert r.count == len(FROZEN_SPECTRA[n]), n
        assert 0 in r.values
        if n >= 2:
            # Symmetry needs a row swap to negate, so n = 1 is exempt, and
            # with it the count inequality it implies (|D_1| = 2 < 2 d_1 - 1).
            assert all(-v in r.values for v in r.values), n
            assert r.count >= 2 * r.d - 1, n
        for k in range(2, n // 2 + 1):
            covered = set(range(0, theorem_bound(n, k) + 1))
            assert covered <= set(r.values), (n, k)
    for n in (4, 5, 6):
        assert reports[n].d > theorem_bound(n, best_k(n)), n
    _ok(4, f"spectra for n=1..6 match fixtures; d_n = "
           f"{[FROZEN_D[n] for n in range(1, 7)]}; n=5 in {elapsed5:.1f}s and "
           f"n=6 in {elapsed6:.1f}s on 8 workers")


def test_criterion_5_sequence_identities():
    for k in range(2, 9):
        expect = fib_prefix(k, 64)
        for j in range(1, 65):
            assert fib_closed_form(k, j) == expect[j - 1], (k, j)

    # alpha_2 is the golden ratio; tolerance 1e-9.
    assert abs(float(alpha_k(2)) - 1.6180339887) < 1e-9

    for k in range(2, 33):
        a = alpha_k(k)
        assert 2 - Fraction(2) ** (1 - k) <= a < 2, k

    from bindet import fib_lower_bound_check

    for k in range(2, 9):
        for n in range(8, 65):
            assert fib_lower_bound_check(k, n), (k, n)
    _ok(5, "closed form = recurrence (k 2..8, j 1..64); alpha_2 within 1e-9; "
           "alpha_k interval (k 2..32); 5 F_k(n) > alpha_k^n (k 2..8, n 8..64)")


def test_criterion_6_corollary_chain():
    for n in range(8, 513):
        k = int(math.log2(n))
        assert theorem_bound(n, k) >= corollary_bound(n), n
    _ok(6, "prefix-sum bound dominates floor(2^n/(201 n)) for every n in 8..512")


def test_criterion_7_laplace_identity_suite():
    t0 = time.perf_counter()
    rng = random.Random(0x1E37A)
    checked = 0
    while checked < 1000:
        n = rng.randint(2, 8)
        rows = [tuple(rng.randint(-1, 1) for _ in range(n)) for _ in range(n - 1)]
        if not any(cofactor_vector(rows)):
            continue
        assert verify_laplace_identity(rows, trials=3, rng=rng)
        checked += 1

    for n, k in GRID:
        rows = binary_rows(n, k)[1:]
        assert verify_laplace_identity(rows, trials=2, rng=rng), (n, k)
    elapsed = time.perf_counter() - t0
    _ok(7, f"1000 random independent row sets plus {len(GRID)} construction "
           f"cases verified ({elapsed:.1f}s)")


def test_criterion_8_cli_round_trip(tmp_path):
    rng = random.Random(0xC11)
    caught = 0
    for i in range(200):
        k = rng.choice((2, 3, 4))
        n = rng.randint(2 * k, 16)
        bound = theorem_bound(n, k)
        a = rng.randint(-bound, bound)
        path = tmp_path / f"cert_{i}.txt"
        code = main(["construct", "--n", str(n), "--k", str(k), "--det", str(a),
                     "--out", str(path), "--format", "structured"])
        assert code == 0, (n, k, a)
        assert main(["verify", str(path), "--format", "structured"]) == 0, (n, k, a)

        # One random matrix bit flip must always be caught.
        lines = path.read_text().splitlines()
        start = lines.index("matrix") + 2
        row = rng.randrange(start, start + n)
        cells = lines[row].split()
        col = rng.randrange(len(cells))
        cells[col] = "1" if cells[col] == "0" else "0"
        lines[row] = " ".join(cells)
        mutated = tmp_path / f"cert_{i}_flip.txt"
        mutated.write_text("\n".join(lines) + "\n")
        code = main(["verify", str(mutated)])
        assert code == 1, (n, k, a, code)
        caught += 1
    _ok(8, f"200 construct/verify round trips clean; {caught}/200 bit flips caught")
