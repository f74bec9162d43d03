"""The construction pipeline: seed, transform, rows, vector, subsets, certificates."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bindet import (
    ConstructionCertificate,
    ConstructionParams,
    IntMatrix,
    InternalInvariantError,
    TargetOutOfRangeError,
    best_k,
    binarizing_transform,
    binary_rows,
    construct_matrix,
    det_exact,
    fib_prefix,
    greedy_subset,
    is_orthogonal_to_all,
    orthogonal_vector,
    seed_matrix,
    theorem_bound,
    verify_certificate,
)
from bindet import construction
from bindet.cli import main as cli_main
from bindet.fibk import check_admissible

FIRST_ROW_LINE = 9  # certificate, n, k, target, subset, sign_swap, det, matrix, size


def tampered(cert, edit):
    """cert's document with edit applied to its list of lines, parsed back."""
    lines = cert.to_text().splitlines()
    edit(lines)
    return ConstructionCertificate.from_text("\n".join(lines) + "\n")


def with_line(old, new):
    """An edit that replaces the one line old with new."""
    def edit(lines):
        lines[lines.index(old)] = new
    return edit


class TestSeedMatrix:
    def test_matches_reference_10_3(self, seed_10_3):
        assert seed_matrix(10, 3).rows == seed_10_3

    def test_small_case_by_hand(self):
        # Row 3 is the first finishing row: diagonal 1 plus ones on columns
        # i-k..n-k = 1..2; the recurrence vector (1, 1, -2, -1) confirms it.
        assert seed_matrix(4, 2).rows == (
            (1, 0, 0, 0),
            (1, -1, 0, 0),
            (1, 1, 1, 0),
            (0, 1, 0, 1),
        )
        assert is_orthogonal_to_all(orthogonal_vector(4, 2), seed_matrix(4, 2).rows[1:])

    def test_ternary_lower_triangular(self):
        for n, k in ((8, 2), (9, 4), (20, 5)):
            m = seed_matrix(n, k)
            assert all(x in (-1, 0, 1) for row in m.rows for x in row)
            assert all(m.rows[i][j] == 0 for i in range(n) for j in range(i + 1, n))

    def test_determinant_closed_form(self):
        for k in range(2, 7):
            for n in range(2 * k, 2 * k + 10):
                expect = -1 if (n - k - 1) % 2 else 1
                assert det_exact(seed_matrix(n, k)) == expect

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            seed_matrix(5, 3)
        with pytest.raises(ValueError):
            seed_matrix(10, 1)


class TestBinarizingTransform:
    def test_matches_reference_10_3(self, transform_10_3):
        assert binarizing_transform(10, 3).rows == transform_10_3

    def test_unit_diagonal_and_top_row(self):
        for n, k in ((4, 2), (12, 3), (17, 5)):
            t = binarizing_transform(n, k)
            assert all(t.rows[i][i] == 1 for i in range(n))
            assert t.rows[0] == (1,) + (0,) * (n - 1)
            assert det_exact(t) == 1


class TestBinaryRows:
    def test_top_row_is_e1(self):
        for n, k in ((4, 2), (10, 3), (13, 4)):
            assert binary_rows(n, k)[0] == (1,) + (0,) * (n - 1)

    def test_last_row_is_its_own_seed_row(self):
        # For i > n - k the fold adds nothing, so r_i is the seed row.
        assert binary_rows(10, 3)[9] == (0, 0, 0, 0, 0, 0, 1, 0, 0, 1)

    def test_row_2_is_summed_seed_rows(self, seed_10_3):
        expect = tuple(
            a + b + c for a, b, c in zip(seed_10_3[1], seed_10_3[4], seed_10_3[7])
        )
        rows = binary_rows(10, 3)
        assert rows[1] == expect
        assert set(expect) <= {0, 1}

    def test_closed_form_is_transform_times_seed(self):
        cases = [(n, k) for n in range(4, 81) for k in range(2, n // 2 + 1)]
        for n, k in cases + [(128, best_k(128)), (256, best_k(256))]:
            seed = seed_matrix(n, k).rows
            product = []
            for trow in binarizing_transform(n, k).rows:
                acc = [0] * n
                for t, s in zip(trow, seed):
                    if t:
                        acc = [a + t * x for a, x in zip(acc, s)]
                product.append(tuple(acc))
            assert binary_rows(n, k) == tuple(product), (n, k)

    def test_seed_is_off_the_construct_path(self, monkeypatch, capsys):
        # A 2 in seed row 2 would reach row 2 of transform @ seed, but
        # neither binary_rows nor construct reads the seed.
        argv = ["construct", "--n", "10", "--k", "3", "--det", "5", "--format", "structured"]
        expect_rows = binary_rows(10, 3)
        assert cli_main(argv) == 0
        expect = capsys.readouterr()
        real_seed = construction.seed_matrix

        def bad_seed(n, k):
            rows = [list(r) for r in real_seed(n, k).rows]
            rows[1][0] = 2
            return IntMatrix(rows)

        monkeypatch.setattr(construction, "seed_matrix", bad_seed)
        construction._normalized_rows.cache_clear()
        try:
            assert binary_rows(10, 3) == expect_rows
            assert cli_main(argv) == 0
            assert capsys.readouterr() == expect
        finally:
            construction._normalized_rows.cache_clear()

    def test_all_entries_binary_on_a_grid(self):
        for k in range(2, 7):
            for n in range(2 * k, 41):
                for row in binary_rows(n, k):
                    assert set(row) <= {0, 1}


class TestOrthogonalVector:
    def test_reference_value(self, v_10_3):
        assert orthogonal_vector(10, 3) == v_10_3

    def test_prefix_is_k_step_sequence(self):
        for n, k in ((10, 3), (20, 4), (30, 6)):
            v = orthogonal_vector(n, k)
            assert list(v[: n - k]) == fib_prefix(k, n - k)

    def test_boundary_shape(self):
        # At n = 2k the vector is k positive entries then k negative ones.
        for k in range(2, 7):
            v = orthogonal_vector(2 * k, k)
            assert all(x > 0 for x in v[:k])
            assert all(x < 0 for x in v[k:])

    def test_orthogonal_to_seed_and_binarized_rows(self):
        for n, k in ((8, 2), (9, 4), (14, 3), (21, 5)):
            v = orthogonal_vector(n, k)
            assert is_orthogonal_to_all(v, seed_matrix(n, k).rows[1:])
            assert is_orthogonal_to_all(v, binary_rows(n, k)[1:])


class TestGreedySubset:
    WEIGHTS = (1, 1, 2, 4, 7, 13, 24)

    def test_zero_target_empty(self):
        assert greedy_subset(self.WEIGHTS, 0) == ()

    def test_full_sum_takes_everything(self):
        assert greedy_subset(self.WEIGHTS, 52) == tuple(range(7))

    def test_greedy_trace_for_20(self):
        subset = greedy_subset(self.WEIGHTS, 20)
        assert subset == (4, 5)  # 7 + 13
        assert sum(self.WEIGHTS[i] for i in subset) == 20

    def test_every_target_reachable_exhaustively(self):
        for k in (2, 3, 4):
            weights = fib_prefix(k, 20)
            total = sum(weights)
            for a in range(total + 1):
                subset = greedy_subset(weights, a)
                assert sum(weights[i] for i in subset) == a

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match=r"weights\[2\]"):
            greedy_subset((1, 1, 0, 2), 1)

    def test_rejects_bad_first_weight(self):
        with pytest.raises(ValueError, match=r"weights\[0\]"):
            greedy_subset((2, 1, 1), 1)

    def test_rejects_completeness_violation(self):
        with pytest.raises(ValueError, match=r"weights\[3\]"):
            greedy_subset((1, 1, 2, 5), 3)

    def test_rejects_target_outside_range(self):
        with pytest.raises(ValueError, match="outside"):
            greedy_subset((1, 1, 2), 5)
        with pytest.raises(ValueError, match="outside"):
            greedy_subset((1, 1, 2), -1)

    @pytest.mark.parametrize("weights", [(1, 1.7, 2), (1, 1, "2"), (1.0, 1, 2), ("1", 1, 2)])
    def test_rejects_non_integer_weights(self, weights):
        # Weights go through operator.index, as in exact: no truncation, no parsing.
        with pytest.raises(TypeError):
            greedy_subset(weights, 3)


@st.composite
def complete_sequence(draw):
    length = draw(st.integers(1, 12))
    weights = [1]
    for _ in range(length - 1):
        weights.append(draw(st.integers(1, sum(weights))))
    return weights


@settings(max_examples=200, deadline=None)
@given(complete_sequence(), st.data())
def test_greedy_subset_property(weights, data):
    target = data.draw(st.integers(0, sum(weights)))
    subset = greedy_subset(weights, target)
    assert sum(weights[i] for i in subset) == target
    assert len(set(subset)) == len(subset)


class TestConstructMatrix:
    def test_zero_target_gives_singular_matrix(self):
        cert = construct_matrix(10, 0, 3)
        assert cert.subset == ()
        assert cert.matrix.rows[0] == (0,) * 10
        assert cert.target == 0

    def test_full_bound_target(self):
        cert = construct_matrix(10, 52, 3)
        assert cert.target == 52
        assert cert.matrix.is_binary()
        assert det_exact(cert.matrix) == 52

    def test_negative_target(self):
        cert = construct_matrix(10, -17, 3)
        assert cert.target == det_exact(cert.matrix) == -17
        assert cert.sign_swap_applied
        assert cert.matrix.is_binary()

    def test_default_k_is_best(self):
        cert = construct_matrix(12, 5)
        assert cert.params.k == 3  # best_k(12)
        assert cert.target == 5

    def test_out_of_range_reports_bound(self):
        with pytest.raises(TargetOutOfRangeError, match="at most 52"):
            construct_matrix(10, 53, 3)
        with pytest.raises(TargetOutOfRangeError):
            construct_matrix(10, -53, 3)

    @pytest.mark.parametrize("n, k, message", [
        (3, None, "need n >= 4 for an admissible k, got 3"),
        (-1, None, "need n >= 4 for an admissible k, got -1"),
        (3, 2, "need n >= 2k, got n=3, k=2"),
        (9, 5, "need n >= 2k, got n=9, k=5"),
        (3, 1, "step count k must be at least 2, got 1"),
    ])
    def test_inadmissible_sizes_are_refused_with_one_message(self, n, k, message):
        with pytest.raises(ValueError) as err:
            construct_matrix(n, 1, k)
        assert str(err.value) == message
        if k is not None:
            for check in (ConstructionParams, theorem_bound, check_admissible):
                with pytest.raises(ValueError) as err:
                    check(n, k)
                assert str(err.value) == message

    def test_certificate_invariants(self):
        cert = construct_matrix(11, -30, 3)
        n, k = cert.params.n, cert.params.k
        v = orthogonal_vector(n, k)
        assert sum(v[i] for i in cert.subset) == 30
        assert cert.matrix.rows[0] == tuple(
            1 if j in set(cert.subset) else 0 for j in range(n)
        )
        assert all(i < n - k for i in cert.subset)
        assert is_orthogonal_to_all(v, cert.matrix.rows[1:])

    def test_negative_unit_determinant_branch(self):
        # n - k - 1 odd makes the raw unit-top-row determinant -1, forcing
        # the row-2/3 exchange before subset selection.
        assert det_exact(binary_rows(11, 3)) == -1
        for a in (0, 1, -1, 7, 96, -96):
            cert = construct_matrix(11, a, 3)
            assert cert.target == det_exact(cert.matrix) == a

    def test_sweep_small_case(self):
        bound = theorem_bound(8, 2)
        for a in range(-bound, bound + 1):
            assert det_exact(construct_matrix(8, a, 2).matrix) == a

    @pytest.mark.parametrize("corrupt", ["cofactor weight", "fib term", "dependent rows"])
    def test_corrupted_vector_is_never_certified(self, monkeypatch, capsys, corrupt):
        # Once per (n, k), the cofactors of rows 2..n from exact elimination
        # must begin with F_k(1..n-k).  A wrong weight on either side of that
        # comparison, or rows whose cofactors all vanish, is a broken
        # invariant (exit 3) before any target is built.
        real_cof, real_fib, real_rows = (
            construction.cofactor_vector, construction.fib_prefix, construction.binary_rows)

        def lowered(values):
            # The largest subset weight, at j = n-k-1, lowered by one: still
            # a complete sequence, so the greedy scan would use it.
            return values[:j] + type(values)([values[j] - 1]) + values[j + 1:]

        def duplicated(n, k):
            rows = real_rows(n, k)
            rows = rows[:-1] + rows[-2:-1]
            assert set(real_cof(rows[1:])) == {0}
            return rows

        try:
            for n, k in ((10, 3), (11, 3), (64, 6)):
                j = n - k - 1
                name, fake = {
                    "cofactor weight": ("cofactor_vector", lambda rows: lowered(real_cof(rows))),
                    "fib term": ("fib_prefix", lambda step, m: lowered(real_fib(step, m))),
                    "dependent rows": ("binary_rows", duplicated),
                }[corrupt]
                monkeypatch.setattr(construction, name, fake)
                construction._normalized_rows.cache_clear()
                message = f"do not begin with the k-step sequence for n={n}, k={k}"
                with pytest.raises(InternalInvariantError, match=message):
                    construct_matrix(n, 1, k)
                construction._normalized_rows.cache_clear()
                assert cli_main(["construct", "--n", str(n), "--k", str(k), "--det", "-1"]) == 3
                out, err = capsys.readouterr()
                assert out == "" and message in err
        finally:
            construction._normalized_rows.cache_clear()

    def test_a_corrupted_recurrence_changes_no_document_and_fails_verify(
            self, monkeypatch, capsys, tmp_path):
        # construct certifies by the cofactors alone, so a wrong recurrence
        # vector leaves its documents as they are; verify reads the
        # recurrence, so under the same corruption it rejects them.
        real_v = construction.orthogonal_vector

        def wrong_weight(n, k):
            v = real_v(n, k)
            j = n - k - 1
            return v[:j] + (v[j] - 1,) + v[j + 1:]

        cases = [(10, 3, 51), (11, 3, -40), (64, 6, -theorem_bound(64, 6))]
        docs = [construct_matrix(n, a, k).to_text() for n, k, a in cases]
        monkeypatch.setattr(construction, "orthogonal_vector", wrong_weight)
        construction._normalized_rows.cache_clear()
        try:
            for (n, k, a), doc in zip(cases, docs):
                assert construct_matrix(n, a, k).to_text() == doc
                path = tmp_path / f"{n}.txt"
                path.write_text(doc)
                assert cli_main(["verify", str(path)]) == 1
                out, err = capsys.readouterr()
                assert out == ""
                assert "mismatch: orthogonal vector is not orthogonal to rows 2..n" in err
        finally:
            construction._normalized_rows.cache_clear()

    @pytest.mark.parametrize("change", ["add", "drop"])
    def test_a_wrong_subset_is_never_certified(self, monkeypatch, change):
        # The certificate is v . top over the built top row, so a scan that
        # adds or drops one index cannot pass for the target.
        real_scan = construction._greedy_scan

        def wrong_scan(w, target):
            subset = real_scan(w, target)
            if change == "drop":
                return subset[1:]
            return tuple(sorted({*subset, min(set(range(len(w))) - set(subset))}))

        monkeypatch.setattr(construction, "_greedy_scan", wrong_scan)
        bound = theorem_bound(64, best_k(64))
        for n, k, a in ((10, 3, 1), (10, 3, -20), (10, 3, 51), (64, None, bound // 3),
                        (64, None, -bound // 5)):
            with pytest.raises(InternalInvariantError, match="certification failed"):
                construct_matrix(n, a, k)

    @pytest.mark.parametrize("ragged", ["short row", "long row", "missing row"])
    def test_ragged_construction_rows_are_an_internal_error(self, monkeypatch, capsys, ragged):
        # Squareness of rows 2..n is checked once per (n, k), before any
        # target is scanned; a failure is a broken invariant (exit 3).
        real_rows = construction.binary_rows

        def ragged_rows(n, k):
            rows = real_rows(n, k)
            last = {"short row": (rows[-1][:-1],), "long row": (rows[-1] + (0,),),
                    "missing row": ()}[ragged]
            return rows[:-1] + last

        scanned = []
        monkeypatch.setattr(construction, "binary_rows", ragged_rows)
        monkeypatch.setattr(construction, "_greedy_scan",
                            lambda w, target: scanned.append(target))
        construction._normalized_rows.cache_clear()
        try:
            with pytest.raises(InternalInvariantError, match="not n-1 rows of length n"):
                construct_matrix(10, 5, 3)
            construction._normalized_rows.cache_clear()
            assert cli_main(["construct", "--n", "12", "--det", "-7"]) == 3
            out, err = capsys.readouterr()
            assert out == ""
            assert "not n-1 rows of length n for n=12" in err
            assert scanned == []
        finally:
            construction._normalized_rows.cache_clear()


@st.composite
def admissible_target(draw):
    k = draw(st.integers(2, 8))
    n = draw(st.integers(2 * k, 80))
    bound = theorem_bound(n, k)
    a = draw(st.integers(-bound, bound))
    return n, k, a


@settings(max_examples=150, deadline=None)
@given(admissible_target())
def test_dot_product_certificate_matches_full_determinant(case):
    n, k, a = case
    cert = construct_matrix(n, a, k)
    assert cert.target == det_exact(cert.matrix) == a
    assert cert.sign_swap_applied == (a < 0)


@pytest.mark.parametrize("n", [*range(4, 41), 64, 96, 128])
def test_constructed_matrix_needs_no_revalidation(n):
    # construct_matrix builds its IntMatrix without the public constructor's
    # per-entry conversion; the result must be what that constructor makes.
    rng = random.Random(n)
    best = best_k(n)
    for k in sorted({best, 2 if best != 2 else n // 2}):
        bound = theorem_bound(n, k)
        targets = {0, 1, -1, bound, -bound, *(rng.randint(-bound, bound) for _ in range(3))}
        for target in sorted(targets):
            cert = construct_matrix(n, target, k)
            rows = cert.matrix.rows
            assert cert.matrix == IntMatrix(rows)
            assert type(rows) is tuple and len(rows) == n
            for row in rows:
                assert type(row) is tuple and len(row) == n
                assert all(type(x) is int for x in row)
            assert verify_certificate(cert) == []


# SHA-256 of the certificate and of the bare matrix text of
# construct_matrix(128, t) for t in 0, 1, -1 and +-theorem_bound(128, best_k(128)).
FROZEN_128 = {
    0: ("354ca34655078ba2683944f4a8eb892de3665c89730ee9d25bdb20019499cafb",
        "8dc1dd06f5a0a8becafd85f95151f96acf0b7ea87fec853d6707835c662e73f5"),
    1: ("3621daa436c3ff170ba3f6c895b1846993fdea902c8329346c4290b747ecc8c3",
        "2b9e0ffad261f698071a575eb3d21aa6a3c6165bb10b352a64de7dd4332a1f89"),
    -1: ("338e9a2401d82807ee12955c0981042fb752ecaa30153d50bef96ff57f9b2ff6",
         "d7da8af86653c35daaaab1123ad67d30e10135e88ae770ad92a9698014505441"),
    "bound": ("3d0621994fa5afca1515bfb077cc5bf4a7d8dfcc4e6b813ceb91aa86f51bab01",
              "170a23c617faf55a170904b8c3ac5baecab3ef72c0618bffb92d4c873202fdcd"),
    "-bound": ("16dadfba32c29fb0e484dfd62dd93f3ad33b1fc31c9ef43d03d324b9c6995274",
               "c422d4c7e50f6c09938a8a7e9e3c952e778c02d07c78b421dfadd17f0c789d57"),
}


@pytest.mark.parametrize("which", list(FROZEN_128))
def test_n128_documents_are_frozen(which):
    bound = theorem_bound(128, best_k(128))
    target = {"bound": bound, "-bound": -bound}.get(which, which)
    construction._normalized_rows.cache_clear()
    for _ in range(2):  # lower rows rendered cold, then taken from the (n, k) cache
        cert = construct_matrix(128, target)
        digests = (hashlib.sha256(cert.to_text().encode()).hexdigest(),
                   hashlib.sha256(cert.matrix.to_text().encode()).hexdigest())
        assert digests == FROZEN_128[which]


def test_per_target_work_leaves_the_nk_cache_alone():
    # Only the first construct at an (n, k) may do the per-(n, k) work.
    construct_matrix(96, 0)
    before = construction._normalized_rows.cache_info()
    bound = theorem_bound(96, best_k(96))
    targets = (1, -1, bound, -bound, 12345, -67890)
    for target in targets:
        construct_matrix(96, target)
    after = construction._normalized_rows.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits + len(targets)


@st.composite
def any_admissible_target(draw):
    n = draw(st.integers(4, 160))
    k = draw(st.one_of(st.none(), st.integers(2, n // 2)))
    bound = theorem_bound(n, best_k(n) if k is None else k)
    a = draw(st.one_of(st.sampled_from((0, 1, -1, bound, -bound)), st.integers(-bound, bound)))
    return n, k, a


@settings(max_examples=150, deadline=None)
@given(any_admissible_target())
def test_rendered_text_matches_the_rows(case):
    # The matrix text is composed from lines rendered once per (n, k); it
    # must be what formatting the rows afresh gives, and parse back.
    n, k, a = case
    cert = construct_matrix(n, a, k)
    assert cert.matrix.to_text() == IntMatrix(cert.matrix.rows).to_text()
    assert ConstructionCertificate.from_text(cert.to_text()) == cert


def per_index_subset_line(subset):
    """The subset line as each index's own f-string writes it."""
    return "subset" + "".join(f" {i + 1}" for i in subset)


class TestSubsetLine:
    def test_labels_match_per_index_formatting_past_the_cache(self):
        # 80 sizes overflow the 64 cached label tables; the first sizes are
        # evicted and come back rebuilt.
        construction._subset_labels.cache_clear()
        sizes = [*range(4, 84), 4, 5]
        for n in sizes:
            bound = theorem_bound(n, best_k(n))
            for a in (0, 1, bound, -bound):
                cert = construct_matrix(n, a)
                text = cert.to_text()
                line = text.splitlines()[4]
                assert line == per_index_subset_line(cert.subset)
                assert (line == "subset") == (a == 0)
                assert ConstructionCertificate.from_text(text) == cert
        info = construction._subset_labels.cache_info()
        assert info.misses == len(sizes) and info.currsize == 64

    @pytest.mark.parametrize("line", [
        "subset -1", "subset 0", "subset 1 10 11", "subset 13 -2 5", "subset 100", "subset 101",
    ])
    def test_indices_outside_the_matrix_are_claims_verify_rejects(self, line):
        # The subset line is a claim about the top row; to_text writes the
        # top row's own subset, whatever the parsed document said.
        cert = construct_matrix(10, 20, 3)
        parsed = tampered(cert, with_line("subset 5 6", line))
        assert parsed == cert and parsed.to_text() == cert.to_text()
        assert verify_certificate(parsed) == [
            f"document says '{line}' but its target and matrix give 'subset 5 6'"
        ]


class TestCertificateSerialization:
    def test_round_trip(self):
        for a in (-29, 0):  # 0 writes an empty subset line
            cert = construct_matrix(10, a, 3)
            parsed = ConstructionCertificate.from_text(cert.to_text())
            assert parsed == cert
            assert verify_certificate(parsed) == []

    def test_verify_clean(self):
        cert = construct_matrix(12, 100, 4)  # bound at (12, 4) is 116
        assert verify_certificate(cert) == []

    @pytest.mark.parametrize("i", range(10))
    def test_verify_catches_flipped_bit(self, i):
        cert = construct_matrix(10, 21, 3)
        j = random.Random(i).randrange(10)

        def flip(lines):
            cells = lines[FIRST_ROW_LINE + i].split()
            cells[j] = "1" if cells[j] == "0" else "0"
            lines[FIRST_ROW_LINE + i] = " ".join(cells)

        assert verify_certificate(tampered(cert, flip))

    def test_verify_catches_wrong_det_claim(self):
        cert = construct_matrix(10, 21, 3)
        assert verify_certificate(tampered(cert, with_line("det 21", "det 22"))) == [
            "document says 'det 22' but its target and matrix give 'det 21'"
        ]

        def retarget(lines):
            with_line("target 21", "target 22")(lines)
            with_line("det 21", "det 22")(lines)

        assert verify_certificate(tampered(cert, retarget)) == [
            "subset sums to 21, expected |target| = 22",
            "target 22 but recomputed determinant 21",
        ]

    @pytest.mark.parametrize("a, old, new", [(20, "sign_swap 0", "sign_swap 1"),
                                             (-20, "sign_swap 1", "sign_swap 0")])
    def test_verify_rejects_flipped_sign_swap(self, a, old, new):
        # The swap flag does not change the matrix, so the determinant checks
        # alone cannot see it; the comparison with target < 0 must.
        parsed = tampered(construct_matrix(10, a, 3), with_line(old, new))
        assert verify_certificate(parsed) == [
            f"document says '{new}' but its target and matrix give '{old}'"
        ]

    @pytest.mark.parametrize("n, a, swaps", [
        (10, 20, ((2, 3), (4, 5))),  # rows 3<->4 and 5<->6
        (11, -30, ((1, 2), (3, 4))),  # undoes the row-2/3 exchange at odd n-k-1
        (12, 7, ((1, 3), (3, 6))),
    ])
    def test_verify_rejects_permuted_lower_rows(self, n, a, swaps):
        # An even permutation of rows 2..n keeps the determinant and the
        # orthogonality, so only the tie to the construction rows sees it.
        cert = construct_matrix(n, a, 3)

        def permute(lines):
            rows = lines[FIRST_ROW_LINE:FIRST_ROW_LINE + n]
            for i, j in swaps:
                rows[i], rows[j] = rows[j], rows[i]
            lines[FIRST_ROW_LINE:FIRST_ROW_LINE + n] = rows

        permuted = tampered(cert, permute)
        assert det_exact(permuted.matrix) == a
        assert verify_certificate(permuted) == [
            f"rows 2..n are not the construction rows for n={n}, k=3"
        ]

    @pytest.mark.parametrize("line", ["subset 5 5 6", "subset 5 6 6", "subset 6 5"])
    def test_verify_rejects_repeated_or_unsorted_subset(self, line):
        parsed = tampered(construct_matrix(10, 20, 3), with_line("subset 5 6", line))
        assert verify_certificate(parsed) == [
            f"document says '{line}' but its target and matrix give 'subset 5 6'"
        ]

    def test_claims_must_be_single_spaced(self):
        # A line is read only as to_text writes it, so extra spaces are malformed.
        with pytest.raises(ValueError, match="malformed field value"):
            tampered(construct_matrix(10, 20, 3), with_line("subset 5 6", "subset  5   6"))

    def test_from_text_rejects_sign_swap_other_than_0_or_1(self):
        text = construct_matrix(10, -20, 3).to_text()
        assert "sign_swap 1\n" in text
        with pytest.raises(ValueError, match="malformed"):
            ConstructionCertificate.from_text(text.replace("sign_swap 1\n", "sign_swap 2\n"))

    @pytest.mark.parametrize("old, new, match", [
        ("det 20\n", "det 20\nbogus 1\n", "unknown field 'bogus'"),
        ("det 20\n", "det 20\ndet 20\n", "repeats field 'det'"),
        ("n 10\n", "n 10\nn 10\n", "repeats field 'n'"),
        ("target 20\n", "target +020\n", "malformed"),
        ("target 20\n", "target 020\n", "malformed"),
        ("det 20\n", "det 2_0\n", "malformed"),
        ("n 10\n", "n +10\n", "malformed"),
        ("subset ", "subset 0", "malformed"),
        ("matrix\n10\n", "matrix\n010\n", "must start with the row count"),
        ("matrix\n10\n0", "matrix\n10\n-0", "non-integer entry in row"),
        ("k 2\n", "", "missing field 'k'"),
    ])
    def test_from_text_rejects_non_canonical_documents(self, old, new, match):
        text = construct_matrix(10, 20, 2).to_text()
        assert old in text
        with pytest.raises(ValueError, match=match):
            ConstructionCertificate.from_text(text.replace(old, new, 1))

    def test_from_text_rejects_truncated(self):
        text = construct_matrix(10, 3, 3).to_text()
        with pytest.raises(ValueError):
            ConstructionCertificate.from_text(text.replace("end", ""))
        with pytest.raises(ValueError):
            ConstructionCertificate.from_text("certificate\nn 10\n")
