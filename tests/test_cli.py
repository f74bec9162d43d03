"""CLI behavior: round trips, exit statuses, output stability."""

import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bindet
from bindet import construct_matrix, fib_prefix
from bindet.cli import main

# The alpha line of `bound --n 2k --k k --format structured` for k = 2..125,
# frozen from the release that printed alpha with mpmath.nstr(alpha_k, 30).
ALPHA_FIXTURE = Path(__file__).parent / "data" / "bound_alpha.txt"
SRC = Path(bindet.__file__).resolve().parents[1]
# Python's int-to-str digit limit (4,300 by default) exists from 3.10.7 on.
needs_digit_limit = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                       reason="no int-to-str digit limit")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_process(*args, timeout=60):
    """Run a fresh interpreter with src/ on the import path."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, env=env)


# Genuine documents, each with a last row that starts with 0 and ends with 1.
GENUINE = {
    "certificate": ("verify", construct_matrix(5, 2, 2).to_text(), "malformed certificate: "),
    "matrix": ("verify", "2\n2 -1\n0 1\n", "malformed matrix: "),
    "rows": ("spectrum", "2\n0 1 0\n0 0 1\n", "malformed rows file: "),
}
NON_INTEGER = "non-integer entry in row"
# Each defect rewrites the last row of a genuine document.
ROW_DEFECTS = {
    "nbsp": (lambda row: row.replace(" ", "\u00a0", 1), NON_INTEGER),
    "line-separator": (lambda row: row + "\u2028", NON_INTEGER),
    "arabic-indic-digit": (lambda row: row[:-1] + "\u0661", NON_INTEGER),
    "underscore": (lambda row: row + "_0", NON_INTEGER),
    "plus": (lambda row: row[:-1] + "+1", NON_INTEGER),
    "leading-zero": (lambda row: row[:-1] + "01", NON_INTEGER),
    "minus-zero": (lambda row: "-" + row, NON_INTEGER),
    "unit-separator": (lambda row: row.replace(" ", "\x1f", 1), NON_INTEGER),
    "tab": (lambda row: row.replace(" ", "\t", 1), NON_INTEGER),
    "trailing-space": (lambda row: row + " ", NON_INTEGER),
    "blank-line": (lambda row: row + "\n", "expected {m} rows, found {m1}"),
}
TEXT_DEFECTS = {
    "no-final-newline": (lambda text: text[:-1], "text does not end with a newline"),
    "bom": (lambda text: "\ufeff" + text, "text must start with the row count"),
}
# A certificate's last line is its terminator, and a BOM hides its header, so
# that the file is read as a matrix.
CERTIFICATE_TEXT_DEFECTS = {
    "no-final-newline": "malformed certificate: certificate is not terminated with 'end'",
    "bom": "malformed matrix: text must start with the row count",
}


def _miswritten():
    for kind, (command, text, prefix) in GENUINE.items():
        lines = text.split("\n")[:-1]
        last = len(lines) - (2 if kind == "certificate" else 1)  # before "end"
        m = int(lines[lines.index("matrix") + 1] if kind == "certificate" else lines[0])
        for name, (edit, message) in ROW_DEFECTS.items():
            edited = [*lines[:last], edit(lines[last]), *lines[last + 1:]]
            message = message.format(m=m, m1=m + 1)
            yield f"{kind}-{name}", (command, "\n".join(edited) + "\n", prefix + message)
        for name, (edit, message) in TEXT_DEFECTS.items():
            if kind == "certificate":
                prefix, message = "", CERTIFICATE_TEXT_DEFECTS[name]
            yield f"{kind}-{name}", (command, edit(text), prefix + message)


MISWRITTEN = list(_miswritten())


class TestConstruct:
    def test_emits_certificate(self, capsys):
        code, out, _ = run(capsys, "construct", "--n", "10", "--k", "3", "--det", "52",
                           "--format", "structured")
        assert code == 0
        assert out.startswith("certificate\n")
        assert "target 52" in out and "det 52" in out

    def test_zero_target(self, capsys):
        code, out, _ = run(capsys, "construct", "--n", "10", "--det", "0",
                           "--format", "structured")
        assert code == 0
        assert "det 0" in out

    def test_out_of_range_names_bound(self, capsys):
        code, _, err = run(capsys, "construct", "--n", "10", "--k", "3", "--det", "53")
        assert code == 1
        assert "52" in err and "n=10" in err and "k=3" in err

    def test_matrix_emission(self, capsys):
        code, out, _ = run(capsys, "construct", "--n", "8", "--det", "5",
                           "--emit", "matrix", "--format", "structured")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "8" and len(lines) == 9

    def test_structured_output_is_stable(self, capsys):
        args = ("construct", "--n", "12", "--det", "-37", "--format", "structured")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_writes_file(self, capsys, tmp_path):
        path = tmp_path / "cert.txt"
        code, _, _ = run(capsys, "construct", "--n", "10", "--det", "7",
                         "--out", str(path), "--format", "structured")
        assert code == 0
        assert path.read_text().startswith("certificate\n")


class TestVerify:
    def make_cert(self, capsys, tmp_path, *extra):
        path = tmp_path / "cert.txt"
        code, _, _ = run(capsys, "construct", "--n", "10", "--k", "3", "--det", "21",
                         "--out", str(path), "--format", "structured", *extra)
        assert code == 0
        return path

    def test_round_trip(self, capsys, tmp_path):
        path = self.make_cert(capsys, tmp_path)
        code, out, _ = run(capsys, "verify", str(path), "--format", "structured")
        assert code == 0
        assert "status ok" in out and "det 21" in out

    def test_bit_flip_is_caught(self, capsys, tmp_path):
        path = self.make_cert(capsys, tmp_path)
        lines = path.read_text().splitlines()
        # Flip one 0/1 entry inside the matrix block (skip the size line).
        start = lines.index("matrix") + 2
        rng = random.Random(0)
        row = rng.randrange(start, start + 10)
        cells = lines[row].split()
        col = rng.randrange(len(cells))
        cells[col] = "1" if cells[col] == "0" else "0"
        lines[row] = " ".join(cells)
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 1
        assert "mismatch" in err

    def test_flipped_sign_swap_is_caught(self, capsys, tmp_path):
        path = tmp_path / "cert.txt"
        code, _, _ = run(capsys, "construct", "--n", "10", "--det", "20",
                         "--out", str(path), "--format", "structured")
        assert code == 0
        text = path.read_text()
        assert "sign_swap 0\n" in text
        path.write_text(text.replace("sign_swap 0\n", "sign_swap 1\n"))
        code, out, err = run(capsys, "verify", str(path), "--format", "structured")
        assert code == 1
        assert out == ""
        assert "mismatch" in err and "sign_swap" in err

    def test_permuted_lower_rows_are_caught(self, capsys, tmp_path):
        # Swapping matrix rows 3<->4 and 5<->6 keeps the determinant and the
        # orthogonality, but the construction never writes those rows.
        path = tmp_path / "cert.txt"
        code, _, _ = run(capsys, "construct", "--n", "10", "--det", "20",
                         "--out", str(path), "--format", "structured")
        assert code == 0
        lines = path.read_text().splitlines()
        row = lines.index("matrix") + 1  # lines[row + i] is matrix row i
        for i, j in ((3, 4), (5, 6)):
            lines[row + i], lines[row + j] = lines[row + j], lines[row + i]
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run(capsys, "verify", str(path), "--format", "structured")
        assert code == 1
        assert out == ""
        assert "mismatch: rows 2..n are not the construction rows" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("old, new", [
        ("det 20\n", "det 20\nbogus 1\n"),
        ("det 20\n", "det 20\ndet 20\n"),
        ("target 20\n", "target +020\n"),
        ("target 20\n", "target 20\ntarget 20\n"),
    ])
    def test_non_canonical_certificate_is_rejected(self, capsys, tmp_path, old, new):
        path = tmp_path / "cert.txt"
        code, _, _ = run(capsys, "construct", "--n", "10", "--det", "20",
                         "--out", str(path), "--format", "structured")
        assert code == 0
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        code, out, err = run(capsys, "verify", str(path), "--format", "structured")
        assert code == 1
        assert out == ""
        assert "malformed certificate" in err and "Traceback" not in err

    def test_matrix_file_prints_determinant(self, capsys, tmp_path):
        path = tmp_path / "matrix.txt"
        code, _, _ = run(capsys, "construct", "--n", "9", "--det", "-4",
                         "--emit", "matrix", "--out", str(path), "--format", "structured")
        assert code == 0
        code, out, _ = run(capsys, "verify", str(path), "--format", "structured")
        assert code == 0
        assert "det -4" in out
        # Reading the file in text mode turns CRLF line ends into "\n".
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert run(capsys, "verify", str(path), "--format", "structured") == (0, out, "")

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("certificate\nn ten\nmatrix\n1\n1\nend\n")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 1
        assert "malformed" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", str(tmp_path / "nope.txt"))
        assert code == 1


class TestBound:
    def test_structured(self, capsys):
        code, out, _ = run(capsys, "bound", "--n", "10", "--k", "3",
                           "--format", "structured")
        assert code == 0
        assert "theorem_bound 52" in out

    def test_includes_corollary(self, capsys):
        code, out, _ = run(capsys, "bound", "--n", "16", "--format", "structured")
        assert code == 0
        assert "corollary_bound 20" in out

    def test_small_n(self, capsys):
        code, out, _ = run(capsys, "bound", "--n", "4", "--format", "structured")
        assert code == 0
        assert "theorem_bound 2" in out and "corollary_bound 0" in out

    def test_alpha_digits_match_frozen_fixture(self, capsys):
        frozen = [line.split(" ") for line in ALPHA_FIXTURE.read_text().splitlines()
                  if not line.startswith("#")]
        assert [int(k) for k, _ in frozen] == list(range(2, 126))
        for k, alpha in frozen:
            code, out, _ = run(capsys, "bound", "--n", str(2 * int(k)), "--k", k,
                               "--format", "structured")
            assert code == 0
            assert f"\nalpha {alpha}\n" in out, k

    @pytest.mark.parametrize("n, k", [(252, 126), (400, 200)])
    def test_large_k_returns(self, n, k):
        # The growth root is bisected to 2^-(k+2) here, past any fixed precision.
        proc = run_process("-m", "bindet.cli", "bound", "--n", str(n), "--k", str(k),
                           "--format", "structured")
        assert proc.returncode == 0, proc.stderr
        assert "\nalpha 2.0\n" in proc.stdout

    @needs_digit_limit
    def test_prints_bounds_past_the_digit_limit(self, capsys):
        # theorem_bound at n = 20000 has over 5,000 digits, past Python's
        # default int-to-str limit of 4,300.
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "bound", "--n", "20000", "--format", "structured")
        assert code == 0, err
        assert sys.get_int_max_str_digits() == limit
        fields = dict(line.split(" ", 1) for line in out.splitlines()[1:-1])
        n, k = int(fields["n"]), int(fields["k"])
        expected = sum(fib_prefix(k, n - k))
        assert len(fields["theorem_bound"]) > 4300
        sys.set_int_max_str_digits(0)
        try:
            assert int(fields["theorem_bound"]) == expected
            assert int(fields["corollary_bound"]) == (1 << n) // (201 * n)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_pretty_bound_past_the_digit_limit(self, capsys):
        code, out, err = run(capsys, "bound", "--n", "14300")
        assert code == 0, err
        assert len(out.splitlines()) == 5 and err == ""

    @needs_digit_limit
    def test_parsing_keeps_the_digit_limit(self, capsys, tmp_path):
        # Formatting lifts the limit for bindet's own integers only: a
        # 5,000-digit det field in a certificate is still refused cleanly,
        # also after a bound run in the same process.
        assert run(capsys, "bound", "--n", "20000", "--format", "structured")[0] == 0
        _, text, _ = run(capsys, "construct", "--n", "10", "--det", "7", "--format", "structured")
        path = tmp_path / "cert.txt"
        path.write_text(text.replace("\ndet 7\n", "\ndet " + "9" * 5000 + "\n"))
        code, out, err = run(capsys, "verify", str(path))
        assert code == 1 and out == ""
        assert err.startswith("malformed certificate:") and "Traceback" not in err


class TestFib:
    def test_values(self, capsys):
        code, out, _ = run(capsys, "fib", "--k", "3", "--count", "7",
                           "--format", "structured")
        assert code == 0
        assert "values 1 1 2 4 7 13 24" in out

    def test_rejects_bad_count(self, capsys):
        code, _, err = run(capsys, "fib", "--k", "3", "--count", "0")
        assert code == 1

    @needs_digit_limit
    def test_values_past_the_digit_limit(self, capsys):
        # F_2(25000) has 5,225 digits.
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "fib", "--k", "2", "--count", "25000")
        assert code == 0, err
        assert sys.get_int_max_str_digits() == limit
        assert len(out.split()[-1]) == 5225

    def test_count_past_the_digit_cap_is_refused(self, capsys):
        # The values would run to about 1.35e12 digits; the refusal comes
        # before any of them is built.
        t0 = time.perf_counter()
        code, out, err = run(capsys, "fib", "--k", "2", "--count", "3000000")
        assert time.perf_counter() - t0 < 1
        assert code == 1 and out == ""
        assert err == ("error: fib values at count 3000000 may reach 1354636645365 digits; "
                       "cap is 100000000 digits\n")


class TestSpectrum:
    def test_exhaustive_n2(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--n", "2", "--format", "structured")
        assert code == 0
        assert "values -1 0 1" in out and "d 2" in out

    def test_cap_is_enforced(self, capsys):
        code, _, err = run(capsys, "spectrum", "--n", "7")
        assert code == 1
        assert "force" in err

    @pytest.mark.parametrize("argv", [
        ("--n", "8", "--force"), ("--n", "13", "--force", "--workers", "2"), ("--n", "40"),
    ])
    def test_force_has_a_hard_ceiling(self, capsys, argv):
        # n = 8 would mean 1.6e10 row sets, n = 13 a 12 GB bitmap; n = 40
        # once overflowed a float while formatting the refusal.
        t0 = time.perf_counter()
        code, out, err = run(capsys, "spectrum", *argv)
        assert time.perf_counter() - t0 < 1
        assert code == 1 and out == ""
        assert err == (f"error: exhaustive enumeration at n={argv[1]} means "
                       f"2^{int(argv[1]) ** 2} matrices; cap is n=6, pass force to "
                       "override up to n=7\n")

    def test_family_from_rows_file(self, capsys, tmp_path):
        path = tmp_path / "rows.txt"
        path.write_text("2\n0 1 0\n0 0 1\n")
        code, out, _ = run(capsys, "spectrum", "--rows", str(path),
                           "--format", "structured")
        assert code == 0
        assert "mode family" in out and "values 0 1" in out

    def test_family_past_the_digit_limit_hits_the_cell_cap(self, capsys, tmp_path):
        # Cofactors of 4,000-digit entries run to 8,000 digits: the refusal
        # names the cap and formats none of them.
        big = "9" * 4000
        path = tmp_path / "rows.txt"
        path.write_text(f"2\n{big} 1 0\n0 {big} 1\n")
        code, out, err = run(capsys, "spectrum", "--rows", str(path))
        assert code == 1 and out == ""
        assert err == "error: value range exceeds the bitmap cap of 268435456 cells\n"

    def test_malformed_rows_file(self, capsys, tmp_path):
        path = tmp_path / "rows.txt"
        path.write_text("2\n0 1 0\n")
        code, _, err = run(capsys, "spectrum", "--rows", str(path))
        assert code == 1
        assert "malformed rows file" in err

    @pytest.mark.parametrize("command, text, prefix", [
        ("spectrum", "2\n0 1 x\n0 0 1\n", "malformed rows file: non-integer"),
        ("spectrum", "2\n0 1 0\n0 0 1\n1 1 1\n", "malformed rows file: expected 2 rows"),
        ("spectrum", "2\n0 1\n0 0 1\n", "malformed rows file: expected 3 entries"),
        ("verify", "2\n0 x\n1 0\n", "malformed matrix: non-integer"),
        ("verify", "2\n0 1\n", "malformed matrix: expected 2 rows"),
        ("verify", "2\n0 1 1\n1 0\n", "malformed matrix: expected 2 entries"),
        *(case for _, case in MISWRITTEN),
    ], ids=["rows-token", "rows-count", "rows-width",
            "matrix-token", "matrix-count", "matrix-width", *(i for i, _ in MISWRITTEN)])
    def test_malformed_rows_and_matrix_files(self, capsys, tmp_path, command, text, prefix):
        # Rows files, matrix files and certificates share one reader; each
        # reports the defect.
        path = tmp_path / "rows.txt"
        path.write_text(text)
        argv = ("--rows", str(path)) if command == "spectrum" else (str(path),)
        code, out, err = run(capsys, command, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(prefix) and "Traceback" not in err

    @pytest.mark.parametrize("source", ["n", "rows"])
    def test_pretty_values_line_matches_written_document(self, capsys, tmp_path, source):
        if source == "n":
            argv = ("--n", "4")
        else:
            path = tmp_path / "rows.txt"
            path.write_text("3\n1 0 1 1\n0 1 1 0\n1 1 0 1\n")
            argv = ("--rows", str(path))
        out_path = tmp_path / "spectrum.txt"
        code, out, _ = run(capsys, "spectrum", *argv, "--out", str(out_path))
        assert code == 0
        printed = [line for line in out.splitlines() if line.startswith("values:")]
        written = [line for line in out_path.read_text().splitlines()
                   if line.startswith("values ")]
        assert len(printed) == len(written) == 1
        assert printed[0].removeprefix("values: ") == written[0].removeprefix("values ")
        assert out.endswith(f"wrote {out_path}\n")

    def test_no_values_flag(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--n", "2", "--no-values",
                           "--format", "structured")
        assert code == 0
        assert "values" not in out

    def test_pretty_summary_is_timed_by_the_cli(self, capsys, monkeypatch):
        # The report holds no timing: the CLI reads its clock around the call.
        monkeypatch.setattr(bindet.cli, "perf_counter", itertools.count(0, 1.25).__next__)
        code, out, _ = run(capsys, "spectrum", "--n", "3")
        assert code == 0
        assert out.splitlines() == [
            "exhaustive spectrum at n=3: 5 values, smallest missing natural 3 (1.25s)",
            "values: -2 -1 0 1 2",
        ]


class TestSelftest:
    def test_small_grid_passes(self, capsys):
        code, out, _ = run(capsys, "selftest", "--n-max", "8", "--k-max", "3",
                           "--sweep-limit", "64", "--sample", "20",
                           "--format", "structured")
        assert code == 0
        assert "selftest:" in out and "pass n=8" in out

    def test_pretty_pass_lines_are_timed_by_the_cli(self, capsys, monkeypatch):
        monkeypatch.setattr(bindet.cli, "perf_counter", itertools.count(0, 0.5).__next__)
        code, out, _ = run(capsys, "selftest", "--n-max", "5", "--k-max", "2",
                           "--sweep-limit", "4")
        assert code == 0
        assert out.splitlines() == ["pass n=4 k=2 (5 targets, 0.50s)",
                                    "pass n=5 k=2 (9 targets, 0.50s)",
                                    "selftest: 2/2 cases passed"]

    @pytest.mark.parametrize("argv, swept", [
        (("--n-max", "5", "--sweep-limit", "4"), {4: 5, 5: 9}),
        (("--n-max", "4", "--sweep-limit", "0", "--sample", "100"), {4: 5}),
        (("--n-max", "5", "--sweep-limit", "4", "--sample", "9"), {4: 5, 5: 9}),
    ])
    def test_range_smaller_than_the_sample_is_swept_whole(self, argv, swept):
        # Ranges of 2 * bound + 1 = 5 and 9 targets, above the sweep limit
        # but below the sample size: sampling them could never finish.  A
        # subprocess, so that a hang fails the test instead of stalling it.
        proc = run_process("-m", "bindet.cli", "selftest", "--k-max", "2", *argv,
                           "--format", "structured", timeout=30)
        assert proc.returncode == 0, proc.stderr
        expected = [f"pass n={n} k=2 targets {t}" for n, t in swept.items()]
        assert proc.stdout.splitlines() == expected + [f"selftest: {len(swept)}/{len(swept)} cases passed"]


@pytest.mark.parametrize("argv", [
    ("construct", "--n", "10", "--det", "7", "--out", "{missing}/cert.txt"),
    ("spectrum", "--n", "2", "--out", "{missing}/spectrum.txt"),
    ("verify", "{missing}/cert.txt"),
], ids=["construct-out", "spectrum-out", "verify-path"])
def test_unusable_path_exits_1(capsys, tmp_path, argv):
    missing = tmp_path / "no-such-dir"
    code, _, err = run(capsys, *(a.format(missing=missing) for a in argv))
    assert code == 1
    assert err.startswith("error: ") and str(missing) in err
    assert "Traceback" not in err


def test_cli_runs_without_mpmath(tmp_path):
    cert = tmp_path / "cert.txt"
    script = (
        "import sys\n"
        "from bindet.cli import main\n"
        f"assert main(['construct', '--n', '12', '--det', '5', '--out', {str(cert)!r}]) == 0\n"
        f"assert main(['verify', {str(cert)!r}]) == 0\n"
        "assert main(['bound', '--n', '40']) == 0\n"
        "print('mpmath' in sys.modules)\n"
    )
    proc = run_process("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def test_construct_verify_and_bound_load_no_numpy(tmp_path):
    # construct and verify also import none of dataclasses, inspect and
    # fractions, which cost more than the rest of `import bindet.cli`; bound
    # may load fractions, for the growth root.  Family spectra and selftest
    # load the oracle but neither numpy, the exhaustive kernel nor the
    # thread pool.  Modules the interpreter had loaded before bindet do not
    # count.
    cert, matrix, rows = tmp_path / "cert.txt", tmp_path / "matrix.txt", tmp_path / "rows.txt"
    rows.write_text("3\n1 0 1 1\n0 1 1 0\n1 1 0 1\n")
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from bindet.cli import main\n"
        f"assert main(['construct', '--n', '64', '--det', '-12345', '--out', {str(cert)!r}]) == 0\n"
        f"assert main(['construct', '--n', '64', '--det', '-12345', '--emit', 'matrix',"
        f" '--out', {str(matrix)!r}]) == 0\n"
        f"assert main(['verify', {str(cert)!r}]) == 0\n"
        f"assert main(['verify', {str(matrix)!r}]) == 0\n"
        "print('loaded', sorted({'dataclasses', 'inspect', 'fractions'} & (set(sys.modules) - before)))\n"
        "assert main(['bound', '--n', '64']) == 0\n"
        "print(sorted({'numpy', 'mpmath', 'bindet.oracle', 'bindet._kernels'} & set(sys.modules)))\n"
        f"assert main(['spectrum', '--rows', {str(rows)!r}]) == 0\n"
        "assert main(['selftest', '--n-max', '8', '--k-max', '3', '--sweep-limit', '64',"
        " '--sample', '20']) == 0\n"
        "print(sorted({'numpy', 'mpmath', 'bindet.oracle', 'bindet._kernels',"
        " 'concurrent.futures'} & set(sys.modules)))\n"
    )
    proc = run_process("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert "det = -12345" in proc.stdout and "det=-12345" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "['bindet.oracle']"
    assert "[]" in proc.stdout.splitlines()
    assert "loaded []" in proc.stdout.splitlines()
    assert "family spectrum at n=4" in proc.stdout and "selftest: 8/8 cases passed" in proc.stdout
    # spectrum --n loads the kernels, and numpy with them, on demand.
    proc = run_process("-m", "bindet.cli", "spectrum", "--n", "3", "--format", "structured")
    assert proc.returncode == 0, proc.stderr
    assert "count 5\n" in proc.stdout


@pytest.mark.parametrize("argv", [
    ("construct", "--n", "8", "--det", "3"),
    ("construct", "--n", "8", "--det", "3", "--emit", "matrix"),
    ("spectrum", "--n", "3"),
    ("spectrum", "--n", "3", "--no-values"),
    ("spectrum", "--rows", "{rows}"),
])
def test_unwritable_out_prints_nothing(capsys, tmp_path, argv):
    # The document is written, or its file opened, before any summary line.
    rows = tmp_path / "rows.txt"
    rows.write_text("2\n0 1 0\n0 0 1\n")
    target = tmp_path / "no-such-dir" / "doc.txt"
    code, out, err = run(capsys, *(a.format(rows=rows) for a in argv), "--out", str(target))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and str(target) in err


def test_a_refused_spectrum_leaves_out_untouched(capsys, tmp_path):
    target = tmp_path / "doc.txt"
    code, out, err = run(capsys, "spectrum", "--n", "7", "--out", str(target))
    assert code == 1 and out == "" and "force" in err
    assert not target.exists()


@pytest.mark.parametrize("argv, bounds", [
    (("--n-max", "3"), "2 <= k <= 4 and 2k <= n <= 3"),
    (("--k-max", "1"), "2 <= k <= 1 and 2k <= n <= 20"),
    (("--n-max", "0", "--k-max", "0"), "2 <= k <= 0 and 2k <= n <= 0"),
])
def test_selftest_refuses_an_empty_grid(capsys, argv, bounds):
    code, out, err = run(capsys, "selftest", *argv)
    assert code == 1 and out == ""
    assert err == f"error: selftest grid is empty: no (n, k) with {bounds}\n"


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--n", "10"])  # missing --det
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2
