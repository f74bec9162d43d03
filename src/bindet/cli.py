"""Command-line surface: construct, verify, bound, fib, spectrum, selftest.

Exit statuses: 0 success, 1 domain error (out of range, infeasible,
verification mismatch, malformed file), 2 usage error (argparse), 3
internal invariant failure.

Output modes: ``--format structured`` emits the stable text documents
(certificate, matrix, spectrum, bound) with big integers as decimal
strings and no timing fields, so identical inputs give byte-identical
output; ``--format pretty`` is for humans and may include elapsed times,
which the CLI reads around the calls it reports.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from .construction import (
    _CERT_HEADER,
    ConstructionCertificate,
    construct_matrix,
    verify_certificate,
)
from .errors import InternalInvariantError
from .exact import IntMatrix, det_exact, parse_rows
from .fibk import _check_k, bound_table, fib_prefix

_FIB_MAX_DIGITS = 10**8  # digits in fib's value list: about 100 MB of output


def _alpha_text(alpha) -> str:
    """The Fraction alpha in [1, 10) to 30 significant digits, trailing zeros stripped.

    Reproduces mpmath.nstr(alpha, 30): floor to 33 significant digits,
    round half up at the 30th.
    """
    digits = str((alpha.numerator * 10**32 // alpha.denominator + 500) // 1000)
    text = (digits[0] + "." + digits[1:]).rstrip("0")
    return text + "0" if text.endswith(".") else text


def cmd_construct(args) -> int:
    cert = construct_matrix(args.n, args.det, args.k)
    doc = cert.matrix.to_text() if args.emit == "matrix" else cert.to_text()
    if args.out:
        Path(args.out).write_text(doc)  # first, so that a failed write prints nothing
    if args.format == "pretty":
        print(
            f"constructed {cert.params.n}x{cert.params.n} binary matrix with "
            f"det {cert.target} (k={cert.params.k}, "
            f"subset size {len(cert.subset)}, sign swap {cert.sign_swap_applied})"
        )
        if args.out:
            print(f"wrote {args.out}")
    if not args.out:
        sys.stdout.write(doc)
    return 0


def cmd_verify(args) -> int:
    text = Path(args.path).read_text()
    kind = "certificate" if text.partition("\n")[0] == _CERT_HEADER else "matrix"
    try:
        doc = (ConstructionCertificate if kind == "certificate" else IntMatrix).from_text(text)
    except ValueError as exc:
        print(f"malformed {kind}: {exc}", file=sys.stderr)
        return 1
    if kind == "matrix":
        det = det_exact(doc)
        summary = f"matrix is {doc.n}x{doc.n}, det = {det}"
    else:
        problems = verify_certificate(doc)
        for p in problems:
            print(f"mismatch: {p}", file=sys.stderr)
        if problems:
            return 1
        det = doc.target
        summary = f"certificate ok: n={doc.params.n} k={doc.params.k} det={det}"
    if args.format == "pretty":
        print(summary)
    else:
        sys.stdout.write(f"verify\nstatus ok\ndet {det}\nend\n")
    return 0


def _unlimited_digits(cmd, args) -> int:
    """cmd(args) with Python's int-to-str digit limit lifted, then restored.

    For bound and fib, which print bindet's own integers; parsing keeps it.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # Python >= 3.10.7
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return cmd(args)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def cmd_bound(args) -> int:
    table = bound_table(args.n, args.k)
    alpha = _alpha_text(table.alpha)
    if args.format == "pretty":
        text = (
            f"n = {table.n}, k = {table.k}\n"
            f"constructive range (prefix-sum bound): {table.theorem_bound}\n"
            f"closed-form bound floor(2^n/(201 n)): {table.corollary_bound}\n"
            f"growth root alpha_{table.k} = {alpha}\n"
            f"bound-maximizing k for this n: {table.best_k}\n"
        )
    else:
        text = (
            "bound\n"
            f"n {table.n}\n"
            f"k {table.k}\n"
            f"theorem_bound {table.theorem_bound}\n"
            f"corollary_bound {table.corollary_bound}\n"
            f"alpha {alpha}\n"
            f"best_k {table.best_k}\n"
            "end\n"
        )
    sys.stdout.write(text)  # whole, so that a failure prints nothing
    return 0


def cmd_fib(args) -> int:
    if args.count < 1:
        raise ValueError(f"count must be positive, got {args.count}")
    _check_k(args.k)
    # F_k(j) <= 2^(j-2) for j >= 2 bounds the digits of the values.
    digits = args.count + 30103 * (args.count - 1) * (args.count - 2) // 200000
    if digits > _FIB_MAX_DIGITS:
        raise ValueError(f"fib values at count {args.count} may reach {digits} digits; "
                         f"cap is {_FIB_MAX_DIGITS} digits")
    values = " ".join(map(str, fib_prefix(args.k, args.count)))
    if args.format == "pretty":
        print(f"F_{args.k}(1..{args.count}): {values}")
    else:
        sys.stdout.write(f"fib\nk {args.k}\ncount {args.count}\nvalues {values}\nend\n")
    return 0


def cmd_spectrum(args) -> int:
    from .oracle import spectrum_exhaustive, spectrum_family

    if args.n is None:
        try:
            rows = parse_rows(Path(args.rows).read_text(), extra=1)
        except ValueError as exc:
            print(f"malformed rows file: {exc}", file=sys.stderr)
            return 1
    t0 = perf_counter()
    report = (spectrum_family(rows) if args.n is None
              else spectrum_exhaustive(args.n, workers=args.workers, force=args.force))
    elapsed = perf_counter() - t0
    values = not args.no_values
    # The document is opened before anything is printed, so that an
    # unwritable --out prints nothing.
    with open(args.out, "w") if args.out else nullcontext(sys.stdout) as doc:
        if args.format == "structured":
            report.write(doc, values)
            return 0
        print(
            f"{report.mode} spectrum at n={report.n}: {report.count} values, "
            f"smallest missing natural {report.d} ({elapsed:.2f}s)"
        )
        if values:
            sys.stdout.write("values: ")
        if args.out:
            # The value list is formatted once, for the document and the line.
            report.write(doc, values, echo=(sys.stdout,))
        elif values:
            report.write_values(sys.stdout)
        if values:
            sys.stdout.write("\n")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_selftest(args) -> int:
    grid = [(n, k) for k in range(2, args.k_max + 1) for n in range(2 * k, args.n_max + 1)]
    if not grid:
        raise ValueError(f"selftest grid is empty: no (n, k) with 2 <= k <= {args.k_max} "
                         f"and 2k <= n <= {args.n_max}")
    from .oracle import verify_construction

    failures = 0
    for n, k in grid:
        t0 = perf_counter()
        report = verify_construction(
            n, k, sweep_limit=args.sweep_limit, sample=args.sample, seed=args.seed
        )
        elapsed = perf_counter() - t0
        if report.all_passed:
            if args.format == "pretty":
                print(
                    f"pass n={n} k={k} ({report.targets_swept} targets, "
                    f"{elapsed:.2f}s)"
                )
            else:
                print(f"pass n={n} k={k} targets {report.targets_swept}")
        else:
            failures += 1
            sys.stdout.write(report.to_text())
    print(f"selftest: {len(grid) - failures}/{len(grid)} cases passed")
    return 3 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bindet",
        description="Binary matrices with prescribed determinants: "
        "certified construction, exact bounds, brute-force spectra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format",
            choices=("pretty", "structured"),
            default="pretty",
            help="pretty for humans, structured for byte-stable scripting output",
        )

    p = sub.add_parser("construct", help="build a certified matrix with a given determinant")
    p.add_argument("--n", type=int, required=True, help="matrix size")
    p.add_argument("--det", type=int, required=True, help="target determinant")
    p.add_argument("--k", type=int, default=None, help="step count (default: best for n)")
    p.add_argument("--out", default=None, help="write the document to this path")
    p.add_argument(
        "--emit",
        choices=("certificate", "matrix"),
        default="certificate",
        help="emit the full certificate or just the matrix",
    )
    add_format(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="re-check a certificate or matrix file")
    p.add_argument("path", help="certificate or matrix text file")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bound", help="print the constructive range bounds for n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    add_format(p)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("fib", help="print a k-step Fibonacci prefix")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    add_format(p)
    p.set_defaults(func=cmd_fib)

    p = sub.add_parser("spectrum", help="enumerate reachable determinants")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--n", type=int, default=None, help="exhaustive spectrum at this size")
    grp.add_argument("--rows", default=None, help="family spectrum over fixed rows from a file")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--force", action="store_true",
                   help="raise the exhaustive size cap from n=6 to n=7")
    p.add_argument("--no-values", action="store_true", help="omit the value list")
    p.add_argument("--out", default=None)
    add_format(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("selftest", help="run construction self-tests over a grid")
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--k-max", type=int, default=4)
    p.add_argument("--sweep-limit", type=int, default=512)
    p.add_argument("--sample", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    add_format(p)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.func in (cmd_bound, cmd_fib):
            return _unlimited_digits(args.func, args)
        return args.func(args)
    except InternalInvariantError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:  # the domain errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
