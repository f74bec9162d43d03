"""Constructing a binary matrix with any prescribed determinant.

The paper's matrix is a lower-triangular ternary seed matrix, built from
two row templates ('recursive' rows that subtract a running k-window sum,
and 'finishing' rows that close the window near the bottom), times a unit
upper-triangular 0/1 transform that sums each row with its k-step
successors, which provably lands every entry in {0, 1}.  binary_rows writes
the product's rows from their closed form, and orthogonal_vector a vector
orthogonal to rows 2..n: F_k(1..n-k) from fibk.fib_prefix, then k negated
window sums.  seed_matrix and binarizing_transform stay off that path, as
the independent derivation that oracle.verify_construction multiplies out.
The paper's claim is that the first-row cofactors of the binarized rows
2..n begin with the k-step Fibonacci numbers F_k(1..n-k), which form a
complete sequence, so a greedy scan picks a 0/1 top row whose determinant
is any requested value up to the prefix sum.

Certification is split between the (n, k) rows and the per-target top row.
Once per (n, k), exact elimination (exact.cofactor_vector) computes the
first-row cofactor vector v of the normalized rows R = rows 2..n, and v's
first n-k entries are checked to be F_k(1..n-k): v is the exact cofactor
vector of R, and its first n-k entries are F_k.  By Laplace expansion
det([t; R]) = v . t for every top row t, so each returned matrix is
certified by that exact dot product, summed over the entries of v that its
built 0/1 top row selects (negated when the bottom two rows are swapped).
The check trusts neither the greedy scan nor orthogonal_vector, which
verify_certificate and oracle.verify_construction use instead.  The same
per-(n, k) pass checks that R is n-1 rows of length n (the F_k weights
need no check: they are complete), and renders R as a head block plus its
last two lines, which the sign swap exchanges.  A target pays for the
greedy scan, the top row and one C-level pass over it: the matrix shares
R's cached row tuples and text (through ``IntMatrix._of_checked_rows``,
which checks nothing), and the subset line joins labels cached per n.
The parameters and the certificate are immutable ``_record.Record``
instances; the certificate stores (params, target, matrix) and derives
its subset, sign swap and determinant from them.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from operator import index
from typing import Sequence

from ._record import Record, _set
from .errors import InternalInvariantError, TargetOutOfRangeError
from .exact import (IntMatrix, _read_ints, cofactor_vector, det_exact, is_orthogonal_to_all,
                    parse_rows)
from .fibk import best_k, check_admissible, fib_prefix

_CERT_HEADER = "certificate"
_CERT_FIELDS = ("n", "k", "target", "subset", "sign_swap", "det")
_CLAIMED_FIELDS = _CERT_FIELDS[3:]  # derived from the others; verify compares


class ConstructionParams(Record):
    """Matrix size n and step count k; requires k >= 2 and n >= 2k."""

    __slots__ = ("n", "k")

    def __init__(self, n: int, k: int):
        check_admissible(n, k)
        _set(self, "n", n)
        _set(self, "k", k)


def seed_matrix(n: int, k: int) -> IntMatrix:
    """Lower-triangular ternary seed: unit top row, then the two row templates.

    Recursive rows (i = 2..n-k) carry -1 on the diagonal and 1 on the k
    entries just left of it (clipped at column 1).  Finishing rows
    (i = n-k+1..n) carry 1 on the diagonal and 1 on columns i-k..n-k.
    The determinant is the diagonal product (-1)^(n-k-1).
    """
    ConstructionParams(n, k)
    rows = [[1] + [0] * (n - 1)]
    for i in range(2, n - k + 1):
        row = [0] * n
        row[i - 1] = -1
        for j in range(max(i - k, 1), i):
            row[j - 1] = 1
        rows.append(row)
    for i in range(n - k + 1, n + 1):
        row = [0] * n
        row[i - 1] = 1
        for j in range(i - k, n - k + 1):
            row[j - 1] = 1
        rows.append(row)
    return IntMatrix(rows)


def binarizing_transform(n: int, k: int) -> IntMatrix:
    """Unit upper-triangular 0/1 transform: row i sums rows i, i+k, i+2k, ...

    Entry (i, j) is 1 when i = j = 1, or when j >= i > 1 and i = j mod k.
    Determinant 1.
    """
    ConstructionParams(n, k)
    rows = [[0] * n for _ in range(n)]
    rows[0][0] = 1
    for i in range(2, n + 1):
        for j in range(i, n + 1):
            if (j - i) % k == 0:
                rows[i - 1][j - 1] = 1
    return IntMatrix(rows)


def binary_rows(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Rows of the binarized product transform @ seed: all entries 0/1, top row e_1.

    Row i >= 2 is 1 on columns max(i-k, 1)..n-k except on its chain
    i, i+k, i+2k, ..., and 1 on the chain's one column past n-k; for
    i > n-k that column is i itself, so those are the seed's finishing rows.
    The rows hold only the literals 0 and 1.  oracle.verify_construction
    (bindet selftest) checks this closed form against the matrix product of
    binarizing_transform and seed_matrix, which it computes independently.
    """
    check_admissible(n, k)
    rows = [(1,) + (0,) * (n - 1)]
    for i in range(2, n + 1):
        lo = max(i - k, 1)
        m = (n - k - i) // k + 1  # chain columns i, i+k, ... up to n-k
        row = [0] * (lo - 1) + [1] * (n - k - lo + 1) + [0] * k
        row[i - 1:n - k:k] = [0] * m
        row[i - 1 + m * k] = 1
        rows.append(tuple(row))
    return tuple(rows)


def orthogonal_vector(n: int, k: int) -> tuple[int, ...]:
    """Integer vector orthogonal to rows 2..n of the seed (and binarized) matrix.

    Its first n-k entries are F_k(1..n-k), from fib_prefix; each of the
    last k entries, i = n-k+1..n, is the negated sum of entries i-k..n-k,
    which the finishing row i forces.
    """
    check_admissible(n, k)
    v = fib_prefix(k, n - k)
    return tuple(v + [-sum(v[i - k - 1:]) for i in range(n - k + 1, n + 1)])


def greedy_subset(weights: Sequence[int], target: int) -> tuple[int, ...]:
    """Indices (0-based, ascending) of a subset of weights summing to target.

    Requires weights[0] == 1, all weights positive, each weight at most the
    sum of those before it (a complete sequence), and
    0 <= target <= sum(weights).  Scanning from the largest index and taking
    a weight whenever the remainder allows always succeeds under those
    conditions, which it checks (ValueError); construct_matrix does not, as
    F_k(1..n-k) meets them.  Weights are taken through operator.index.
    """
    w = [index(x) for x in weights]
    if not w:
        raise ValueError("weights must be nonempty")
    for i, x in enumerate(w):
        if x <= 0:
            raise ValueError(f"weights must be positive; weights[{i}] = {x}")
    if w[0] != 1:
        raise ValueError(f"weights[0] must be 1, got {w[0]}")
    prefix = 0
    for i, x in enumerate(w):
        if i > 0 and x > prefix:
            raise ValueError(
                f"completeness violated at weights[{i}] = {x} > {prefix} (prefix sum)"
            )
        prefix += x
    if not 0 <= target <= prefix:
        raise ValueError(f"target {target} outside [0, {prefix}]")
    return _greedy_scan(w, target)


def _greedy_scan(w: Sequence[int], target: int) -> tuple[int, ...]:
    """The greedy scan of greedy_subset over a complete sequence w."""
    chosen = []
    remaining = target
    for i in range(len(w) - 1, -1, -1):
        if w[i] <= remaining:
            chosen.append(i)
            remaining -= w[i]
    if remaining != 0:
        raise InternalInvariantError("greedy subset scan failed on a complete sequence")
    return tuple(reversed(chosen))


class ConstructionCertificate(Record):
    """Full witness of one synthesis, re-checkable without trusting the builder.

    Stores only (params, target, matrix); the rest is derived.  subset is
    the 0-based positions of the 1s in the top row, which index
    orthogonal_vector(n, k); the document writes them 1-based.
    sign_swap_applied, the bottom two rows exchanged, is target < 0, and the
    determinant is the target, since construct_matrix raises on any other.
    from_text keeps a document's own subset, sign_swap and det lines in
    _claims, which is not a field and is unset on a built certificate.
    """

    __slots__ = ("params", "target", "matrix", "_claims")

    @property
    def subset(self) -> tuple[int, ...]:
        top = self.matrix.rows[0]
        return tuple(compress(range(len(top)), top))

    @property
    def sign_swap_applied(self) -> bool:
        return self.target < 0

    def _derived_lines(self) -> tuple[str, str, str]:
        """The subset, sign_swap and det lines of the document."""
        labels = _subset_labels(self.params.n)
        return ("subset" + "".join(compress(labels, self.matrix.rows[0])),
                f"sign_swap {int(self.target < 0)}", f"det {self.target}")

    def to_text(self) -> str:
        head = "\n".join([
            _CERT_HEADER,
            f"n {self.params.n}",
            f"k {self.params.k}",
            f"target {self.target}",
            *self._derived_lines(),
            "matrix",
        ])
        return f"{head}\n{self.matrix.to_text()}end\n"

    @classmethod
    def from_text(cls, text: str) -> "ConstructionCertificate":
        """Parse the document to_text writes; anything else raises ValueError.

        Lines are read by the rule of the exact module, each field once, and
        the matrix section by parse_rows, as a matrix file.  The subset,
        sign_swap and det lines go to _claims.
        """
        lines = text.split("\n", 8)  # unless the loop fails, 7 is "matrix" and 8 the rest
        if lines[0] != _CERT_HEADER:
            raise ValueError("not a certificate document")
        fields: dict[str, tuple[str, tuple[int, ...] | None]] = {}
        for line in lines[1:-1]:
            if line == "matrix":
                break
            key, sep, value = line.partition(" ")
            if key not in _CERT_FIELDS:
                raise ValueError(f"certificate has an unknown field {key!r}")
            if key in fields:
                raise ValueError(f"certificate repeats field {key!r}")
            fields[key] = line, _read_ints(value) if sep else ()
        else:
            raise ValueError("certificate has no matrix section")
        for key in _CERT_FIELDS:
            if key not in fields:
                raise ValueError(f"certificate is missing field {key!r}")
        if not lines[8].endswith("end\n"):
            raise ValueError("certificate is not terminated with 'end'")
        try:
            # None, or a count of ints other than the field's, fails to unpack.
            (n,), (k,), (target,), subset, (swap,), (_,) = (fields[f][1] for f in _CERT_FIELDS)
            if subset is None or swap not in (0, 1):
                raise ValueError
        except (TypeError, ValueError):
            raise ValueError("certificate has a malformed field value") from None
        matrix = IntMatrix._of_checked_rows(parse_rows(lines[8][:-4]), None)  # keeps no text
        cert = cls(ConstructionParams(n, k), target, matrix)
        _set(cert, "_claims", tuple(fields[key][0] for key in _CLAIMED_FIELDS))
        return cert


@lru_cache(maxsize=64)
def _subset_labels(n: int) -> tuple[str, ...]:
    """The fields " 1", ..., " n" of a subset line, by 0-based index."""
    return tuple(f" {i}" for i in range(1, n + 1))


def _lower_rows(n: int, k: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Rows 2..n of each matrix constructed at (n, k), without and with sign swap.

    binary_rows(n, k)[1:] with rows 2 and 3 exchanged when the closed form
    (-1)^(n-k-1) of their unit-top-row determinant is -1, so that the
    first-row cofactors of the first order begin with +F_k(1..n-k) and
    subset sums come out with positive sign; the second order has the
    bottom two rows exchanged as well, which negates every cofactor.
    """
    rows = binary_rows(n, k)[1:]
    if (n - k - 1) % 2:
        rows = (rows[1], rows[0]) + rows[2:]
    return rows, rows[:-2] + (rows[-1], rows[-2])


@lru_cache(maxsize=64)
def _normalized_rows(n: int, k: int):
    """All of a construction at (n, k) but the top row: checked and rendered once.

    Returns (params, lower, weights, v, bound, head, tails): the shared
    ConstructionParams, lower from _lower_rows, the first-row cofactor
    vector v of lower[0], its subset weights v[:n-k] and their sum, and
    head + tails[s] as the text of lower[s].  The rows are checked to be
    n-1 rows of length n, and v, from exact elimination, to begin with
    F_k(1..n-k): v is the exact cofactor vector of the rows, and its first
    n-k entries are F_k (module docstring).  F_k(1..n-k) is complete, so
    the weights need no check of their own and per target only the scan runs.
    """
    params = ConstructionParams(n, k)
    lower = _lower_rows(n, k)
    rows = lower[0]
    if len(rows) != n - 1 or any(len(row) != n for row in rows):
        raise InternalInvariantError(f"rows 2..n are not n-1 rows of length n for n={n}, k={k}")
    v = cofactor_vector(rows)
    weights = v[:n - k]
    if list(weights) != fib_prefix(k, n - k):
        raise InternalInvariantError(
            f"cofactors of rows 2..n do not begin with the k-step sequence for n={n}, k={k}"
        )
    bound = sum(weights)  # F_k(1..n-k) is complete
    lines = [" ".join(map(str, row)) + "\n" for row in rows]
    tails = (lines[-2] + lines[-1], lines[-1] + lines[-2])
    return params, lower, weights, v, bound, "".join(lines[:-2]), tails


def construct_matrix(n: int, target: int, k: int | None = None) -> ConstructionCertificate:
    """Build and certify a binary n x n matrix whose determinant is target.

    k defaults to the bound-maximizing step count.  |target| may be any
    value up to theorem_bound(n, k).  Negative targets are realized by
    building the positive matrix and swapping its bottom two rows, which
    negates the determinant and keeps every entry 0/1.  The determinant is
    certified as the exact dot product of the top row with the first-row
    cofactor vector of rows 2..n, computed by exact elimination and checked
    to begin with F_k(1..n-k) once per (n, k) (module docstring), negated
    under the row swap; a mismatch with the target is an internal error.
    verify_certificate recomputes the full determinant instead.
    """
    if k is None:
        k = best_k(n)
    params, lower, weights, v, bound, head, tails = _normalized_rows(n, k)
    if abs(target) > bound:
        raise TargetOutOfRangeError(n, k, target, bound)

    subset = _greedy_scan(weights, abs(target))
    sign_swap = target < 0
    top = [0] * n
    cells = ["0"] * n
    for i in subset:
        top[i] = 1
        cells[i] = "1"
    top = tuple(top)
    # Rows 2..n were certified as n-1 tuples of n ints by _normalized_rows.
    matrix = IntMatrix._of_checked_rows(
        (top,) + lower[sign_swap], f"{n}\n{' '.join(cells)}\n{head}{tails[sign_swap]}"
    )

    certified = (-1 if sign_swap else 1) * sum(compress(v, top))  # v . top for 0/1 top
    if certified != target:
        raise InternalInvariantError(
            f"certification failed: built determinant {certified}, wanted {target}"
        )
    return ConstructionCertificate(params, target, matrix)


def verify_certificate(cert: ConstructionCertificate) -> list[str]:
    """Re-check every certificate invariant; returns problems, empty when clean.

    First, each line a parsed document claims (subset, sign_swap, det) is
    compared with the one derived from the target and the matrix.  Then the
    math on (params, target, matrix): the matrix is n x n and 0/1, the top
    row's 1s lie in [0, n-k) and their entries of orthogonal_vector(n, k)
    sum to |target|, rows 2..n are the (n, k) construction rows for the
    target's sign, the vector is orthogonal to them, and the recomputed
    determinant is the target.
    """
    n, k, target = cert.params.n, cert.params.k, cert.target
    if cert.matrix.n != n:
        return [f"matrix size {cert.matrix.n} does not match n {n}"]
    problems = [
        f"document says '{claimed}' but its target and matrix give '{derived}'"
        for claimed, derived in zip(getattr(cert, "_claims", ()), cert._derived_lines())
        if claimed != derived
    ]
    if not cert.matrix.is_binary():
        problems.append("matrix entries are not all 0/1")
    v = orthogonal_vector(n, k)
    top, lower = cert.matrix.rows[0], cert.matrix.rows[1:]
    if any(top[n - k:]):
        problems.append(f"subset indices out of range [0, {n - k})")
    elif (ssum := sum(compress(v, top))) != abs(target):
        problems.append(f"subset sums to {ssum}, expected |target| = {abs(target)}")
    if lower != _lower_rows(n, k)[target < 0]:
        problems.append(f"rows 2..n are not the construction rows for n={n}, k={k}")
    # Orthogonality is checked on the stored rows, whatever their order.
    if not is_orthogonal_to_all(v, lower):
        problems.append("orthogonal vector is not orthogonal to rows 2..n")
    recomputed = det_exact(cert.matrix)
    if recomputed != target:
        problems.append(f"target {target} but recomputed determinant {recomputed}")
    return problems
