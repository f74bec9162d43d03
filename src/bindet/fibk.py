"""k-step Fibonacci sequences, their growth root, and the derived bounds.

The k-step sequence F_k has F_k(j) = 0 for j <= 0, F_k(1) = 1, and each
later term equal to the sum of the preceding k terms.  Its growth is
governed by alpha_k, the real root of z - 2 + z^(-k) closest to 2.  The
constructive range bound for an n x n matrix is the prefix sum
F_k(1) + ... + F_k(n-k); the coarser closed-form bound is
floor(2^n / (201 n)).

All arithmetic is exact.  alpha_k is located by bisection on dyadic
rationals m / 2^p, each step deciding by the sign of an integer, and is
returned as a fractions.Fraction; wherever an inequality against a power
of alpha_k has to be certified, the upper end of the bisection bracket
stands in for alpha_k.  Only the bisection imports ``fractions``, so
``construct`` and ``verify`` never load it.  ``BoundTable`` is a
``_record.Record``.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import islice
from typing import TYPE_CHECKING, Iterator

from ._record import Record
from .errors import InternalInvariantError

if TYPE_CHECKING:
    from fractions import Fraction

_MAX_PRECISION_BITS = 1 << 14
_BASE_BITS = 128  # bisection bits for alpha_k: its bracket is at most 2^-112 wide


def _check_k(k: int) -> None:
    if k < 2:
        raise ValueError(f"step count k must be at least 2, got {k}")


def check_admissible(n: int, k: int) -> None:
    """Raise ValueError unless k >= 2 and n >= 2k, the sizes the construction admits."""
    _check_k(k)
    if n < 2 * k:
        raise ValueError(f"need n >= 2k, got n={n}, k={k}")


def _fib_terms(k: int) -> Iterator[int]:
    """F_k(1), F_k(2), ... without end, holding only the last k terms and their sum."""
    window = deque([0] * (k - 1) + [1])  # F_k(2-k), ..., F_k(1)
    total = 1  # the sum of the window, which is the next term
    yield 1
    while True:
        x = total
        total += x - window.popleft()
        window.append(x)
        yield x


def fib_prefix(k: int, m: int) -> list[int]:
    """F_k(1), ..., F_k(m) as exact integers (empty list for m <= 0)."""
    _check_k(k)
    return list(islice(_fib_terms(k), max(m, 0)))


def fib_k(k: int, j: int) -> int:
    """The j-th k-step Fibonacci number; zero for j <= 0."""
    _check_k(k)
    if j <= 0:
        return 0
    return next(islice(_fib_terms(k), j - 1, None))


def theorem_bound(n: int, k: int) -> int:
    """Sum F_k(1) + ... + F_k(n-k): every |a| up to this value is constructible.

    Requires n >= 2k; below that the first finishing row of the seed matrix
    would need columns left of column 1.
    """
    check_admissible(n, k)
    return sum(islice(_fib_terms(k), n - k))  # the terms one at a time, not as a list


@lru_cache(maxsize=None)
def _alpha_bracket(k: int, bits: int) -> tuple[Fraction, Fraction]:
    """Dyadic bisection bracket [lo, hi] around alpha_k, width 2^-max(bits-16, k+2).

    For z > 0, z - 2 + z^(-k) has the sign of z^(k+1) - 2 z^k + 1, which
    is negative at 2 - 2^(1-k) and positive at 2; at z = m / 2^p that sign
    is the sign of m^(k+1) - 2^(p+1) m^k + 2^(p(k+1)), an exact integer.
    The bracket [m / 2^p, (m+1) / 2^p] starts at p = k - 1 and is halved
    until p reaches max(bits - 16, k + 2).
    """
    from fractions import Fraction  # not at the top: construct and verify skip it

    m, p = (1 << k) - 1, k - 1
    while p < max(bits - 16, k + 2):
        m, p = 2 * m + 1, p + 1  # the midpoint of the current bracket
        if m ** k * (m - (2 << p)) + (1 << (p * (k + 1))) >= 0:
            m -= 1
    return Fraction(m, 1 << p), Fraction(m + 1, 1 << p)


def alpha_k(k: int) -> Fraction:
    """The real root of z - 2 + z^(-k) closest to 2, as an exact dyadic Fraction.

    The midpoint of a bracket of width 2^-max(112, k+2) that contains the
    root, so it is within 2^-113 of alpha_k and lies in [2 - 2^(1-k), 2).
    """
    _check_k(k)
    lo, hi = _alpha_bracket(k, _BASE_BITS)
    return (lo + hi) / 2


def fib_closed_form(k: int, j: int) -> int:
    """F_k(j) via the rounded power formula alpha^(j-1) (alpha-1) / (k(alpha-2)+alpha).

    The formula is evaluated exactly at the midpoint of a bisection bracket
    around alpha_k.  The nearest-integer rounding is certified with a 0.25
    margin; if the value sits closer than that to a half-integer the bracket
    is narrowed to twice the bits and the evaluation retried.  j = 1 is
    returned from the definition directly: there the formula's true value
    lies between 0.5 and 0.73, so no precision makes the margin check pass,
    while rounding still lands on 1.
    """
    _check_k(k)
    if j < 1:
        raise ValueError(f"index j must be positive, got {j}")
    if j == 1:
        return 1
    bits = _BASE_BITS
    while bits <= _MAX_PRECISION_BITS:
        lo, hi = _alpha_bracket(k, bits)
        a = (lo + hi) / 2
        val = a ** (j - 1) * (a - 1) / (k * (a - 2) + a)
        nearest = round(val)
        if 4 * abs(val - nearest) <= 1:
            return nearest
        bits *= 2
    raise InternalInvariantError(
        f"closed-form rounding for k={k}, j={j} failed to certify below "
        f"{_MAX_PRECISION_BITS} bits of precision"
    )


def fib_lower_bound_check(k: int, n: int) -> bool:
    """Certified check that 5 F_k(n) > alpha_k^n (requires k >= 2, n >= 8).

    Conservative direction: alpha_k is replaced by the upper end of its
    bisection bracket, and the comparison is made in exact arithmetic.
    """
    _check_k(k)
    if n < 8:
        raise ValueError(f"the bound only holds for n >= 8, got {n}")
    _, hi = _alpha_bracket(k, _BASE_BITS)
    return 5 * fib_k(k, n) > hi ** n


def corollary_bound(n: int) -> int:
    """floor(2^n / (201 n)), the closed-form constructive range bound.

    Evaluates to 0 for every n < 8, where the bound carries no content.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return (1 << n) // (201 * n)


@lru_cache(maxsize=None)
def best_k(n: int) -> int:
    """The step count maximizing theorem_bound(n, k), ties toward smaller k.

    Scans k = 2, 3, ... up to n // 2, so it never does worse than the
    floor(log2 n) rule, and stops once 2^(n-k-1) is at most the best bound
    so far: F_k(j) <= 2^(j-2) gives theorem_bound(n, k) <= 2^(n-k-1), which
    falls as k grows.  Memoized per n, since every default-k construction
    asks for it.
    """
    if n < 4:
        raise ValueError(f"need n >= 4 for an admissible k, got {n}")
    best = 2
    best_bound = theorem_bound(n, 2)
    for k in range(3, n // 2 + 1):
        if 1 << (n - k - 1) <= best_bound:
            break
        b = theorem_bound(n, k)
        if b > best_bound:
            best, best_bound = k, b
    return best


class BoundTable(Record):
    """Per-(n, k) bound summary as reported by the CLI.

    alpha is alpha_k(k): the exact dyadic Fraction at the midpoint of the
    bisection bracket, not a rounded decimal.
    """

    __slots__ = ("n", "k", "theorem_bound", "corollary_bound", "alpha", "best_k")


def bound_table(n: int, k: int | None = None) -> BoundTable:
    if k is None:
        k = best_k(n)
    return BoundTable(n, k, theorem_bound(n, k), corollary_bound(n), alpha_k(k), best_k(n))
