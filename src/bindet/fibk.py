"""k-step Fibonacci sequences, their growth root, and the derived bounds.

The k-step sequence F_k has F_k(j) = 0 for j <= 0, F_k(1) = 1, and each
later term equal to the sum of the preceding k terms.  Its growth is
governed by alpha_k, the real root of z - 2 + z^(-k) closest to 2.  The
constructive range bound for an n x n matrix is the prefix sum
F_k(1) + ... + F_k(n-k); the coarser closed-form bound is
floor(2^n / (201 n)).

All sequence arithmetic is exact (Python ints).  alpha_k is located by
bisection in mpmath; wherever an inequality against a power of alpha_k has
to be certified, the comparison is reduced to exact integer arithmetic
using a dyadic upper bound on alpha_k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import mpmath
from mpmath import mpf, workprec

from .errors import InternalInvariantError

_MAX_PRECISION_BITS = 1 << 14
_BASE_BITS = 128  # default working precision, and the dyadic scale of fib_lower_bound_check


def _check_k(k: int) -> None:
    if k < 2:
        raise ValueError(f"step count k must be at least 2, got {k}")


def fib_prefix(k: int, m: int) -> list[int]:
    """F_k(1), ..., F_k(m) as exact integers (empty list for m <= 0)."""
    _check_k(k)
    vals: list[int] = []
    for j in range(1, m + 1):
        # Terms with index <= 0 are zero, so the window clips at the start.
        vals.append(1 if j == 1 else sum(vals[max(0, j - 1 - k):j - 1]))
    return vals


def fib_k(k: int, j: int) -> int:
    """The j-th k-step Fibonacci number; zero for j <= 0."""
    _check_k(k)
    if j <= 0:
        return 0
    return fib_prefix(k, j)[-1]


def theorem_bound(n: int, k: int) -> int:
    """Sum F_k(1) + ... + F_k(n-k): every |a| up to this value is constructible.

    Requires n >= 2k; below that the first finishing row of the seed matrix
    would need columns left of column 1.
    """
    _check_k(k)
    if n < 2 * k:
        raise ValueError(f"need n >= 2k, got n={n}, k={k}")
    return sum(fib_prefix(k, n - k))


@lru_cache(maxsize=None)
def _alpha_bracket(k: int, prec_bits: int) -> tuple[mpf, mpf]:
    """Bisection bracket [lo, hi] around alpha_k, width below 2^-(prec-16).

    z - 2 + z^(-k) is negative at 1.5 and positive at 2, and has a single
    root between them, so plain bisection is unconditionally convergent.
    The bracket is also tightened past 2^-(k+2) so that both endpoints lie
    inside [2 - 2^(1-k), 2).
    """
    with workprec(prec_bits):
        tol = min(mpf(2) ** -(prec_bits - 16), mpf(2) ** -(k + 2))
        lo, hi = mpf("1.5"), mpf(2)
        while hi - lo > tol:
            mid = (lo + hi) / 2
            if mid - 2 + mid ** (-k) < 0:
                lo = mid
            else:
                hi = mid
        return lo, hi


def alpha_k(k: int, tol: float | None = None) -> mpf:
    """The real root of z - 2 + z^(-k) closest to 2, within tol.

    Default tolerance is 2^-112 (128-bit working precision).  The result
    always lies in [2 - 2^(1-k), 2).
    """
    _check_k(k)
    if tol is None:
        prec = _BASE_BITS
    else:
        tol = mpf(tol)
        if tol <= 0:
            raise ValueError("tol must be positive")
        prec = max(_BASE_BITS, int(-mpmath.log(tol, 2)) + 24)
    lo, hi = _alpha_bracket(k, prec)
    with workprec(prec):
        return (lo + hi) / 2


def fib_closed_form(k: int, j: int) -> int:
    """F_k(j) via the rounded power formula alpha^(j-1) (alpha-1) / (k(alpha-2)+alpha).

    The nearest-integer rounding is certified with a 0.25 margin; if the
    computed value sits closer than that to a half-integer the working
    precision is doubled and the evaluation retried.  j = 1 is returned
    from the definition directly: there the formula's true value lies
    between 0.5 and 0.73, so no precision makes the margin check pass,
    while rounding still lands on 1.
    """
    _check_k(k)
    if j < 1:
        raise ValueError(f"index j must be positive, got {j}")
    if j == 1:
        return 1
    prec = _BASE_BITS
    while prec <= _MAX_PRECISION_BITS:
        lo, hi = _alpha_bracket(k, prec)
        with workprec(prec):
            a = (lo + hi) / 2
            val = a ** (j - 1) * (a - 1) / (k * (a - 2) + a)
            nearest = mpmath.nint(val)
            if abs(val - nearest) <= mpf("0.25"):
                return int(nearest)
        prec *= 2
    raise InternalInvariantError(
        f"closed-form rounding for k={k}, j={j} failed to certify below "
        f"{_MAX_PRECISION_BITS} bits of precision"
    )


def fib_lower_bound_check(k: int, n: int) -> bool:
    """Certified check that 5 F_k(n) > alpha_k^n (requires k >= 2, n >= 8).

    Conservative direction: alpha_k is replaced by a dyadic upper bound
    u / 2^s taken just above the bisection bracket, and the comparison
    5 F 2^(sn) > u^n is made in exact integer arithmetic.
    """
    _check_k(k)
    if n < 8:
        raise ValueError(f"the bound only holds for n >= 8, got {n}")
    f = fib_k(k, n)
    _, hi = _alpha_bracket(k, _BASE_BITS + 64)
    with workprec(_BASE_BITS + 64):
        u = int(mpmath.floor(hi * mpf(2) ** _BASE_BITS)) + 1
    return 5 * f * (1 << (_BASE_BITS * n)) > u ** n


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

    Exhaustive over the admissible k in {2, ..., n // 2}; this never does
    worse than the floor(log2 n) rule.  Memoized per n, since every
    construction with a default k asks for it.
    """
    if n < 4:
        raise ValueError(f"need n >= 4 for an admissible k, got {n}")
    best = 2
    best_bound = theorem_bound(n, 2)
    for k in range(3, n // 2 + 1):
        b = theorem_bound(n, k)
        if b > best_bound:
            best, best_bound = k, b
    return best


@dataclass(frozen=True)
class BoundTable:
    """Per-(n, k) bound summary as reported by the CLI."""

    n: int
    k: int
    theorem_bound: int
    corollary_bound: int
    alpha: mpf
    best_k: int


def bound_table(n: int, k: int | None = None) -> BoundTable:
    if k is None:
        k = best_k(n)
    return BoundTable(
        n=n,
        k=k,
        theorem_bound=theorem_bound(n, k),
        corollary_bound=corollary_bound(n),
        alpha=alpha_k(k),
        best_k=best_k(n),
    )
