"""Reference outputs for the benchmark, computed without calling bindet.

Everything here is written from the construction's definition (see the
bindet README and PAPER.md), not imported from the package, so a check
against it is independent of the code under measurement:

* the construction rows, orthogonal vector, greedy subset and the exact
  bytes of a certificate or matrix document;
* the exact bytes of ``bindet bound --format structured``;
* an exact determinant (fraction-free elimination over Python lists);
* the exact value set and document of a family spectrum.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import mpmath
import numpy as np


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def fib_prefix(k: int, m: int) -> list[int]:
    """F_k(1..m): F_k(1) = 1 and each later term sums the previous k terms."""
    vals: list[int] = []
    for j in range(m):
        vals.append(1 if j == 0 else sum(vals[max(0, j - k):j]))
    return vals


def theorem_bound(n: int, k: int) -> int:
    return sum(fib_prefix(k, n - k))


@lru_cache(maxsize=None)
def best_k(n: int) -> int:
    """Smallest k in 2..n//2 with the largest theorem bound."""
    bounds = {k: theorem_bound(n, k) for k in range(2, n // 2 + 1)}
    top = max(bounds.values())
    return min(k for k, b in bounds.items() if b == top)


def _seed_rows(n: int, k: int) -> list[list[int]]:
    rows = [[1] + [0] * (n - 1)]
    for i in range(1, n):  # 0-based row index
        row = [0] * n
        if i < n - k:
            row[i] = -1
            for j in range(max(i - k, 0), i):
                row[j] = 1
        else:
            row[i] = 1
            for j in range(i - k, n - k):
                row[j] = 1
        rows.append(row)
    return rows


@lru_cache(maxsize=None)
def construction_rows(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Binarized rows with unit top row, normalized to determinant +1.

    Row i >= 2 is the sum of seed rows i, i+k, i+2k, ...; the rows under a
    unit top row have determinant (-1)^(n-k-1), and when that is -1 rows
    2 and 3 trade places.
    """
    seed = _seed_rows(n, k)
    rows = [tuple(seed[0])]
    for i in range(1, n):
        rows.append(tuple(sum(seed[j][c] for j in range(i, n, k)) for c in range(n)))
    if (n - k - 1) % 2:
        rows[1], rows[2] = rows[2], rows[1]
    return tuple(rows)


@lru_cache(maxsize=None)
def orthogonal_vector(n: int, k: int) -> tuple[int, ...]:
    v = fib_prefix(k, n - k)
    for i in range(n - k, n):
        v.append(-sum(v[i - k:n - k]))
    return tuple(v)


def greedy_subset(weights, target: int) -> tuple[int, ...]:
    chosen = []
    for i in range(len(weights) - 1, -1, -1):
        if weights[i] <= target:
            chosen.append(i)
            target -= weights[i]
    if target:
        raise ValueError("weights are not a complete sequence")
    return tuple(reversed(chosen))


def matrix_text(rows) -> str:
    return f"{len(rows)}\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


def construct(n: int, target: int, k: int | None = None):
    """(certificate text, matrix rows) that ``construct_matrix`` must produce."""
    if k is None:
        k = best_k(n)
    rows = list(construction_rows(n, k))
    subset = greedy_subset(orthogonal_vector(n, k)[:n - k], abs(target))
    rows[0] = tuple(1 if j in subset else 0 for j in range(n))
    if target < 0:
        rows[-1], rows[-2] = rows[-2], rows[-1]
    text = (
        f"certificate\nn {n}\nk {k}\ntarget {target}\n"
        "subset" + "".join(f" {i + 1}" for i in subset) + "\n"
        f"sign_swap {int(target < 0)}\ndet {target}\nmatrix\n"
        + matrix_text(rows) + "end\n"
    )
    return text, rows


def det(rows) -> int:
    """Exact determinant by fraction-free elimination over Python ints."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for t in range(n - 1):
        p = next((i for i in range(t, n) if a[i][t]), None)
        if p is None:
            return 0
        if p != t:
            a[t], a[p] = a[p], a[t]
            sign = -sign
        top = a[t]
        piv = top[t]
        for i in range(t + 1, n):
            row = a[i]
            m = row[t]
            if m:
                for j in range(t + 1, n):
                    row[j] = (row[j] * piv - top[j] * m) // prev
            else:
                for j in range(t + 1, n):
                    row[j] = row[j] * piv // prev
        prev = piv
    return sign * a[-1][-1]


@lru_cache(maxsize=None)
def alpha(k: int) -> str:
    """alpha_k, the root of z - 2 + z^(-k) in (1.5, 2), to 30 significant digits."""
    with mpmath.workprec(256):
        root = mpmath.findroot(lambda z: z - 2 + z ** (-k), (mpmath.mpf("1.5"), mpmath.mpf(2)),
                               solver="anderson")
        return mpmath.nstr(root, 30)


def bound_text(n: int) -> str:
    k = best_k(n)
    return (
        f"bound\nn {n}\nk {k}\ntheorem_bound {theorem_bound(n, k)}\n"
        f"corollary_bound {(1 << n) // (201 * n)}\nalpha {alpha(k)}\nbest_k {k}\nend\n"
    )


def verify_ok_text(d: int) -> str:
    return f"verify\nstatus ok\ndet {d}\nend\n"


def spectrum_text(n: int, mode: str, values) -> str:
    values = list(values)
    present = set(values)
    d = 1
    while d in present:
        d += 1
    return (
        f"spectrum\nn {n}\nmode {mode}\ncount {len(values)}\nd {d}\n"
        "values " + " ".join(map(str, values)) + "\nend\n"
    )


def family_values(rows) -> np.ndarray:
    """Sorted determinants of [t; rows] over all 0/1 top rows t.

    The determinant is linear in t with the first-row cofactors as
    weights, so the values are the subset sums of the cofactors, collected
    in a Python-int bitset whose bit b stands for the value b + lo.
    """
    n = len(rows) + 1
    cof = [(-1) ** j * det([r[:j] + r[j + 1:] for r in rows]) for j in range(n)]
    lo = sum(c for c in cof if c < 0)
    hi = sum(c for c in cof if c > 0)
    reach = 1 << -lo
    for c in cof:
        reach |= reach << c if c > 0 else reach >> -c
    bits = np.unpackbits(
        np.frombuffer(reach.to_bytes((hi - lo) // 8 + 1, "little"), dtype=np.uint8),
        bitorder="little",
    )
    return np.flatnonzero(bits) + lo


EXHAUSTIVE_5 = tuple(range(-5, 6))
"""Every determinant of a 5x5 0/1 matrix: the maximum is 5 (OEIS A003432),
and every integer in between is reached."""
