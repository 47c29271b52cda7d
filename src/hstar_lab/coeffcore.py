"""Exact combinatorial primitives: coefficients of bounded-part powers and
Eulerian numbers.

All arithmetic is arbitrary-precision integer arithmetic; nothing here ever
touches floating point.

The coefficients c_j of a bounded-part power (1 + t + ... + t**(a-1))**n come
from the three-term recurrence

    j c_j = (n+j-1) c_(j-1) - (n a + a - j) c_(j-a) + (n(a-1) + a + 1 - j) c_(j-a-1)

with c_0 = 1 and c_m = 0 for m < 0, which is J. C. P. Miller's power
recurrence Q P' = n Q' P for P = Q**n, Q = (1 - t**a)/(1 - t) (Knuth, TAOCP
vol. 2, section 4.7).  Every division by j is exact.  The row is a
palindrome, so only its first half is computed and the second half is its
mirror image.  The half runs in two loops, j < a with one term and j >= a
with all three, so no step tests which terms it has.  Rows are kept in the
size-bounded cache of spec._lru_by_size, not in one bounded by row count:
each row is charged an upper bound on its bytes, and the oldest rows are
evicted once the total passes _ROW_CACHE_BYTES.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import chain, permutations

from .spec import _lru_by_size, _require_ints

__all__ = [
    "restricted_coeff",
    "eulerian",
    "eulerian_by_enumeration",
]

# stored-size bound of the _power_row cache, in bytes
_ROW_CACHE_BYTES = 32 << 20


def restricted_coeff(n: int, b: int, a: int) -> int:
    """Coefficient of t**b in (1 + t + ... + t**(a-1))**n, exactly.

    Degenerate inputs follow fixed conventions: the result is 0 when a <= 0,
    when b < 0, or when b > n*(a-1); the n = 0 power is the constant 1.
    These conventions make the alternating sums downstream finite, so only
    the types of n, b and a are checked against the shared integer rule.
    """
    _require_ints({}, n=n, b=b, a=a)
    if n < 0:
        raise ValueError("exponent n must be nonnegative")
    if a <= 0 or b < 0 or b > n * (a - 1):
        return 0
    return _power_row(n, a)[b]


def _row_bytes(row: tuple[int, ...]) -> int:
    # an upper bound: the cache entry and the tuple, plus one int per entry of
    # the first half (the mirror shares them), none wider than the middle one
    # (4 bytes per 30-bit digit, 28-byte header, 16-byte alignment)
    half = len(row) // 2
    return 256 + 8 * len(row) + (half + 1) * (40 + row[half].bit_length() // 30 * 4)


@_lru_by_size(_row_bytes, lambda: _ROW_CACHE_BYTES)
def _power_row(n: int, a: int) -> tuple[int, ...]:
    """All coefficients of (1 + t + ... + t**(a-1))**n, n >= 0 and a >= 1."""
    # With Q = (1 - t**a)/(1 - t), P = Q**n satisfies Q*P' = n*Q'*P (J. C. P.
    # Miller's power recurrence); multiplied through by (1 - t)**2 it reads
    # (1 - t)(1 - t**a) P' = n (1 - a t**(a-1) + (a-1) t**a) P, so that
    #   j c_j = (n+j-1) c_(j-1) - (n a + a - j) c_(j-a) + (top + a + 1 - j) c_(j-a-1)
    # with top = n(a-1) the degree and c_m = 0 for m < 0: O(n a) steps.
    # The terms in c_(j-a) and c_(j-a-1) start at j = a, which splits the
    # half into two loops.  The row is a palindrome (c_j = c_(top-j)), so
    # only c_0 .. c_(top//2) are computed and the rest is mirrored.  The
    # division by j is exact; a remainder would mean a wrong step, so it
    # raises instead of rounding.
    if n == 0 or a == 1:
        return (1,)
    top = n * (a - 1)
    half = top // 2
    c = [1]
    for j in range(1, min(a - 1, half) + 1):
        q, rem = divmod((n + j - 1) * c[j - 1], j)
        if rem:
            raise AssertionError(f"inexact power-row step at n={n}, a={a}, j={j}")
        c.append(q)
    # from j = a on every term is present: the multipliers run as ranges, and
    # c_(j-a), c_(j-a-1) are read by iterators that trail the growing list,
    # the second led by c_(-1) = 0; q holds c_(j-1)
    q = c[-1]
    steps = zip(
        range(a, half + 1),
        range(n + a - 1, n + half),
        range(n * a, 0, -1),
        range(top + 1, 0, -1),
        c,
        chain((0,), c),
    )
    for j, u, w, z, x, y in steps:
        q, rem = divmod(u * q - w * x + z * y, j)
        if rem:
            raise AssertionError(f"inexact power-row step at n={n}, a={a}, j={j}")
        c.append(q)
    return tuple(c + c[top - half - 1 :: -1])


def eulerian(k: int, n: int) -> int:
    """Number of permutations of {1..n} with exactly k-1 descents.

    Computed by the explicit sum A(n, m) = sum_(j <= m) (-1)**j C(n+1, j)
    (m+1-j)**n (Concrete Mathematics, eq. 6.38) over the fewer of the m = k-1
    descents and the n-k ascents (the numbers are symmetric); no table of
    earlier rows is kept.  The row sums are n!.
    """
    _require_ints({}, k=k, n=n)
    if k < 1 or k > n:
        raise ValueError(f"eulerian(k={k}, n={n}) requires 1 <= k <= n")
    m = min(k - 1, n - k)
    return sum((-1) ** j * math.comb(n + 1, j) * (m + 1 - j) ** n for j in range(m + 1))


def eulerian_by_enumeration(k: int, n: int) -> int:
    """Brute-force descent count over all n! permutations; test oracle for
    eulerian, usable up to n about 8.  The permutations of each n are walked
    once, for every k."""
    _require_ints({}, k=k, n=n)
    if k < 1 or k > n:
        raise ValueError(f"eulerian(k={k}, n={n}) requires 1 <= k <= n")
    return _descent_counts(n)[k - 1]


@lru_cache(maxsize=8)
def _descent_counts(n: int) -> tuple[int, ...]:
    """Entry m counts the permutations of range(n), n >= 1, with m descents."""
    counts = [0] * n
    for p in permutations(range(n)):
        counts[sum(p[i] > p[i + 1] for i in range(n - 1))] += 1
    return tuple(counts)
