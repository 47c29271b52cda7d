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
mirror image.  Rows are kept in a cache bounded at 256 rows.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

__all__ = [
    "restricted_coeff",
    "eulerian",
    "eulerian_by_enumeration",
]


def restricted_coeff(n: int, b: int, a: int) -> int:
    """Coefficient of t**b in (1 + t + ... + t**(a-1))**n, exactly.

    Degenerate inputs follow fixed conventions: the result is 0 when a <= 0,
    when b < 0, or when b > n*(a-1); the n = 0 power is the constant 1.
    These conventions make the alternating sums downstream finite.
    """
    if n < 0:
        raise ValueError("exponent n must be nonnegative")
    if a <= 0 or b < 0 or b > n * (a - 1):
        return 0
    return _power_row(n, a)[b]


@lru_cache(maxsize=256)
def _power_row(n: int, a: int) -> tuple[int, ...]:
    # All coefficients of P = (1 + t + ... + t**(a-1))**n.  With
    # Q = (1 - t**a)/(1 - t), P = Q**n satisfies Q*P' = n*Q'*P (J. C. P.
    # Miller's power recurrence); multiplied through by (1 - t)**2 it reads
    # (1 - t)(1 - t**a) P' = n (1 - a t**(a-1) + (a-1) t**a) P, so that
    #   j c_j = (n+j-1) c_(j-1) - (n a + a - j) c_(j-a) + (top + a + 1 - j) c_(j-a-1)
    # with top = n(a-1) the degree and c_m = 0 for m < 0: O(n a) steps.
    # The row is a palindrome (c_j = c_(top-j)), so only c_0 .. c_(top//2)
    # are computed and the rest is mirrored.  The division by j is exact;
    # a remainder would mean a wrong step, so it raises instead of rounding.
    if n == 0 or a == 1:
        return (1,)
    top = n * (a - 1)
    half = top // 2
    c = [1]
    for j in range(1, half + 1):
        v = (n + j - 1) * c[j - 1]
        if j >= a:
            v -= (n * a + a - j) * c[j - a]
            if j > a:
                v += (top + a + 1 - j) * c[j - a - 1]
        q, rem = divmod(v, j)
        if rem:
            raise AssertionError(f"inexact power-row step at n={n}, a={a}, j={j}")
        c.append(q)
    return tuple(c + c[top - half - 1 :: -1])


def eulerian(k: int, n: int) -> int:
    """Number of permutations of {1..n} with exactly k-1 descents.

    Computed by the standard two-term recurrence; the row sums are n!.
    """
    if k < 1 or k > n:
        raise ValueError(f"eulerian(k={k}, n={n}) requires 1 <= k <= n")
    return _descent_row(n)[k - 1]


@lru_cache(maxsize=32)
def _descent_row(n: int) -> tuple[int, ...]:
    # row[m] counts permutations of {1..n} with m descents.  The rows are
    # built up from n = 1 in a loop, not by recursion, so neither the stack
    # nor the bounded cache grows with n.
    row = [1]
    for size in range(2, n + 1):
        padded = [0, *row, 0]
        row = [(m + 1) * padded[m + 1] + (size - m) * padded[m] for m in range(size)]
    return tuple(row)


def eulerian_by_enumeration(k: int, n: int) -> int:
    """Brute-force descent count over all n! permutations; test oracle for
    eulerian, usable up to n about 8."""
    if k < 1 or k > n:
        raise ValueError(f"eulerian(k={k}, n={n}) requires 1 <= k <= n")
    target = k - 1
    count = 0
    for p in permutations(range(n)):
        if sum(p[i] > p[i + 1] for i in range(n - 1)) == target:
            count += 1
    return count
