"""Exact combinatorial primitives shared by every other module: coefficients
of bounded-part powers, Eulerian numbers, and dense integer polynomials.

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

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

__all__ = [
    "IntPoly",
    "ZERO",
    "ONE",
    "coeff_of",
    "poly_add",
    "poly_mul",
    "poly_pow",
    "poly_scale",
    "restricted_coeff",
    "eulerian",
    "eulerian_by_enumeration",
]


@dataclass(frozen=True)
class IntPoly:
    """Dense integer polynomial; coeffs[i] is the coefficient of t**i.

    The zero polynomial is the empty tuple; otherwise the stored leading
    coefficient is nonzero.  Build values through IntPoly.of, which strips
    trailing zeros.
    """

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero; use IntPoly.of")

    @classmethod
    def of(cls, coeffs) -> IntPoly:
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(tuple(cs))

    def degree(self) -> int:
        """Degree of the polynomial, -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)


ZERO = IntPoly()
ONE = IntPoly((1,))


def coeff_of(p: IntPoly, degree: int) -> int:
    """Coefficient of t**degree, 0 beyond the stored degree."""
    if degree < 0 or degree >= len(p.coeffs):
        return 0
    return p.coeffs[degree]


def poly_add(p: IntPoly, q: IntPoly) -> IntPoly:
    if len(p.coeffs) < len(q.coeffs):
        p, q = q, p
    out = list(p.coeffs)
    for i, c in enumerate(q.coeffs):
        out[i] += c
    return IntPoly.of(out)


def poly_scale(p: IntPoly, c: int) -> IntPoly:
    if c == 0:
        return ZERO
    return IntPoly.of(x * c for x in p.coeffs)


def poly_mul(p: IntPoly, q: IntPoly) -> IntPoly:
    if not p or not q:
        return ZERO
    out = [0] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return IntPoly.of(out)


def poly_pow(p: IntPoly, e: int) -> IntPoly:
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    result = ONE
    for _ in range(e):
        result = poly_mul(result, p)
    return result


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


@lru_cache(maxsize=None)
def _descent_row(n: int) -> tuple[int, ...]:
    # row[m] counts permutations of {1..n} with m descents
    if n == 1:
        return (1,)
    prev = _descent_row(n - 1)
    row = []
    for m in range(n):
        val = 0
        if m < n - 1:
            val += (m + 1) * prev[m]
        if m >= 1:
            val += (n - m) * prev[m - 1]
        row.append(val)
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
