"""Closed-form h*-vectors of the cube cross sections.

Two routes are provided.  hstar_closed_form evaluates the simplified
alternating sum

    h*_d = sum_i (-1)**i C(n, i) <n : (k - r*i)*d - i>_(k - r*i)

where <n : b>_a is the coefficient of t**b in (1 + t + ... + t**(a-1))**n and
terms stop contributing once the part bound k - r*i drops below 1.
raw_series_numerator expands the unsimplified rational-series numerator with
exact (t - 1)**j factors; everything of degree n and above must cancel, and
its coefficients of degrees 0 .. n-1 must equal the simplified sum's entries.
Integer coefficient sequences are plain tuples and lists throughout, entry i
being the coefficient of t**i.

check_lemma1 and check_prop1 verify the two identities that connect the raw
numerator to the simplified sum, on explicit inputs; check_prop1 and
raw_series_numerator expand the same series-shift sum, _shifted_series.
count_dosps gives the number of partitions per winding number from the same
coefficient rows.
"""

from __future__ import annotations

import math

from .coeffcore import _power_row, restricted_coeff
from .spec import _LEAST, HStarVector, PolytopeSpec, _require_ints

__all__ = [
    "hstar_closed_form",
    "raw_series_numerator",
    "count_dosps",
    "check_lemma1",
    "check_prop1",
]


def hstar_closed_form(spec: PolytopeSpec) -> HStarVector:
    """h*-vector by the simplified alternating sum, one entry per winding
    number d = 0..n-1.

    Each part bound a = k - r*i fetches its coefficient row once and reads
    the degrees a*d - i as one stride, from the first d >= 0 with a*d >= i;
    degrees past the row's end are zero and the stride stops there.
    """
    n, k, r = spec.n, spec.k, spec.r
    entries = [0] * n
    for i in range((k - 1) // r + 1):
        a = k - r * i
        weight = (-1) ** i * math.comb(n, i)
        first = -(-i // a)
        for d, c in zip(range(first, n), _power_row(n, a)[a * first - i :: a]):
            entries[d] += weight * c
    return HStarVector(entries, spec)


def raw_series_numerator(spec: PolytopeSpec) -> tuple[int, ...]:
    """Numerator of the Ehrhart series over (1 - t)**n, expanded literally,
    as its n coefficients of degrees 0 .. n-1.

    Computes sum_i (-1)**i C(n,i) sum_j C(i,j) (t-1)**j sum_l <n-j : l*a>_a t**l
    with a = k - r*i, truncating the l sum at l = n; coefficients there are
    already identically zero, so nothing is lost.  Raises AssertionError if
    any coefficient of degree n or higher survives, since all h* information
    lives below degree n.
    """
    n, k, r = spec.n, spec.k, spec.r
    last = (k - 1) // r  # the last i whose part bound k - r*i is at least 1
    total = [0] * (n + last + 1)
    for i in range(last + 1):
        weight = (-1) ** i * math.comb(n, i)
        for degree, c in enumerate(_shifted_series(n, k - r * i, i, n)):
            total[degree] += weight * c
    for degree in range(n, len(total)):
        if total[degree]:
            raise AssertionError(
                f"series numerator has a nonzero coefficient at degree {degree}; "
                "degrees n and above must cancel"
            )
    return tuple(total[:n])


def _shifted_series(n: int, a: int, s: int, top: int) -> list[int]:
    """All top + s + 1 coefficients of

        sum_(j <= min(s, n)) C(s,j) (t-1)**j sum_(l <= top) <n-j : l*a>_a t**l,

    the series side of the series-shift identity, with (t-1)**j expanded as
    sum_e C(j,e) (-1)**(j-e) t**e.  Rows j > n have a negative upper index
    and are zero.
    """
    out = [0] * (top + s + 1)
    for j in range(min(s, n) + 1):
        shift = [math.comb(s, j) * math.comb(j, e) * (-1) ** (j - e) for e in range(j + 1)]
        for l in range(top + 1):
            c = restricted_coeff(n - j, l * a, a)
            if c:
                for e, q in enumerate(shift):
                    out[l + e] += c * q
    return out


def check_lemma1(n: int, m: int, a: int) -> bool:
    """First-difference identity for bounded-part coefficients:

        <n : m>_a - <n : m-1>_a == <n-1 : m>_a - <n-1 : m-a>_a

    for n, m, a >= 1.
    """
    _require_ints(n=n, m=m, a=a)
    lhs = restricted_coeff(n, m, a) - restricted_coeff(n, m - 1, a)
    rhs = restricted_coeff(n - 1, m, a) - restricted_coeff(n - 1, m - a, a)
    return lhs == rhs


def check_prop1(s: int, a: int, n: int, max_degree: int) -> bool:
    """Series-shift identity: the truncations to max_degree of

        sum_j C(s,j) (t-1)**j sum_l <n-j : l*a>_a t**l
        sum_l <n : l*a - s>_a t**l

    agree coefficientwise.  The identity holds for 0 <= s <= n; rows with a
    negative upper index are treated as zero, so calling with s > n reports
    the genuine failure instead of raising.  n may be 0, the empty power.
    """
    _require_ints({**_LEAST, "n": 0}, s=s, a=a, n=n, max_degree=max_degree)
    lhs = _shifted_series(n, a, s, max_degree)[: max_degree + 1]
    rhs = [restricted_coeff(n, l * a - s, a) for l in range(max_degree + 1)]
    return lhs == rhs


def count_dosps(k: int, n: int, d: int) -> int:
    """Number of partitions of type (k, n) with winding number d, <n : k*d>_k;
    equals the length of the winding-vector stream."""
    _require_ints(k=k, n=n, d=d)
    return restricted_coeff(n, k * d, k)
