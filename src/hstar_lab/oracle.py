"""Independent Ehrhart ground truth for the cube cross sections.

lattice_count gives the exact number of lattice points of the t-th dilate,
that is, integer vectors with entries in 0..r*t summing to k*t.  The fast
route is the bounded-composition inclusion-exclusion count (Stanley,
Enumerative Combinatorics I, section 1.9): choose the i coordinates forced
above r*t, then count the free compositions with binomials.  It uses only
math.comb and shares no code with the coefficient tables of coeffcore, which
the formula reads.  Small instances are additionally counted by direct nested
enumeration.  hstar_from_oracle recovers the h*-vector from the counts by the
alternating sums that multiply the series by (1 - t)**n.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat
from operator import mul

from .spec import HStarVector, PolytopeSpec, _require_ints

__all__ = ["lattice_count", "lattice_count_direct", "hstar_from_oracle"]

# direct enumeration cross-check runs whenever t*r*n is at most this
_DIRECT_CHECK_BOUND = 24


def lattice_count_direct(spec: PolytopeSpec, t: int) -> int:
    """Count lattice points of the t-th dilate by walking coordinates one at
    a time; each admissible vector is reached exactly once."""
    _require_ints(t=t)
    cap = spec.r * t

    def rec(coords_left: int, remaining: int) -> int:
        if coords_left == 0:
            return 1 if remaining == 0 else 0
        total = 0
        lo = max(0, remaining - (coords_left - 1) * cap)
        hi = min(cap, remaining)
        for x in range(lo, hi + 1):
            total += rec(coords_left - 1, remaining - x)
        return total

    return rec(spec.n, spec.k * t)


def lattice_count(spec: PolytopeSpec, t: int) -> int:
    """Number of lattice points in the t-th dilate of the slice.

    Computed by inclusion-exclusion over the coordinates that exceed r*t:

        L(t) = sum_i (-1)**i C(n, i) C(k*t - i*(r*t + 1) + n - 1, n - 1)

    with the sum stopping once the top index goes negative.  Small instances
    (t*r*n <= 24) are cross-checked against the direct enumeration, and a
    mismatch raises AssertionError.
    """
    _require_ints(t=t)
    n = spec.n
    # term i reads C(top + n - 1, n - 1), whose upper index falls by r*t + 1
    # per i; the sum stops before it drops below n - 1, where top < 0
    uppers = range(spec.k * t + n - 1, n - 2, -(spec.r * t + 1))
    fast = sum(map(mul, _signed_binomials(n), map(math.comb, uppers, repeat(n - 1))))
    if t * spec.r * n <= _DIRECT_CHECK_BOUND:
        direct = lattice_count_direct(spec, t)
        if direct != fast:
            raise AssertionError(
                f"lattice count mismatch at t={t}: inclusion-exclusion {fast}, "
                f"enumeration {direct}")
    return fast


def hstar_from_oracle(spec: PolytopeSpec) -> HStarVector:
    """h*-vector recovered from the dilate counts L(0..n-1):

        h*_j = sum_{i=0..j} (-1)**i C(n, i) L(j - i)
    """
    counts = [lattice_count(spec, t) for t in range(spec.n)]
    signed = _signed_binomials(spec.n)
    entries = tuple(sum(map(mul, signed, reversed(counts[: j + 1]))) for j in range(spec.n))
    return HStarVector(entries, spec)


@lru_cache(maxsize=64)
def _signed_binomials(n: int) -> tuple[int, ...]:
    """(-1)**i C(n, i) for i = 0..n, the coefficients of (1 - t)**n."""
    return tuple((-1) ** i * math.comb(n, i) for i in range(n + 1))
