"""Ehrhart-Macdonald reciprocity and the two end coefficients, as a check of
an h*-vector of the slice I(r, k, n) against lattice data that neither the
formula nor the oracle computes: the interior points of its dilates.

For 0 < k < rn the slice has dimension n - 1, and reciprocity (Stanley,
Enumerative Combinatorics I, 4.6; Beck-Robins, Computing the Continuous
Discretely, ch. 4) reads

    L°(t) = sum_i h*_i C(t + i - 1, n - 1)    for t >= 1,

where L°(t) counts the points of {1..rt-1}^n with coordinate sum kt.  The
end coefficients are h*_1 = L(1) - n and h*_(n-1) = L°(1).  The counts use
math.comb alone; nothing here comes from the package.
"""

from math import comb


def capped_count(n: int, cap: int, total: int) -> int:
    """Points of {0..cap}^n with coordinate sum total, by inclusion-exclusion
    over the coordinates forced above cap."""
    if cap < 0 or total < 0:
        return 0
    return sum(
        (-1) ** j * comb(n, j) * comb(total - j * (cap + 1) + n - 1, n - 1)
        for j in range(min(n, total // (cap + 1)) + 1)
    )


def interior_count(r: int, k: int, n: int, t: int) -> int:
    """L°(t): the points of {1..rt-1}^n with sum kt, counted as the points
    of {0..rt-2}^n with sum kt - n."""
    return capped_count(n, r * t - 2, k * t - n)


def reciprocity_faults(r: int, k: int, n: int, hstar) -> list[str]:
    """The facts that hstar, given as the h*-vector of I(r, k, n), breaks:
    "h*_1", "h*_(n-1)", then "L°(t)" for each t in 1..n+1 where reciprocity
    fails.  Empty when hstar passes; the checks at t = 1..n alone fix every
    entry, since the coefficient of h*_i vanishes for t < n - i."""
    faults = []
    if hstar[1] != capped_count(n, r, k) - n:
        faults.append("h*_1")
    if hstar[n - 1] != interior_count(r, k, n, 1):
        faults.append("h*_(n-1)")
    for t in range(1, n + 2):
        series = sum(h * comb(t + i - 1, n - 1) for i, h in enumerate(hstar))
        if series != interior_count(r, k, n, t):
            faults.append(f"L°({t})")
    return faults
