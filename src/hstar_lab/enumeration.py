"""Streaming enumeration and counting of decorated ordered set partitions by
type and winding number, and the h*-vector obtained by direct counting.

Winding vectors are the enumeration backbone: by the bijection with
partitions, streaming all vectors with entries in 0..k-1 and sum k*d visits
every partition of type (k, n) with winding number d exactly once.  Counting
builds and filters one partition per streamed vector.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterator

from .dosp import Dosp, dosp_from_winding_vector, is_r_hypersimplicial
from .spec import HStarVector, PolytopeSpec, _require_ints

__all__ = [
    "bounded_vectors",
    "enumerate_winding_vectors",
    "iter_dosps",
    "count_r_hypersimplicial",
    "hstar_combinatorial",
]


def bounded_vectors(length: int, bound: int, total: int) -> Iterator[tuple[int, ...]]:
    """All integer vectors of the given length with entries in 0..bound and
    the given entry sum, in lexicographic order; all three must be ints."""
    _require_ints(length=length, bound=bound, total=total)
    if total < 0 or total > length * bound:
        return
    if length == 0:
        yield ()
        return
    # An odometer over the first length-1 entries; the last entry takes what
    # remains.  rest[i] is the sum left for entries i.., and entry i runs
    # from max(0, rest[i] - (last-i)*bound) up to min(bound, rest[i]).
    last = length - 1
    buf = [0] * length
    rest = [0] * length
    rem = total
    i = 0
    while True:
        for j in range(i, last):
            rest[j] = rem
            v = rem - (last - j) * bound
            if v < 0:
                v = 0
            buf[j] = v
            rem -= v
        buf[last] = rem
        yield tuple(buf)
        i = last - 1
        while i >= 0 and (buf[i] == bound or buf[i] == rest[i]):
            i -= 1
        if i < 0:
            return
        buf[i] += 1
        rem = rest[i] - buf[i]
        i += 1


def enumerate_winding_vectors(k: int, n: int, d: int) -> Iterator[tuple[int, ...]]:
    """Every vector with entries in 0..k-1 summing to k*d, as a plain tuple,
    lexicographically; empty when k*d exceeds n*(k-1).  Checked at the call."""
    _require_ints(k=k, n=n, d=d)
    return bounded_vectors(n, k - 1, k * d)


def iter_dosps(k: int, n: int, d: int) -> Iterator[Dosp]:
    """Canonical partitions of type (k, n) with winding number d, in the
    lexicographic order of their winding vectors."""
    for w in enumerate_winding_vectors(k, n, d):
        yield dosp_from_winding_vector(w, k)


def count_r_hypersimplicial(k: int, n: int, r: int, d: int) -> int:
    """Number of r-hypersimplicial partitions of type (k, n) with winding
    number d, by streaming winding vectors, converting each to a partition,
    and filtering."""
    _require_ints(r=r)
    # one build and one filter per vector, no Python loop; names read per count
    partitions = map(dosp_from_winding_vector, enumerate_winding_vectors(k, n, d), repeat(k))
    return sum(map(is_r_hypersimplicial, partitions, repeat(r)))


def hstar_combinatorial(spec: PolytopeSpec) -> HStarVector:
    """h*-vector of the slice by direct counting: entry d is the number of
    r-hypersimplicial partitions of type (k, n) with winding number d."""
    entries = tuple(
        count_r_hypersimplicial(spec.k, spec.n, spec.r, d) for d in range(spec.n)
    )
    return HStarVector(entries, spec)
