"""Decorated ordered set partitions on a circle of k spots.

A decorated ordered set partition of type (k, n) is an ordered partition of
{1..n} into blocks placed clockwise on a circle, together with positive gap
labels summing to k; the label of a block is the clockwise distance to the
next block.  Rotating the block list does not change the object, so a Dosp
stores the canonical rotation, with the block containing 1 first.

The winding vector of a partition, a plain tuple, records for each i the
clockwise distance from the block of i to the block of i+1 (indices cyclic in
{1..n}); its entry sum is k times the winding number.  _walk lays a vector's
elements on spots and _spots_passed reads a vector off; both serve sieve's
second winding vectors too.  A block is r-bad when its gap label is at least
r times its size, and a partition with no r-bad block is r-hypersimplicial.
"""

from __future__ import annotations

import operator
import re
from functools import lru_cache
from itertools import compress
from typing import Iterable

from .spec import _Frozen, _require_ints

__all__ = [
    "Dosp",
    "parse_dosp",
    "format_dosp",
    "winding_vector",
    "winding_number",
    "dosp_from_winding_vector",
    "cyclic_shift_elements",
    "r_bad_blocks",
    "is_r_hypersimplicial",
]


class Dosp(_Frozen):
    """Ordered blocks partitioning {1..n} with positive gap labels summing to k.

    Dosp(...) reads each block once, checks its input item by item and names
    the first fault.  Blocks and gaps may be given in any rotation; the
    canonical one, with the block containing 1 first, is stored, so one
    partition is one value.  Only _dosp_from_spot_masks, whose partitions are
    valid by construction, stores the fields without these checks.
    """

    __slots__ = ("blocks", "gaps", "k", "n")

    def __init__(self, blocks: Iterable[Iterable[int]], gaps: Iterable[int], k: int, n: int):
        _require_ints(k=k, n=n)
        blocks, gaps = tuple(map(tuple, blocks)), tuple(gaps)
        if not blocks:
            raise ValueError("at least one block is required")
        if len(blocks) != len(gaps):
            raise ValueError("blocks and gap labels must have equal length")
        seen: set[int] = set()
        total = 0
        for block, gap in zip(blocks, gaps):
            if not block:
                raise ValueError("blocks must be nonempty")
            if type(gap) is not int:
                raise TypeError(f"gap label {gap!r} is not an integer")
            if gap < 1:
                raise ValueError(f"nonpositive gap label {gap}")
            total += gap
            for e in block:
                if type(e) is not int:
                    raise TypeError(f"element {e!r} is not an integer")
                if e in seen:
                    raise ValueError(f"duplicate element {e}")
                if not 1 <= e <= n:
                    raise ValueError(f"element {e} outside 1..{n}")
                seen.add(e)
        if total != k:
            raise ValueError(f"gap labels sum to {total}, expected k={k}")
        if len(seen) != n:
            missing = sorted(set(range(1, n + 1)) - seen)
            raise ValueError(f"missing elements {missing}")
        # stored canonical, as a tuple of frozensets from the block holding 1
        # and a tuple of gaps, so equal partitions hash equal
        blocks = tuple(map(frozenset, blocks))
        i = next(i for i, block in enumerate(blocks) if 1 in block)
        object.__setattr__(self, "blocks", blocks[i:] + blocks[:i])
        object.__setattr__(self, "gaps", gaps[i:] + gaps[:i])
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)

    # the field tuples written out: prop5 compares and prop2 and prop4 hash
    # partitions by the thousand
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.blocks, self.gaps, self.k, self.n) == (
            other.blocks, other.gaps, other.k, other.n
        )

    def __hash__(self):
        return hash((self.blocks, self.gaps, self.k, self.n))

    def __str__(self) -> str:
        return format_dosp(self)


def format_dosp(partition: Dosp) -> str:
    """Render as ({a,b}_l,...) with ascending elements inside each block."""
    pieces = []
    for block, gap in zip(partition.blocks, partition.gaps):
        body = ",".join(str(e) for e in sorted(block))
        pieces.append("{%s}_%d" % (body, gap))
    return "(" + ",".join(pieces) + ")"


_DOSP_RE = re.compile(r"\(\{\d+(?:,\d+)*\}_\d+(?:,\{\d+(?:,\d+)*\}_\d+)*\)")
_BLOCK_RE = re.compile(r"\{(\d+(?:,\d+)*)\}_(\d+)")


def parse_dosp(text: str, k: int, n: int) -> Dosp:
    """Parse the ({..}_l,...) notation into a canonical partition of type (k, n).

    Whitespace is insignificant.  Raises ValueError with a distinct message
    for malformed syntax, duplicate or missing elements, a gap-label sum
    different from k, and nonpositive gap labels.
    """
    compact = "".join(text.split())
    if not _DOSP_RE.fullmatch(compact):
        raise ValueError(f"malformed decorated ordered set partition text: {text!r}")
    blocks: list[list[int]] = []
    gaps: list[int] = []
    for body, gap in _BLOCK_RE.findall(compact):
        blocks.append([int(e) for e in body.split(",")])
        gaps.append(int(gap))
    return Dosp(blocks, gaps, k, n)


def winding_vector(partition: Dosp) -> tuple[int, ...]:
    """Clockwise spot distance from the block of i to the block of i+1 for
    each i, with w_i = 0 when the two share a block."""
    return _spots_passed(partition, [0] * partition.k)


def _spots_passed(partition: Dosp, skips: list[int]) -> tuple[int, ...]:
    """For each element i, the spots passed on the clockwise walk from the
    block of i to the block of i+1, counting the end spot and not the start.
    The first stored block sits on spot 0 and each next block its gap label
    further clockwise.  The skips[q] spots from a block's spot q on, all
    before the next block, are not counted; with none skipped, this is the
    winding vector."""
    # at index e-1: (spot of the block of e, spots counted up to and including it)
    place = [(0, 0)] * partition.n
    q = counted = 0
    for block, gap in zip(partition.blocks, partition.gaps):
        here = (q, counted + (not skips[q]))
        for e in block:
            place[e - 1] = here
        counted += gap - skips[q]
        q += gap
    # a walk that wraps past spot 0 passes every counted spot once more
    walks = zip(place, place[1:] + place[:1])
    return tuple([end - start + (counted if to < at else 0) for (at, start), (to, end) in walks])


def winding_number(partition: Dosp) -> int:
    """Total winding vector length divided by k, an exact division."""
    total = sum(winding_vector(partition))
    if total % partition.k:
        raise AssertionError("entries of a valid winding vector sum to a multiple of k")
    return total // partition.k


@lru_cache(maxsize=4096)
def _gaps_between(occupied: tuple[int, ...], k: int) -> tuple[int, ...]:
    """Gap labels of the blocks on the given occupied spots, listed in
    increasing order on a circle of k spots: the clockwise distance from each
    spot to the next, the last one wrapping round to the first.

    Cached.  Spots that start at 0, as _dosp_from_spot_masks passes them, are
    fixed by their gap tuple, so the partitions built there share each gap
    tuple for as long as the entry is kept."""
    return tuple(map(operator.sub, (*occupied[1:], occupied[0] + k), occupied))


@lru_cache(maxsize=4096)
def _block_of_mask(mask: int) -> frozenset[int]:
    """The block whose elements are the set bits of mask, bit e-1 standing
    for element e; (1 << n) - 1 gives {1..n}, for the sieve.  Cached, so that
    equal blocks built anywhere in the process are one shared object for as
    long as the entry is kept."""
    return frozenset(e for e in range(1, mask.bit_length() + 1) if mask >> (e - 1) & 1)


@lru_cache(maxsize=16)
def _small_entries(k: int) -> frozenset[int]:
    """Entries 0..k-1 of a winding vector, up to 255, for one superset test."""
    return frozenset(range(min(k, 256)))


def dosp_from_winding_vector(w: Iterable[int], k: int) -> Dosp:
    """The unique partition of type (k, len(w)), returned canonical, whose
    winding vector is w.

    Entries must lie in 0..k-1 and sum to a multiple of k; _walk places 1 on
    spot 0 and each next element w_i spots further, and its spot-mask list
    goes to _dosp_from_spot_masks, which shares equal blocks and gap tuples.
    """
    if type(k) is not int or k < 1:  # inline: enum calls this once per vector
        _require_ints(k=k)
    w = tuple(w)
    n = len(w)
    if n == 0:
        raise ValueError("winding vector must be nonempty")
    try:  # one superset test passes entries that are small ints
        small = _small_entries(k).issuperset(w)
    except TypeError:  # an unhashable entry: min and max name the fault
        small = False
    if not small and (min(w) < 0 or max(w) > k - 1):
        bad = next(wi for wi in w if not 0 <= wi <= k - 1)
        raise ValueError(f"winding entry {bad} outside 0..{k - 1}")
    total = sum(w)
    if total % k:
        raise ValueError(f"winding entries sum to {total}, not a multiple of k={k}")
    # float entries pass the checks above but must not reach the walk, which
    # would give float spots and gaps
    if type(total) is not int:
        raise TypeError("winding entries must be integers")
    return _dosp_from_spot_masks(_walk(w, k), k, n)


def _walk(steps: Iterable[int], size: int) -> list[int]:
    """The bitmask of the elements on each of size spots round a circle,
    listed by spot, bit e-1 standing for element e: element 1 sits on spot
    0 and each next element steps[i] spots further clockwise."""
    masks = [0] * size
    q = 0
    bit = 1
    for step in steps:
        masks[q] += bit  # each bit once, so + is |, and int + runs specialized
        q = (q + step) % size
        bit += bit
    return masks


def _dosp_from_spot_masks(masks: list[int], k: int, n: int) -> Dosp:
    """The partition of type (k, n) with one block on each nonzero spot mask
    of the list masks, indexed by spot as _walk returns it, holding the
    elements set in that mask.  Element 1 must sit on spot 0, so the blocks
    come in the canonical rotation; the partition is valid by construction
    and its fields are stored by the slot setters, without Dosp's checks.
    Blocks come from _block_of_mask and gaps from _gaps_between, so equal
    ones are shared between the partitions built here.  No loop runs per spot."""
    if not masks[0] & 1:
        raise AssertionError("element 1 must sit on spot 0")
    partition = object.__new__(Dosp)
    _set_blocks(partition, tuple(map(_block_of_mask, filter(None, masks))))
    _set_gaps(partition, _gaps_between(tuple(compress(range(k), masks)), k))
    _set_k(partition, k)
    _set_n(partition, n)
    return partition


# Dosp's slot setters, bound once: cheaper than object.__setattr__ by name
_set_blocks, _set_gaps, _set_k, _set_n = (Dosp.__dict__[name].__set__ for name in Dosp.__slots__)


def cyclic_shift_elements(partition: Dosp, s: int) -> Dosp:
    """Relabel each element e as ((e-1+s) mod n)+1, keeping blocks and gaps.
    Preserves the winding number."""
    n = partition.n
    _require_ints(shift=s)
    if s >= n:
        raise ValueError(f"shift must lie in 0..{n - 1}")
    blocks = tuple(frozenset((e - 1 + s) % n + 1 for e in block) for block in partition.blocks)
    return Dosp(blocks, partition.gaps, partition.k, n)


def r_bad_blocks(partition: Dosp, r: int) -> frozenset[frozenset[int]]:
    """Blocks whose gap label is at least r times their size."""
    if type(r) is not int or r < 1:  # inline: the sieve calls this per family member
        _require_ints(r=r)
    return frozenset(
        block for block, gap in zip(partition.blocks, partition.gaps) if gap >= r * len(block)
    )


def is_r_hypersimplicial(partition: Dosp, r: int) -> bool:
    """True when every block satisfies 1 <= gap <= r*size - 1, i.e. no block
    is r-bad.  r is tested inline, since enum calls this once per vector."""
    if type(r) is not int or r < 1:
        _require_ints(r=r)
    for block, gap in zip(partition.blocks, partition.gaps):
        if gap >= r * len(block):
            return False
    return True
