"""Machine checks for the inclusion-exclusion sieve behind the
r-hypersimplicial count.

The sieve works over a ground set T of elements in 1..n-1 that are forced to
sit in r-bad blocks.  Integer arguments are checked by spec._require_ints and
the elements of T, or of parts, by _require_ground; dosps_with_bad_parts and
sieve_term also accept n, since check_prop3 sums sieve_term over every subset
of {1..n}.  For a set partition S of T, dosps_with_bad_parts lists the
partitions whose r-bad blocks contain every part of S; sieve_term is the
signed sum of those family sizes over all S.  Every partition in the sieve can
be spread into one whose forced elements are bad singleton blocks
(spread_bad_parts); runs of consecutive marked singleton blocks at gap exactly
r with increasing elements are the obstruction.  Every such run starts with a
packed pair (_packed_pairs), and run_free_family, the one reader of the pair
postings, drops the members carrying a pair of marked elements.  Run-free
members are counted by second winding vectors, plain tuples like winding
vectors: color the spot of each marked singleton and its r-1 trailing empties
red, and record blue spots passed between consecutive elements: dosp's
winding-vector read-off, _spots_passed, with the red spots skipped.
dosp_from_second_winding_vector checks every bound of a vector it is given;
second_winding_vector checks only the one its read-off can break, a zero entry
for a marked element; the stream is in bounds by construction.  Each of the
two is its checks of the arguments plus a private kernel written once
(_read_off, _rebuild): verify's prop5 suite checks each case once, through
the public pair on the case's first member, and runs the kernels on the
others.  check_prop3
and check_prop4 verify the two collapsing steps of the sieve, and
sieve_term_closed_form is the resulting closed form, checked by the eq6 sweep.

The materialized families (dosp_family) and their postings are cached
within 32 MiB of charged bytes, and the set partitions of each ground within
1 MiB, so memory stays bounded.  Members are slotted
records sharing equal blocks and gap tuples, which the spot-mask constructor
in dosp interns.  Each family is indexed once per r by bitmask postings: bit
i of a posting stands for the i-th member in stream order, and there is one
posting per r-bad block (the members holding it) and one per packed pair
(the members carrying it).  The sieve readers AND and clear postings instead
of scanning members, and pick the members they return by bit.  Family
members and rebuilt partitions are valid by construction, so they are stored
without Dosp's checks; only the spread of spread_bad_parts goes through the
checked constructor.
"""

from __future__ import annotations

from itertools import chain, compress
from operator import add
from sys import getsizeof
from typing import Iterable, Iterator, NamedTuple

from .coeffcore import restricted_coeff
from .dosp import (
    Dosp,
    _block_of_mask,
    _dosp_from_spot_masks,
    _spots_passed,
    _walk,
    r_bad_blocks,
)
from .enumeration import bounded_vectors, count_r_hypersimplicial, iter_dosps
from .spec import _lru_by_size, _require_ints

__all__ = [
    "SetPartition",
    "unordered_partitions",
    "dosp_family",
    "dosps_with_bad_parts",
    "sieve_term",
    "sieve_term_closed_form",
    "spread_bad_parts",
    "spread_image",
    "run_free_family",
    "second_winding_vector",
    "dosp_from_second_winding_vector",
    "enumerate_second_winding_vectors",
    "check_prop4",
    "check_prop3",
]

# a set partition: disjoint frozensets, sorted by least element
SetPartition = tuple[frozenset[int], ...]

# stored-size bounds of the family and postings caches, in bytes: 32 MiB together
_FAMILY_CACHE_BYTES = 24 << 20
_POSTINGS_CACHE_BYTES = 8 << 20
# stored-size bound of the set-partition cache, in bytes
_PARTITIONS_CACHE_BYTES = 1 << 20


def unordered_partitions(elements: Iterable[int]) -> list[SetPartition]:
    """All set partitions of the given elements, each exactly once; the count
    is the Bell number of the size.  The empty set has exactly the empty
    partition.  As in a ground set, elements must be ints, bools refused.
    Each call returns a new list of the partitions cached for the ground."""
    elems = list(elements)
    for e in elems:  # before the set below, which would merge True into 1
        if type(e) is not int:
            raise TypeError(f"ground element {e!r} is not an integer")
    return list(_partitions_of(tuple(sorted(set(elems)))))


def _partitions_bytes(partitions: tuple[SetPartition, ...]) -> int:
    # an upper bound: sys.getsizeof of the tuple, of each partition, of each
    # distinct block (its hash table included), since _partitions_of stores
    # equal blocks as one object, and of each element, which the blocks
    # share, plus 16 bytes of alignment per object
    objects = [partitions, *partitions, *set(chain(*partitions)), *chain(*partitions[0])]
    return sum(map(getsizeof, objects)) + 16 * len(objects)


@_lru_by_size(_partitions_bytes, lambda: _PARTITIONS_CACHE_BYTES)
def _partitions_of(ground: tuple[int, ...]) -> tuple[SetPartition, ...]:
    """The set partitions of the sorted, distinct ints in ground.  Equal
    blocks of the entry are one object, shared through a dict of this call:
    not _block_of_mask's cache, since a ground may hold ints too large for a
    bitmask."""
    partial: list[list[list[int]]] = [[]]
    for e in ground:
        grown: list[list[list[int]]] = []
        for parts in partial:
            for i in range(len(parts)):
                grown.append([p + [e] if j == i else p for j, p in enumerate(parts)])
            grown.append(parts + [[e]])
        partial = grown
    shared: dict[frozenset[int], frozenset[int]] = {}
    blocks = [[shared.setdefault(b, b) for b in map(frozenset, parts)] for parts in partial]
    return tuple(map(_normalize_parts, blocks))


def _normalize_parts(parts: Iterable[Iterable[int]]) -> SetPartition:
    return tuple(sorted((frozenset(p) for p in parts), key=min))


def _require_ground(ground: Iterable[int], n: int, r: int, top: bool = False) -> frozenset[int]:
    """Check r (inline first: prop4's spreads call this once per member),
    then that each element as given is an int in 1..n-1 (1..n if top); only
    then return them as a frozenset, which merges True into 1 (a frozenset
    given cannot hold both)."""
    if type(r) is not int or r < 1:
        _require_ints(r=r)
    elems = ground if type(ground) is frozenset else tuple(ground)
    for t in elems:
        if type(t) is not int:
            raise TypeError(f"ground element {t!r} is not an integer")
        if not 1 <= t <= n:
            raise ValueError(f"ground element {t} outside 1..{n}")
    ground = frozenset(elems)
    if n in ground and not top:
        raise ValueError(f"ground set must not contain {n}")
    return ground


def _require_parts(parts, n: int, r: int, top: bool = False) -> list[frozenset[int]]:
    """The parts as frozensets, once _require_ground has checked their elements."""
    parts = list(map(tuple, parts))
    _require_ground(chain(*parts), n, r, top)
    return list(map(frozenset, parts))


# charged per member: a slot, a 64-byte record and a tuple of at most n
# shared blocks (40 bytes and 8 per block, 16-byte alignment), an upper bound
@_lru_by_size(lambda f: 64 + sum(120 + 8 * p.n for p in f), lambda: _FAMILY_CACHE_BYTES)
def dosp_family(k: int, n: int, d: int) -> tuple[Dosp, ...]:
    """All partitions of type (k, n) with winding number d, materialized in
    stream order.  Meant for desk-scale exhaustive checks.

    Members share equal blocks and equal gap tuples: a family over {1..n}
    has at most 2**n - 1 distinct blocks and 2**(k-1) distinct gap tuples,
    and dosp_from_winding_vector takes each from a process-wide intern
    cache, so each is stored once however many members hold it.  Verify
    builds 120 families and evicts none; a bool key misses.
    """
    return tuple(iter_dosps(k, n, d))


class _Postings(NamedTuple):
    """Bitmask postings of one family for one r, bit i standing for the i-th
    member in stream order: all members, the members holding each r-bad
    block, and the members carrying each packed pair (e, f) (see
    _packed_pairs)."""

    everyone: int
    by_block: dict[frozenset[int], int]
    by_pair: dict[tuple[int, int], int]


def _postings_bytes(p: _Postings) -> int:
    # an upper bound: per posting a dict entry, a pair key and an int of one
    # bit per member (4 bytes per 30 bits, 28-byte header, 16-byte alignment)
    return 512 + (len(p.by_block) + len(p.by_pair)) * (208 + p.everyone.bit_length() // 7)


@_lru_by_size(_postings_bytes, lambda: _POSTINGS_CACHE_BYTES)
def _family_with_bad_blocks(k: int, n: int, d: int, r: int) -> _Postings:
    """The postings of dosp_family(k, n, d) for r, built in one pass over the
    family, with no reference to the members themselves.  Only run_free_family
    reads the pair postings, but they pay for themselves: with them read off
    each member instead, verify --suite all ran 8 % slower (1.98 against
    1.83 s, slower in 9 of 10 alternated runs; Python 3.11.7, 2 cores)."""
    family = dosp_family(k, n, d)
    by_block: dict[frozenset[int], int] = {}
    by_pair: dict[tuple[int, int], int] = {}
    bit = 1
    for p in family:
        bad = r_bad_blocks(p, r)
        for block in bad:
            by_block[block] = by_block.get(block, 0) | bit
        # both blocks of a packed pair are r-bad singletons
        if sum(len(block) == 1 for block in bad) > 1:
            for pair in _packed_pairs(p, r):
                by_pair[pair] = by_pair.get(pair, 0) | bit
        bit <<= 1
    return _Postings(bit - 1, by_block, by_pair)


def _holding(postings: _Postings, parts) -> int:
    """Bitmask of the members whose r-bad blocks contain every given frozenset."""
    mask = postings.everyone
    for part in parts:
        mask &= postings.by_block.get(part, 0)
    return mask


# bytes.translate table turning the digits of a mask's binary string into
# the 0/1 selector bytes that itertools.compress reads
_SELECTOR = bytes.maketrans(b"01", b"\x00\x01")


def _members(family: tuple[Dosp, ...], mask: int) -> list[Dosp]:
    """The members whose bits are set in mask, in stream order."""
    return list(compress(family, bin(mask)[:1:-1].encode().translate(_SELECTOR)))


def dosps_with_bad_parts(k: int, n: int, d: int, r: int, parts) -> list[Dosp]:
    """Partitions of type (k, n) with winding number d whose set of r-bad
    blocks contains every given part as a block, in stream order."""
    _require_ints(k=k, n=n, d=d)
    parts = _require_parts(parts, n, r, top=True)
    mask = _holding(_family_with_bad_blocks(k, n, d, r), parts)
    return _members(dosp_family(k, n, d), mask)


def sieve_term(k: int, n: int, d: int, r: int, ground: Iterable[int]) -> int:
    """Signed sum over all set partitions S of the ground set of the number
    of partitions whose r-bad blocks contain S, weighted by (-1)**|S|."""
    _require_ints(k=k, n=n, d=d)
    ground = _require_ground(ground, n, r, top=True)
    postings = _family_with_bad_blocks(k, n, d, r)
    total = 0
    for parts in unordered_partitions(ground):
        total += (-1) ** len(parts) * _holding(postings, parts).bit_count()
    return total


def sieve_term_closed_form(k: int, n: int, d: int, r: int, m: int) -> int:
    """Predicted sieve term for any ground set of size m avoiding n:
    (-1)**m times the coefficient of t**((k-r*m)*d - m) in the (k-r*m)-bounded
    power."""
    _require_ints(k=k, n=n, d=d, r=r, m=m)
    a = k - r * m
    return (-1) ** m * restricted_coeff(n, a * d - m, a)


def spread_bad_parts(partition: Dosp, r: int, parts) -> Dosp:
    """Replace each given part, which must occur as an r-bad block, by its
    elements in increasing order as consecutive singleton blocks: the first
    ones at gap exactly r, the last keeping the remainder of the original
    gap.  Other blocks are untouched and the winding number is preserved."""
    required = set(_require_parts(parts, partition.n, r))
    new_blocks: list[frozenset[int]] = []
    new_gaps: list[int] = []
    found: set[frozenset[int]] = set()
    for block, gap in zip(partition.blocks, partition.gaps):
        if block in required:
            size = len(block)
            if gap < r * size:
                raise ValueError(f"block {sorted(block)} is not r-bad for r={r}")
            elems = sorted(block)
            for e in elems[:-1]:
                new_blocks.append(frozenset((e,)))
                new_gaps.append(r)
            new_blocks.append(frozenset((elems[-1],)))
            new_gaps.append(gap - r * (size - 1))
            found.add(block)
        else:
            new_blocks.append(block)
            new_gaps.append(gap)
    if found != required:
        missing = sorted(next(iter(required - found)))
        raise ValueError(f"part {missing} is not a block of the partition")
    return Dosp(tuple(new_blocks), tuple(new_gaps), partition.k, partition.n)


def spread_image(k: int, n: int, d: int, r: int, parts) -> frozenset[Dosp]:
    """Image of spread_bad_parts over the family whose r-bad blocks contain
    the given parts, which are read once (the readers below check them)."""
    parts = list(map(tuple, parts))
    return frozenset(
        spread_bad_parts(q, r, parts) for q in dosps_with_bad_parts(k, n, d, r, parts)
    )


def run_free_family(k: int, n: int, d: int, r: int, ground: Iterable[int]) -> list[Dosp]:
    """Members of the family whose marked elements all sit in r-bad singleton
    blocks and which carry no increasing packed run of length greater than 1."""
    _require_ints(k=k, n=n, d=d)
    ground = _require_ground(ground, n, r)
    postings = _family_with_bad_blocks(k, n, d, r)
    mask = _holding(postings, [frozenset((t,)) for t in ground])
    # drop the members carrying a packed pair of marked elements
    for (e, f), carriers in postings.by_pair.items():
        if e in ground and f in ground:
            mask &= ~carriers
    return _members(dosp_family(k, n, d), mask)


def _packed_pairs(partition: Dosp, r: int) -> list[tuple[int, int]]:
    """The packed pairs (e, f): consecutive singleton blocks {e}, {f}
    (cyclic) with e < f, the gap of {e} exactly r and the gap of {f} at
    least r.  A pair with both elements marked is a packed run of two, and
    any longer run starts with one, since the gaps inside a run are exactly
    r."""
    single = [min(b) if len(b) == 1 else 0 for b in partition.blocks]
    gaps = partition.gaps
    return [
        (e, f)
        for e, f, gap, next_gap in zip(single, single[1:] + single[:1], gaps, gaps[1:] + gaps[:1])
        if gap == r and 0 < e < f and next_gap >= r
    ]


def second_winding_vector(partition: Dosp, r: int, ground: Iterable[int]) -> tuple[int, ...]:
    """The second winding vector, read off by dosp's _spots_passed with the
    red spots skipped: v_i counts the blue spots passed on the clockwise walk
    from the spot of i to the spot of i+1, the end counted and not the start.
    It is _require_ground's checks of r and the ground plus the kernel
    _read_off, which verify's prop5 suite runs on every member of a case
    after the first.

    Raises ValueError when a marked element is not a singleton block or lacks
    the r-1 empty trailing spots, or when a marked element shares its blue
    spot with the next element, so that its entry reads 0.  That is the only
    second-winding bound a vector read off can break: unmarked elements sit
    on blue spots, so their entries stay below the blue count; marked
    entries are at most the blue count; the sum is the blue count times the
    winding number; and n, unmarked, leaves at least one blue spot.
    """
    return _read_off(partition, r, _require_ground(ground, partition.n, r))


def _read_off(partition: Dosp, r: int, ground: frozenset[int]) -> tuple[int, ...]:
    """second_winding_vector's kernel, for an int r >= 1 and a ground that
    _require_ground returned for the partition's n; memory grows with n, not k."""
    # each marked singleton colors its spot and the r-1 spots after it red,
    # and the read-off skips those r spots, one skip count per block; they
    # are empty exactly when its gap label is at least r.  A fault names the
    # least marked element at fault.
    skips = []
    faults = []
    for block, gap in zip(partition.blocks, partition.gaps):
        marked = not ground.isdisjoint(block)
        if marked and len(block) > 1:
            t = min(ground & block)
            faults.append((t, f"marked element {t} is not a singleton block"))
        elif marked and gap < r:
            (t,) = block
            faults.append((t, f"singleton block {{{t}}} needs {r - 1} empty spots after it"))
        skips.append(r if marked else 0)
    if faults:
        raise ValueError(min(faults)[1])
    v = _spots_passed(partition, skips)
    for t in ground:
        if not v[t - 1]:  # name the least marked element whose entry reads 0
            t = min(t for t in ground if not v[t - 1])
            blue = partition.k - r * len(ground)
            raise ValueError(f"entry v_{t}=0 outside 1..{blue} for a marked element")
    return v


def dosp_from_second_winding_vector(
    v: Iterable[int], k: int, r: int, ground: Iterable[int]
) -> Dosp:
    """The unique run-free partition of circle size k whose second winding
    vector for r and the marked ground set is v.  It is the checks below plus
    the kernel _rebuild, which verify's prop5 suite runs on every member of a
    case after the first, with _rebuild_case's arguments made once per case.

    _walk places the elements on a circle of blue spots; each marked element
    of a blue block is then spread clockwise behind the rest of its block,
    largest first, as a singleton followed by r-1 empty spots, into the
    spot-mask list for _dosp_from_spot_masks, laid out with the block holding
    1 on spot 0, as that builder requires.  Inverse of
    second_winding_vector; v may be any sequence and ground any iterable.
    ValueError or TypeError is raised, before any walk, when they break the
    second-winding bounds or v, k or r is not integer: marked entries lie in
    1..blue, the others in 0..blue-1, and the entry sum is blue times the
    winding number, where blue = k - r*|ground| is the blue spot count.  r
    must be at least 1 not to lay marked spots over one another.
    """
    v = tuple(v)
    if not v:
        raise ValueError("vector must be nonempty")
    _require_ints(k=k)
    ground = _require_ground(ground, len(v), r)
    blue = k - r * len(ground)
    if blue < 1:
        raise ValueError("k - r*|ground| must be positive")
    for i, vi in enumerate(v, start=1):
        if type(vi) is not int:
            raise TypeError("second winding entries must be integers")
        if i in ground:
            if not 1 <= vi <= blue:
                raise ValueError(f"entry v_{i}={vi} outside 1..{blue} for a marked element")
        elif not 0 <= vi <= blue - 1:
            raise ValueError(f"entry v_{i}={vi} outside 0..{blue - 1}")
    if sum(v) % blue:
        raise ValueError("entries must sum to a multiple of the blue spot count")
    return _rebuild(v, k, *_rebuild_case(k, r, ground))


def _rebuild_case(k: int, r: int, ground: frozenset[int]) -> tuple[int, int, list[int]]:
    """_rebuild's arguments after v and k, which depend only on the case: the
    blue count, the marked bits (bit t-1 for each marked t) and the r-1 pad,
    empty with nothing marked.  dosp_from_second_winding_vector makes them
    after its checks, so that a pad is never longer than the circle."""
    pad = [0] * (r - 1) if ground else []
    return k - r * len(ground), sum(map((1).__lshift__, ground)) >> 1, pad


def _rebuild(v: tuple[int, ...], k: int, blue: int, marked: int, pad: list[int]) -> Dosp:
    """dosp_from_second_winding_vector's kernel, for a vector in the
    second-winding bounds and the case arguments of _rebuild_case."""
    on_blue = _walk(v, blue)
    # each blue spot expands to one spot, holding its unmarked elements if
    # any, followed by r spots per marked element, largest first
    unmarked = ~marked
    masks = []
    for mask in on_blue:
        masks.append(mask & unmarked)
        mask &= marked
        while mask:
            top = 1 << (mask.bit_length() - 1)
            masks.append(top)
            masks += pad
            mask ^= top
    if len(masks) != k:
        raise AssertionError("spot expansion must fill the whole circle")
    if marked & 1:  # element 1 sits alone on its spot: turn that spot to spot 0
        one = masks.index(1)
        masks = masks[one:] + masks[:one]
    return _dosp_from_spot_masks(masks, k, len(v))


def enumerate_second_winding_vectors(
    k: int, n: int, d: int, r: int, ground: Iterable[int]
) -> Iterator[tuple[int, ...]]:
    """All vectors satisfying the second-winding bounds for the given ground
    set and winding number d, in lexicographic order of the shifted vector.
    They are in bounds by construction, so none is checked."""
    _require_ints(k=k, n=n, d=d)
    ground = _require_ground(ground, n, r)
    blue = k - r * len(ground)
    if blue < 1:
        return
    low = tuple(int(i in ground) for i in range(1, n + 1))  # 1 for a marked element
    for shifted in bounded_vectors(n, blue - 1, blue * d - len(ground)):
        yield tuple(map(add, shifted, low))


def check_prop4(k: int, n: int, d: int, r: int, ground: Iterable[int]) -> bool:
    """Over the set partitions S of the ground set, the signed count of the S
    whose spread image holds a partition is (-1)**|ground| on run-free members
    and 0 on every other one: one equality over the family.  Each S adds
    (-1)**|S| per member it spreads, which counts its image (spreads are 1-1)."""
    _require_ints(k=k, n=n, d=d)
    ground = _require_ground(ground, n, r)
    postings = _family_with_bad_blocks(k, n, d, r)
    family = dosp_family(k, n, d)
    signed: dict[Dosp, int] = {}
    for parts in unordered_partitions(ground):
        sign = (-1) ** len(parts)
        for q in _members(family, _holding(postings, parts)):
            spread = spread_bad_parts(q, r, parts)
            signed[spread] = signed.get(spread, 0) + sign
    nonzero = {p: count for p, count in signed.items() if count}
    return nonzero == dict.fromkeys(run_free_family(k, n, d, r, ground), (-1) ** len(ground))


def check_prop3(k: int, n: int, r: int, d: int) -> bool:
    """Prop 3 as stated: the sieve terms of all subsets of {1..n} sum to the
    count of r-hypersimplicial partitions of type (k, n), winding number d."""
    _require_ints(k=k, n=n, r=r, d=d)
    total = sum(sieve_term(k, n, d, r, _block_of_mask(mask)) for mask in range(2**n))
    return total == count_r_hypersimplicial(k, n, r, d)
