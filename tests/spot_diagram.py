"""The explicit circle of spots, kept as the reference walk that the tests
compare the package's spot arithmetic against: a partition is laid out spot
by spot, and red spots are found by looking at each spot in turn."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from hstar_lab.dosp import Dosp, _gaps_between


@dataclass(frozen=True)
class SpotDiagram:
    """Explicit circle of k spots; occupancy[q] is the block sitting on spot q,
    or None for an empty spot.  Spot indices increase clockwise."""

    k: int
    occupancy: tuple[Optional[frozenset[int]], ...]

    @classmethod
    def from_dosp(cls, partition: Dosp) -> SpotDiagram:
        """Place the first stored block on spot 0 and walk the gap labels."""
        spots: list[Optional[frozenset[int]]] = [None] * partition.k
        q = 0
        for block, gap in zip(partition.blocks, partition.gaps):
            spots[q] = block
            q = (q + gap) % partition.k
        return cls(partition.k, tuple(spots))

    def occupied_spots(self) -> list[int]:
        return [q for q, block in enumerate(self.occupancy) if block is not None]

    def blocks_and_gaps(self) -> tuple[tuple[frozenset[int], ...], tuple[int, ...]]:
        """Blocks read clockwise from the first occupied spot at or after 0,
        with the clockwise distance to the next occupied spot as gap."""
        occupied = self.occupied_spots()
        if not occupied:
            raise ValueError("diagram has no occupied spot")
        blocks = tuple(self.occupancy[q] for q in occupied)
        return blocks, _gaps_between(tuple(occupied), self.k)

    def to_dosp(self) -> Dosp:
        blocks, gaps = self.blocks_and_gaps()
        n = sum(len(b) for b in blocks)
        return Dosp(blocks, gaps, self.k, n)

    def red_spots(self, marked: Iterable[int], r: int) -> frozenset[int]:
        """Spots colored red relative to the marked elements: the spot of each
        singleton block {t}, t marked, plus the r-1 empty spots after it.
        Every other spot is blue.

        Raises ValueError when a marked element does not sit alone in a block
        or when one of the r-1 trailing spots is occupied.
        """
        spot_of_block: dict[frozenset[int], int] = {}
        holder: dict[int, int] = {}
        for q, block in enumerate(self.occupancy):
            if block is None:
                continue
            spot_of_block[block] = q
            for e in block:
                holder[e] = q
        red: set[int] = set()
        targets = sorted(set(marked))
        for t in targets:
            if t not in holder:
                raise ValueError(f"marked element {t} does not appear")
            q = holder[t]
            if self.occupancy[q] != frozenset((t,)):
                raise ValueError(f"marked element {t} is not a singleton block")
            for off in range(r):
                spot = (q + off) % self.k
                if off and self.occupancy[spot] is not None:
                    raise ValueError(
                        f"singleton block {{{t}}} needs {r - 1} empty spots after it")
                red.add(spot)
        # spans cannot overlap once the emptiness checks pass
        assert len(red) == r * len(targets)
        return frozenset(red)
