"""The slice, its h*-vector and the integer-argument rule: all that the
formula (hstar, coeffcore), enum (enumeration, dosp) and oracle modules
share.  It imports nothing from the package, so the three methods meet only
here and share no arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PolytopeSpec", "HStarVector"]


@dataclass(frozen=True)
class PolytopeSpec:
    """The slice of the cube [0, r]**n at coordinate sum k; r = 1 gives the
    hypersimplex.  Requires ints with 0 < k < r*n so the slice has dimension n - 1."""

    r: int
    k: int
    n: int

    def __post_init__(self):
        _require_ints({}, r=self.r, k=self.k, n=self.n)  # types only: the CLI prints the ranges
        if self.r < 1:
            raise ValueError("coordinate cap r must be at least 1")
        if self.n < 2:
            raise ValueError("ambient dimension n must be at least 2")
        if not 0 < self.k < self.r * self.n:
            raise ValueError(f"slice level k={self.k} must satisfy 0 < k < r*n = {self.r * self.n}")


@dataclass(frozen=True)
class HStarVector:
    """Entries h*_0 .. h*_{n-1} of the Ehrhart series numerator of a slice.

    Entries are nonnegative integers with h*_0 = 1; their sum is the
    normalized volume of the slice.  Any sequence is stored as a tuple.
    """

    entries: tuple[int, ...]
    spec: PolytopeSpec

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if len(self.entries) != self.spec.n:
            raise ValueError("one entry per degree 0..n-1 is required")
        if any(e < 0 for e in self.entries):
            raise ValueError("h*-vector entries must be nonnegative")
        if self.entries[0] != 1:
            raise ValueError("h*_0 must be 1")

    def total(self) -> int:
        """Sum of the entries, the normalized volume."""
        return sum(self.entries)


# least value of each integer argument by name; a name absent from the table is only type-checked
_LEAST = {
    **dict.fromkeys(("k", "n", "r", "a"), 1),
    **dict.fromkeys(("d", "m", "s", "t", "max_degree", "length", "bound", "shift"), 0),
}


def _require_ints(least: dict[str, int] = _LEAST, /, **values: int) -> None:
    """Raise TypeError("<name> must be an integer") unless each named value is an
    int (a bool is not), ValueError("<name> must be at least <low>") below least[name]."""
    for name in values:
        value = values[name]
        if type(value) is not int:
            raise TypeError(f"{name} must be an integer")
        if name in least and value < least[name]:
            raise ValueError(f"{name} must be at least {least[name]}")
