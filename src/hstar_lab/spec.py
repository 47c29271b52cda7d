"""The slice, its h*-vector, the frozen record base, the integer-argument
rule and the cache bounded by bytes: all that the formula (hstar, coeffcore),
enum (enumeration, dosp) and oracle modules share.  It imports nothing from
the package, so the three methods meet only here and share no arithmetic.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from functools import wraps
from typing import Iterable

__all__ = ["PolytopeSpec", "HStarVector"]


class _Frozen:
    """Base of the frozen record classes PolytopeSpec, HStarVector and
    dosp.Dosp.  A subclass names its fields in __slots__ and stores them with
    object.__setattr__ in its __init__; assigning or deleting a field then
    raises AttributeError.  Two records are equal when they are of the same
    class with equal fields, and hash as the tuple of their fields.  Pickle
    and copy rebuild a record through its __init__."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class PolytopeSpec(_Frozen):
    """The slice of the cube [0, r]**n at coordinate sum k; r = 1 gives the
    hypersimplex.  Requires ints with 0 < k < r*n so the slice has dimension n - 1."""

    __slots__ = ("r", "k", "n")

    def __init__(self, r: int, k: int, n: int):
        _require_ints({}, r=r, k=k, n=n)  # types only: the CLI prints the ranges
        if r < 1:
            raise ValueError("coordinate cap r must be at least 1")
        if n < 2:
            raise ValueError("ambient dimension n must be at least 2")
        if not 0 < k < r * n:
            raise ValueError(f"slice level k={k} must satisfy 0 < k < r*n = {r * n}")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)


class HStarVector(_Frozen):
    """Entries h*_0 .. h*_{n-1} of the Ehrhart series numerator of a slice.

    Entries are nonnegative integers with h*_0 = 1; their sum is the
    normalized volume of the slice.  Any sequence is stored as a tuple.
    """

    __slots__ = ("entries", "spec")

    def __init__(self, entries: Iterable[int], spec: PolytopeSpec):
        entries = tuple(entries)
        if len(entries) != spec.n:
            raise ValueError("one entry per degree 0..n-1 is required")
        if any(e < 0 for e in entries):
            raise ValueError("h*-vector entries must be nonnegative")
        if entries[0] != 1:
            raise ValueError("h*_0 must be 1")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "spec", spec)

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


_CacheInfo = namedtuple("_CacheInfo", "hits misses currsize nbytes maxbytes")


def _lru_by_size(charge, budget):
    """Decorator: a least-recently-used cache, typed as by lru_cache(typed=True),
    of a function of hashable arguments.  Each result is charged charge(result)
    bytes, and all but the newest entry may be evicted, oldest first, while
    the total passes budget(), which is read at each miss."""

    def decorate(fn):
        entries: OrderedDict = OrderedDict()  # key -> (result, charge), oldest first
        stats = [0, 0, 0]  # hits, misses, charged bytes held
        lookup, move_to_end = entries.get, entries.move_to_end

        @wraps(fn)
        def cached(*args, **kwargs):
            if kwargs:
                key = (*args, *kwargs.items(), *map(type, (*args, *kwargs.values())))
            else:  # the same key, built without the empty kwargs
                key = (*args, *map(type, args))
            hit = lookup(key)  # an entry is a pair, never None
            if hit is not None:
                move_to_end(key)
                stats[0] += 1
                return hit[0]
            stats[1] += 1
            result = fn(*args, **kwargs)
            entries[key] = (result, charge(result))
            stats[2] += entries[key][1]
            while stats[2] > budget() and len(entries) > 1:
                stats[2] -= entries.popitem(last=False)[1][1]
            return result

        def cache_clear() -> None:
            entries.clear()
            stats[:] = [0, 0, 0]

        cached.cache_info = lambda: _CacheInfo(stats[0], stats[1], len(entries), stats[2], budget())
        cached.cache_clear = cache_clear
        return cached

    return decorate
