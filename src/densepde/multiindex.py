"""Multi-indices for partial derivatives, with graded lexicographic ordering."""

from __future__ import annotations

import math
from functools import lru_cache

from .frozen import Frozen


class MultiIndex(Frozen):
    """A tuple p of non-negative integers addressing the mixed partial D^p.

    Multi-indices key most dicts of the package, so this is the one value
    type that writes its own equality and hash instead of taking
    frozen.Value's (which made the seed-0 eikonal-float pipeline 15 %
    slower): the hash is computed once, in __init__, and equality compares
    the one field, by frozen.Value's rule.  multi_indices hands out one
    object per multi-index, so dict lookups match on identity.  The order
    |p| is stored too; factorial() is computed once per object.  Sums of
    multi-indices are taken in taylor's slot tables."""

    def __init__(self, entries: tuple[int, ...]):
        if any(e < 0 for e in entries):
            raise ValueError(f"negative entry in multi-index {entries}")
        d = self.__dict__
        d["entries"] = entries
        d["order"] = sum(entries)
        d["_hash"] = hash((entries,))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries

    def __repr__(self):
        return f"MultiIndex(entries={self.entries!r})"

    @property
    def n(self) -> int:
        return len(self.entries)

    def plus_axis(self, axis: int) -> "MultiIndex":
        """Increment the entry for 1-based axis."""
        e = list(self.entries)
        e[axis - 1] += 1
        return MultiIndex(tuple(e))

    def minus_axis(self, axis: int) -> "MultiIndex":
        e = list(self.entries)
        if e[axis - 1] == 0:
            raise ValueError(f"axis {axis} already zero in {self.entries}")
        e[axis - 1] -= 1
        return MultiIndex(tuple(e))

    def first_nonzero_axis(self) -> int:
        """1-based index of the first positive entry; 0 if the index is zero."""
        for i, e in enumerate(self.entries):
            if e > 0:
                return i + 1
        return 0

    def factorial(self) -> int:
        """p! = prod of entry factorials, computed once per object."""
        d = self.__dict__
        out = d.get("_factorial")
        if out is None:
            out = 1
            for e in self.entries:
                out *= math.factorial(e)
            d["_factorial"] = out
        return out

    def grlex_key(self):
        return (self.order, self.entries)

    def __lt__(self, other: "MultiIndex"):
        return self.grlex_key() < other.grlex_key()

    def __str__(self):
        return "(" + ",".join(str(e) for e in self.entries) + ")"


def zero_index(n: int) -> MultiIndex:
    return multi_indices(n, 0)[0]


@lru_cache(maxsize=64)
def multi_indices(n: int, max_order: int) -> tuple[MultiIndex, ...]:
    """All multi-indices with |p| <= max_order in graded lexicographic order.

    The enumeration to max_order extends the cached one to max_order - 1
    with the same objects, so the solver's columns, the jets' keys and the
    Taylor layouts share one object per multi-index, and their dict
    lookups hit on identity before comparing entries."""
    if max_order < 0:
        return ()
    top = tuple(MultiIndex(t) for t in sorted(_of_order(n, max_order)))
    return multi_indices(n, max_order - 1) + top


@lru_cache(maxsize=64)
def multi_indices_of_order(n: int, order: int) -> tuple[MultiIndex, ...]:
    """Multi-indices with |p| == order, lexicographic: the tail of
    multi_indices(n, order), the same objects."""
    full = multi_indices(n, order)
    return full[len(full) - math.comb(n + order - 1, order):]


@lru_cache(maxsize=64)
def jet_columns(n: int, k: int, order: int, lowest: int = 0) -> tuple[tuple[int, MultiIndex], ...]:
    """The jet coordinates (u, p) of k unknowns with lowest <= |p| <= order,
    graded-lex in p, then by unknown: the column layout of the range
    analysis' linear systems and of the jet values a jet solve binds
    (taylor.shift_plan).  The jets solved with them share these (u, p)
    tuples as their keys."""
    return tuple(
        (u, p) for p in multi_indices(n, order) if p.order >= lowest for u in range(1, k + 1)
    )


def _of_order(n, total):
    if n == 1:
        return [(total,)]
    out = []
    for head in range(total + 1):
        out.extend((head,) + rest for rest in _of_order(n - 1, total - head))
    return out
