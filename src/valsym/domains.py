"""Bitmask-backed finite domains over a contiguous value universe 0..U-1.

A DomainSet is a mutable set of small non-negative ints stored as one Python
int. Emptiness is never an acceptable resting state for a live search node:
mutators return a changed-flag and callers must test `empty` and convert
emptiness into a propagation failure.
"""

from __future__ import annotations

from typing import Iterable, Iterator

VarId = int
Assignment = tuple[int, ...]


def _mask_of(values: Iterable[int]) -> int:
    m = 0
    for v in values:
        if v < 0:
            raise ValueError(f"domain values must be >= 0, got {v}")
        m |= 1 << v
    return m


class DomainSet:
    __slots__ = ("mask",)

    def __init__(self, values: Iterable[int] = ()):
        self.mask = _mask_of(values)

    @classmethod
    def from_mask(cls, mask: int) -> "DomainSet":
        d = cls.__new__(cls)
        d.mask = mask
        return d

    @classmethod
    def full(cls, universe_size: int) -> "DomainSet":
        return cls.from_mask((1 << universe_size) - 1)

    @classmethod
    def singleton(cls, value: int) -> "DomainSet":
        return cls.from_mask(1 << value)

    def copy(self) -> "DomainSet":
        return DomainSet.from_mask(self.mask)

    # -- queries ---------------------------------------------------------

    @property
    def empty(self) -> bool:
        return self.mask == 0

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, value: int) -> bool:
        return value >= 0 and (self.mask >> value) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        # ascending value order
        m = self.mask
        while m:
            low = m & -m
            yield low.bit_length() - 1
            m ^= low

    def min(self) -> int:
        if self.mask == 0:
            raise ValueError("min() of empty domain")
        return (self.mask & -self.mask).bit_length() - 1

    def max(self) -> int:
        if self.mask == 0:
            raise ValueError("max() of empty domain")
        return self.mask.bit_length() - 1

    @property
    def is_singleton(self) -> bool:
        m = self.mask
        return m != 0 and m & (m - 1) == 0

    def value(self) -> int:
        """The single member of a singleton domain."""
        if not self.is_singleton:
            raise ValueError("value() on non-singleton domain")
        return self.mask.bit_length() - 1

    # -- mutators (return True iff the domain changed) --------------------

    def remove(self, value: int) -> bool:
        bit = 1 << value
        if self.mask & bit:
            self.mask ^= bit
            return True
        return False

    def intersect_mask(self, mask: int) -> bool:
        new = self.mask & mask
        if new != self.mask:
            self.mask = new
            return True
        return False

    def keep_only(self, values: Iterable[int]) -> bool:
        return self.intersect_mask(_mask_of(values))

    def assign(self, value: int) -> bool:
        return self.intersect_mask(1 << value)

    def remove_below(self, bound: int) -> bool:
        # drop every value < bound
        return self.intersect_mask(-1 << bound)

    def remove_above(self, bound: int) -> bool:
        # drop every value > bound
        return self.intersect_mask((1 << (bound + 1)) - 1)

    # ---------------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, DomainSet) and self.mask == other.mask

    def __hash__(self):
        return hash(self.mask)

    def __repr__(self) -> str:
        return f"DomainSet({{{', '.join(map(str, self))}}})"


def copy_domains(domains: list[DomainSet]) -> list[DomainSet]:
    return [DomainSet.from_mask(d.mask) for d in domains]
