"""Finite domains over a contiguous value universe 0..U-1, as bitmasks.

The solver works on plain ints: bit v of a domain mask is set iff value v is
in the domain, and the working domains of a search node are a flat
`list[int]`. A propagator narrows variable v by writing `domains[v] = mask`;
an empty mask (0) is never a resting state for a live node, so whoever writes
one must report a propagation failure.

`DomainSet` is the read-only set view that models are built from and that
`Model.domains` holds; `Model.initial_domains()` turns it into masks.
"""

from __future__ import annotations

from typing import Iterable, Iterator

VarId = int
Assignment = tuple[int, ...]


def mask_of(values: Iterable[int]) -> int:
    """Bitmask holding exactly the given values."""
    m = 0
    for v in values:
        if v < 0:
            raise ValueError(f"domain values must be >= 0, got {v}")
        m |= 1 << v
    return m


def values_of(mask: int) -> Iterator[int]:
    """The values of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# A node's working domains are a flat list of ints, so copying them for a
# child node is copying the list.
copy_domains = list.copy


class DomainSet:
    """Immutable set of small non-negative ints stored as one bitmask."""

    __slots__ = ("mask",)

    def __init__(self, values: Iterable[int] = ()):
        self.mask = mask_of(values)

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

    @property
    def empty(self) -> bool:
        return self.mask == 0

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, value: int) -> bool:
        return value >= 0 and (self.mask >> value) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return values_of(self.mask)

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

    def __eq__(self, other) -> bool:
        return isinstance(other, DomainSet) and self.mask == other.mask

    def __hash__(self):
        return hash(self.mask)

    def __repr__(self) -> str:
        return f"DomainSet({{{', '.join(map(str, self))}}})"
