"""Finite domains over a contiguous value universe 0..U-1, as bitmasks.

The solver works on plain ints: bit v of a domain mask is set iff value v is
in the domain, and the working domains of a search node are a flat
`list[int]`. A propagator narrows variable v by writing `domains[v] = mask`;
an empty mask (0) is never a resting state for a live node, so whoever writes
one must report a propagation failure. `Model.domains` holds the same masks.
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

