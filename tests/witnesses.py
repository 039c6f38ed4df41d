"""Frozen instances separating propagation strengths, plus the searches that
found them.

Two gaps matter and both are easy to lose to an innocent-looking propagator
improvement, so they are pinned here and re-verified by acceptance
criterion 6 and test_witnesses.py:

  * decomposition gap: posting one lex-leader propagator per symmetry in a
    set can be strictly weaker than filtering the whole conjunction at once,
    even when each individual propagator is perfect;
  * channel gap: the first-occurrence channel plus an ordering chain, kept at
    forward-checking strength, prunes strictly less than the value-precedence
    propagator on the same class.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

from oracles import lex_leader_support
from valsym.domains import mask_of, values_of
from valsym.engine import propagate_to_fixpoint
from valsym.propagators import LexLeaderProp, PrecedenceProp, post_first_occurrence_channel
from valsym.symmetry import ValuePermutation, VarValueSymmetry


def _domains_of(values: Sequence[Sequence[int]]) -> list[int]:
    return [mask_of(vs) for vs in values]


@dataclass(frozen=True)
class DecompositionWitness:
    """Domains plus a set of value symmetries on which the per-symmetry
    lex-leader decomposition keeps a value the exact oracle removes."""

    universe_size: int
    sigma_images: tuple[tuple[int, ...], ...]
    domains: tuple[tuple[int, ...], ...]

    def symmetries(self) -> list[VarValueSymmetry]:
        n = len(self.domains)
        return [
            VarValueSymmetry.value_only(n, ValuePermutation(img))
            for img in self.sigma_images
        ]

    def decomposition_fixpoint(self) -> tuple[bool, list[int]]:
        doms = _domains_of(self.domains)
        scope = tuple(range(len(doms)))
        props = [LexLeaderProp(scope, s) for s in self.symmetries()]
        out = propagate_to_fixpoint(props, doms)
        return out.failed, doms

    def oracle_fixpoint(self) -> Optional[list[set]]:
        return lex_leader_support(_domains_of(self.domains), self.symmetries())

    def gap_values(self) -> list[tuple[int, int]]:
        """(var, value) pairs the decomposition retains but the oracle prunes."""
        failed, decomp = self.decomposition_fixpoint()
        if failed:
            return []
        oracle = self.oracle_fixpoint() or [set()] * len(decomp)
        return [(i, v) for i, d in enumerate(decomp) for v in values_of(d) if v not in oracle[i]]


@dataclass(frozen=True)
class ChannelWitness:
    """Domains and one interchangeable class on which channel + ordering
    retains a value the precedence propagator removes."""

    universe_size: int
    class_values: tuple[int, ...]
    domains: tuple[tuple[int, ...], ...]

    def channel_fixpoint(self) -> tuple[bool, list[int]]:
        doms = _domains_of(self.domains)
        n = len(doms)
        props = post_first_occurrence_channel(doms, tuple(range(n)), self.class_values)
        out = propagate_to_fixpoint(props, doms)
        return out.failed, doms[:n]

    def precedence_fixpoint(self) -> tuple[bool, list[int]]:
        doms = _domains_of(self.domains)
        props = [PrecedenceProp(tuple(range(len(doms))), self.class_values)]
        out = propagate_to_fixpoint(props, doms)
        return out.failed, doms

    def gap_values(self) -> list[tuple[int, int]]:
        """(var, value) pairs the channel retains but precedence prunes."""
        cf, cd = self.channel_fixpoint()
        if cf:
            return []
        pf, pd = self.precedence_fixpoint()
        out = []
        for i, d in enumerate(cd):
            prec_mask = 0 if pf else pd[i]
            for v in values_of(d & ~prec_mask):
                out.append((i, v))
        return out


# Two value symmetries, swap(1,2) and swap(0,2): together they force 2 out of
# X2 (any assignment placing it loses a lex comparison to one of the two
# images) but each lex-leader alone still finds a supporting partner, and the
# gap survives even perfect per-symmetry filtering.
FROZEN_DECOMPOSITION_WITNESS = DecompositionWitness(
    universe_size=3,
    sigma_images=((0, 2, 1), (2, 1, 0)),
    domains=((0, 1), (0, 1, 2)),
)

# One interchangeable pair (0,1), i.e. exactly the two value symmetries
# {identity, swap(0,1)}. X1 cannot hold a class value, so 1 can never be the
# first class value used and precedence prunes it from X2; the channel's
# fixed-variable rules never see that and keep it.
FROZEN_CHANNEL_WITNESS = ChannelWitness(
    universe_size=4,
    class_values=(0, 1),
    domains=((2, 3), (0, 1, 3)),
)


def search_decomposition_witness(
    seed: int, tries: int = 5000
) -> Optional[DecompositionWitness]:
    """Random hunt for a decomposition gap over tiny instances: two random
    value permutations, two or three variables, universe of three or four."""
    rng = random.Random(seed)
    for _ in range(tries):
        n = rng.randint(2, 3)
        u = rng.randint(3, 4)
        images = []
        for _ in range(2):
            img = list(range(u))
            rng.shuffle(img)
            images.append(tuple(img))
        if any(img == tuple(range(u)) for img in images):
            continue
        cand = DecompositionWitness(
            universe_size=u,
            sigma_images=tuple(images),
            domains=tuple(
                tuple(values_of(rng.randrange(1, 1 << u))) for _ in range(n)
            ),
        )
        if cand.gap_values():
            return cand
    return None


def search_channel_witness(seed: int, tries: int = 5000) -> Optional[ChannelWitness]:
    """Random hunt for a channel gap: one interchangeable pair plus free
    values, two or three variables."""
    rng = random.Random(seed)
    for _ in range(tries):
        n = rng.randint(2, 3)
        u = rng.randint(3, 4)
        cand = ChannelWitness(
            universe_size=u,
            class_values=(0, 1),
            domains=tuple(
                tuple(values_of(rng.randrange(1, 1 << u))) for _ in range(n)
            ),
        )
        if cand.gap_values():
            return cand
    return None
