"""Chaotic-iteration propagation engine.

Propagators are contracting and monotone, so running them in any fair order
reaches the same greatest fixpoint; the engine uses a FIFO queue re-seeded by
the variables each run changed. A propagator returns at its own fixpoint, so
the engine does not wake it for the changes it made itself.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .domains import VarId


@dataclass
class PropagationOutcome:
    """Result of running propagation to a fixpoint: whether some domain
    emptied. On success the domains list holds the fixpoint."""

    failed: bool


class Propagator:
    """One constraint's filtering algorithm.

    propagate() receives the node's domains as a list of bitmasks, narrows
    only variables it watches by writing `domains[v] = mask`, and reports
    (failed, changed_vars). It must return at its own fixpoint: a second run
    on its output changes nothing. The engine relies on this and does not wake
    a propagator for its own changes; one that breaks the contract still
    prunes soundly, but reaches a weaker fixpoint.
    check() decides the underlying relation on a full assignment; search uses
    it at leaves so weak propagators never admit false solutions.
    """

    kind = "propagator"
    watches: tuple[VarId, ...] = ()

    def propagate(self, domains: list[int]) -> tuple[bool, list[int]]:
        raise NotImplementedError

    def check(self, values: Sequence[int]) -> bool:
        raise NotImplementedError


def build_watchers(propagators: Sequence[Propagator], num_vars: int) -> list[list[int]]:
    watchers: list[list[int]] = [[] for _ in range(num_vars)]
    for idx, p in enumerate(propagators):
        for v in p.watches:
            watchers[v].append(idx)
    return watchers


def propagate_to_fixpoint(
    propagators: Sequence[Propagator],
    domains: list[int],
    trigger_vars: Optional[Sequence[int]] = None,
    watchers: Optional[list[list[int]]] = None,
    stats=None,
) -> PropagationOutcome:
    """Run propagators to their common fixpoint.

    trigger_vars=None seeds the queue with every propagator (root call);
    otherwise only the watchers of the given variables run initially, the
    rest are woken by domain changes.
    """
    if watchers is None:
        watchers = build_watchers(propagators, len(domains))
    pending = [False] * len(propagators)
    queue: deque[int] = deque()
    if trigger_vars is None:
        seeds = [range(len(propagators))]
    else:
        seeds = [watchers[v] for v in trigger_vars]
    # enqueueing is inlined below: it runs once per watcher of every change
    for idxs in seeds:
        for idx in idxs:
            if not pending[idx]:
                pending[idx] = True
                queue.append(idx)

    calls = 0
    while queue:
        idx = queue.popleft()
        calls += 1
        failed, changed = propagators[idx].propagate(domains)
        if failed:
            if stats is not None:
                stats.propagation_calls += calls
            return PropagationOutcome(True)
        # idx is still pending, so its own changes do not queue it again
        for v in changed:
            for w in watchers[v]:
                if not pending[w]:
                    pending[w] = True
                    queue.append(w)
        pending[idx] = False
    if stats is not None:
        stats.propagation_calls += calls
    return PropagationOutcome(False)
