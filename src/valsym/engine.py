"""Chaotic-iteration propagation engine.

Propagators are contracting and monotone, so running them in any fair order
reaches the same greatest fixpoint. A change to a variable wakes the
propagators that list it in `wakes` into a FIFO queue, except a `fix_only`
one, woken only when the variable becomes fixed, into a second FIFO drained
first: not-equal cascades settle before the global propagators run. The root
runs all the others in index order, and a fix-only one through a waking
variable fixed already or if it has none. A propagator returns at its own
fixpoint, so the engine does not wake it for the changes it made itself.
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
    wakes names the watched variables whose changes wake it, all of them unless
    a subclass narrows it. fix_only declares that it prunes nothing while none
    of those is a singleton; the engine then wakes it only when one is fixed.
    check() decides the underlying relation on a full assignment; search uses
    it at leaves so weak propagators never admit false solutions.
    """

    kind = "propagator"
    watches: tuple[VarId, ...] = ()
    fix_only = False

    @property
    def wakes(self) -> tuple[VarId, ...]:
        return self.watches

    def propagate(self, domains: list[int]) -> tuple[bool, list[int]]:
        raise NotImplementedError

    def check(self, values: Sequence[int]) -> bool:
        raise NotImplementedError


def build_watchers(propagators: Sequence[Propagator], num_vars: int) -> list[tuple[list, list]]:
    """Per variable: (watchers woken by any change, fix-only ones by a fix)."""
    watchers: list[tuple[list, list]] = [([], []) for _ in range(num_vars)]
    for idx, p in enumerate(propagators):
        for v in p.wakes:
            watchers[v][p.fix_only].append(idx)
    return watchers


def propagate_to_fixpoint(
    propagators: Sequence[Propagator],
    domains: list[int],
    trigger_vars: Optional[Sequence[int]] = None,
    watchers: Optional[list[tuple[list, list]]] = None,
    stats=None,
) -> PropagationOutcome:
    """Run propagators to their common fixpoint.

    trigger_vars=None seeds the root call (see the module docstring);
    otherwise only the watchers of the given variables run initially, the
    rest are woken by domain changes.
    """
    if watchers is None:
        watchers = build_watchers(propagators, len(domains))
    pending = [False] * (len(propagators) + 1)
    first: deque[int] = deque()  # fix-only propagators, run before `queue`
    queue: deque[int] = deque()
    if trigger_vars is None:
        # fix-only propagators with a waking variable wake through fixed ones
        for idx, p in enumerate(propagators):
            if not p.fix_only or not p.wakes:
                pending[idx] = True
                (first if p.fix_only else queue).append(idx)
        changed = [v for v, d in enumerate(domains) if not d & (d - 1)]
    else:
        changed = trigger_vars
    idx = len(propagators)  # the spare pending slot: no propagator ran yet
    calls = 0
    while True:
        # enqueueing is inlined: it runs once per watcher of every change
        for v in changed:
            on_change, on_fix = watchers[v]
            for w in on_change:
                if not pending[w]:
                    pending[w] = True
                    queue.append(w)
            if on_fix and not domains[v] & (domains[v] - 1):
                for w in on_fix:
                    if not pending[w]:
                        pending[w] = True
                        first.append(w)
        # idx stayed pending while it ran, so its own changes did not queue it
        pending[idx] = False
        if first:
            idx = first.popleft()
        elif queue:
            idx = queue.popleft()
        else:
            break
        calls += 1
        failed, changed = propagators[idx].propagate(domains)
        if failed:
            if stats is not None:
                stats.propagation_calls += calls
            return PropagationOutcome(True)
    if stats is not None:
        stats.propagation_calls += calls
    return PropagationOutcome(False)
