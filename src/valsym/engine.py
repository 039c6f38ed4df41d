"""Chaotic-iteration propagation engine.

Propagators are contracting and monotone, so running them in any fair order
reaches the same greatest fixpoint. A change to a variable wakes the
propagators that list it in `wakes` into a FIFO queue, except a `fix_only`
one, woken only when the variable becomes fixed, into a second FIFO drained
first: not-equal cascades settle before the global propagators run. The root
runs all the others in index order, and a fix-only one through a waking
variable fixed already or if it has none. A propagator returns at its own
fixpoint, so the engine does not wake it for the changes it made itself.

A propagator's pending flag is set while it is queued or running. One that
reports itself entailed keeps its flag set, so nothing wakes it again: it is
retired. The caller may pass the pending list to start from and read it back
after a successful fixpoint, when only the retired flags are set; search
starts each child from a copy of its parent's, so a retirement lasts for the
rest of the node's subtree and never reaches a sibling.

Watchers are two per-variable lists, (on_change, on_fix), of tuples of
propagator indices, a variable nothing wakes holding the shared `()`, and the
tuple of the indices the root seeds, in index order. Search builds a model's
own watchers once and extends copies of them with a mode's extra
propagators, numbered after the model's own.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .domains import VarId


@dataclass(frozen=True)
class PropagationOutcome:
    """Whether propagation to a fixpoint emptied some domain; on success the
    domains list holds the fixpoint. Frozen: calls share FAILED and FIXPOINT."""

    failed: bool


FAILED, FIXPOINT = PropagationOutcome(True), PropagationOutcome(False)


class Propagator:
    """One constraint's filtering algorithm.

    propagate() receives the node's domains as a list of bitmasks, narrows
    only variables it watches by writing `domains[v] = mask`, and reports
    (failed, changed_vars). It must return at its own fixpoint: a second run
    on its output changes nothing. The engine relies on this and does not wake
    a propagator for its own changes; one that breaks the contract still
    prunes soundly, but reaches a weaker fixpoint.
    failed is None, which is falsy, when the propagator is entailed at its
    fixpoint: no narrowing of its output that leaves every domain non-empty
    can make it prune or fail. The engine then never runs it again in this
    fixpoint, and search never below this node: it stays retired for the
    node's whole subtree. Reporting False instead is always sound; reporting
    None early loses pruning.
    wakes names the watched variables whose changes wake it, all of them unless
    a subclass narrows it. fix_only declares that it prunes nothing while none
    of those is a singleton; the engine then wakes it only when one is fixed.
    check() decides the underlying relation on a full assignment; search uses
    it at leaves so weak propagators never admit false solutions.
    A propagator keeps no state after __init__: search shares a model's own
    propagators across all its solves.
    """

    __slots__ = ()
    kind = "propagator"
    watches: tuple[VarId, ...] = ()
    fix_only = False

    @property
    def wakes(self) -> tuple[VarId, ...]:
        return self.watches

    def propagate(self, domains: list[int]) -> tuple[Optional[bool], list[int]]:
        raise NotImplementedError

    def check(self, values: Sequence[int]) -> bool:
        raise NotImplementedError


Watchers = tuple[list[tuple[int, ...]], list[tuple[int, ...]], tuple[int, ...]]


def build_watchers(
    propagators: Sequence[Propagator],
    num_vars: int,
    base: Optional[Watchers] = None,
    first: int = 0,
) -> Watchers:
    """Per variable: the indices of the propagators any change wakes, and of
    the fix-only ones a fix wakes; then the indices the root seeds, every
    propagator but the fix-only ones with a waking variable. With `base`,
    copies of its lists, padded to num_vars, and its seeds are extended with
    `propagators` numbered from `first`, which leaves each entry in index
    order when `first` is past every index in `base`; `base` itself is not
    changed."""
    if base is None:
        base = ([], [], ())
    pad = [()] * (num_vars - len(base[0]))
    lists = (base[0] + pad, base[1] + pad)
    seeds = list(base[2])
    for idx, p in enumerate(propagators, first):
        wakes = p.wakes
        woken = lists[p.fix_only]
        for v in wakes:
            woken[v] += (idx,)
        if not p.fix_only or not wakes:
            seeds.append(idx)
    return (*lists, tuple(seeds))


def propagate_to_fixpoint(
    propagators: Sequence[Propagator],
    domains: list[int],
    trigger_vars: Optional[Sequence[int]] = None,
    watchers: Optional[Watchers] = None,
    stats=None,
    pending: Optional[list[bool]] = None,
) -> PropagationOutcome:
    """Run propagators to their common fixpoint.

    trigger_vars=None seeds the root call (see the module docstring);
    otherwise only the watchers of the given variables run initially, the
    rest are woken by domain changes. pending, one flag per propagator and a
    spare, marks the retired propagators (see the module docstring) and is
    updated in place.
    """
    if watchers is None:
        watchers = build_watchers(propagators, len(domains))
    if pending is None:
        pending = [False] * (len(propagators) + 1)
    first: deque[int] = deque()  # fix-only propagators, run before `queue`
    queue: deque[int] = deque()
    on_change, on_fix, seeds = watchers
    if trigger_vars is None:
        # fix-only propagators with a waking variable wake through fixed ones
        for idx in seeds:
            if not pending[idx]:
                pending[idx] = True
                (first if propagators[idx].fix_only else queue).append(idx)
        changed = [v for v, d in enumerate(domains) if not d & (d - 1)]
    else:
        changed = trigger_vars
    spare = idx = len(propagators)  # the spare pending slot: no propagator ran yet
    calls = 0
    while True:
        # enqueueing is inlined: it runs once per watcher of every change
        for v in changed:
            for w in on_change[v]:
                if not pending[w]:
                    pending[w] = True
                    queue.append(w)
            fix_woken = on_fix[v]
            if fix_woken and not domains[v] & (domains[v] - 1):
                for w in fix_woken:
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
        if failed is not False:
            if failed:
                if stats is not None:
                    stats.propagation_calls += calls
                return FAILED
            idx = spare  # entailed: its flag stays set, so nothing wakes it again
    if stats is not None:
        stats.propagation_calls += calls
    return FIXPOINT
