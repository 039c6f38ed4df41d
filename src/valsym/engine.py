"""Chaotic-iteration propagation engine.

Propagators are contracting and monotone, so running them in any fair order
reaches the same greatest fixpoint. A change to a variable wakes the
propagators that watch it into one of two FIFO queues: the fixed-arity ones
into the first, and a `late` one, which reads a whole scope, into the second,
drained only while the first is empty. The root queues every propagator, in
index order. A propagator returns at its own fixpoint, so the engine does not
wake it for the changes it made itself.

The engine forward-checks not-equal itself: a change that leaves a variable
fixed drops its value from each of the variable's not-equal neighbours, and
fails if that empties one. The neighbours so narrowed are a second change
list, handled once the propagator whose write fixed the variable has its
flag cleared, so they wake it too; one left fixed prunes its own neighbours
in turn. These prunes are no propagator runs: `propagation_calls` does not
count them.

A propagator's pending flag is set while it is queued or running. One that
reports itself entailed keeps its flag set, so nothing wakes it again: it is
retired. The caller may pass the pending list to start from and read it back
after a successful fixpoint, when only the retired flags are set; search
starts each child from a copy of its parent's, so a retirement lasts for the
rest of the node's subtree and never reaches a sibling.

Watchers are (on_change, late, neighbours): per variable the tuple of the
indices of the propagators that watch it, one `late` flag per propagator
index, and per variable the tuple of its not-equal neighbours; a variable
with none of either holds the shared `()`. Search builds a model's own
watchers once and extends copies of them with a mode's extra propagators,
numbered after the model's own.
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
    Any change to a watched variable wakes it. `late` only schedules it: a
    late one runs only while no early one is queued, so one that reads a
    whole scope runs on the settled output of the cheap ones, less often.
    check() decides the underlying relation on a full assignment; search uses
    it at leaves so weak propagators never admit false solutions.
    A propagator keeps no state after __init__: search shares a model's own
    propagators across all its solves.
    """

    __slots__ = ()
    kind = "propagator"
    watches: tuple[VarId, ...] = ()
    late = False

    def propagate(self, domains: list[int]) -> tuple[Optional[bool], list[int]]:
        raise NotImplementedError

    def check(self, values: Sequence[int]) -> bool:
        raise NotImplementedError


Watchers = tuple[list[tuple[int, ...]], tuple[bool, ...], list[tuple[VarId, ...]]]


def build_watchers(
    propagators: Sequence[Propagator],
    num_vars: int,
    base: Optional[Watchers] = None,
    first: int = 0,
    stars: Sequence = (),
) -> Watchers:
    """Per variable the indices of the propagators that watch it, the `late`
    flag of each propagator, and per variable its not-equal neighbours, the
    `others` of the star in `stars` centred on it. With `base`, which holds
    `first` propagators, copies of its lists, padded to num_vars, and its
    flags are extended with `propagators` numbered from `first`, so each entry
    stays in index order; `base` itself is not changed."""
    if base is None:
        base = ([], (), [])
    pad = [()] * (num_vars - len(base[0]))
    on_change = base[0] + pad
    neighbours = base[2] + pad
    for idx, p in enumerate(propagators, first):
        for v in p.watches:
            on_change[v] += (idx,)
    for star in stars:
        neighbours[star.x] = star.others
    return on_change, base[1] + tuple(p.late for p in propagators), neighbours


def propagate_to_fixpoint(
    propagators: Sequence[Propagator],
    domains: list[int],
    trigger_vars: Optional[Sequence[int]] = None,
    watchers: Optional[Watchers] = None,
    stats=None,
    pending: Optional[list[bool]] = None,
) -> PropagationOutcome:
    """Run propagators, and the watchers' not-equal prunes, to their common
    fixpoint.

    trigger_vars=None queues every propagator (see the module docstring);
    otherwise only the watchers of the given variables run initially, the
    rest are woken by domain changes. pending, one flag per propagator and a
    spare, marks the retired propagators (see the module docstring) and is
    updated in place. stats.propagation_calls counts the propagator runs.
    """
    if watchers is None:
        watchers = build_watchers(propagators, len(domains))
    if pending is None:
        pending = [False] * (len(propagators) + 1)
    queue: deque[int] = deque()
    later: deque[int] = deque()  # the late propagators, run while `queue` is empty
    on_change, late, neighbours = watchers
    if trigger_vars is None:
        for idx in range(len(propagators)):
            if not pending[idx]:
                pending[idx] = True
                (later if late[idx] else queue).append(idx)
        changed = [v for v, d in enumerate(domains) if not d & (d - 1)]
    else:
        changed = trigger_vars
    spare = idx = len(propagators)  # the spare pending slot: no propagator ran yet
    calls = 0
    pruned = []  # the neighbours the engine narrowed while handling `changed`
    try:
        while True:
            # enqueueing is inlined: it runs once per watcher of every change
            for v in changed:
                for w in on_change[v]:
                    if not pending[w]:
                        pending[w] = True
                        if late[w]:
                            later.append(w)
                        else:
                            queue.append(w)
                d = domains[v]
                if not d & (d - 1):
                    # a fixed variable's mask is its value's bit
                    for y in neighbours[v]:
                        e = domains[y]
                        if e & d:
                            if e == d:
                                return FAILED
                            domains[y] = e ^ d
                            pruned.append(y)
            # idx stayed pending while it ran, so its own changes did not queue it
            pending[idx] = False
            if pruned:
                # handled as the spare's changes, so they wake idx as well
                changed, pruned, idx = pruned, [], spare
                continue
            if queue:
                idx = queue.popleft()
            elif later:
                idx = later.popleft()
            else:
                return FIXPOINT
            calls += 1
            failed, changed = propagators[idx].propagate(domains)
            if failed is not False:
                if failed:
                    return FAILED
                idx = spare  # entailed: its flag stays set, so nothing wakes it again
    finally:
        if stats is not None:
            stats.propagation_calls += calls
