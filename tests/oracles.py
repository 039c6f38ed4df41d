"""Brute-force reference implementations, kept independent of the solver's
propagation/search code paths: constraints are evaluated straight from their
descriptors, solutions come from cartesian products, and supports from
generate-and-test."""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Optional, Sequence

from valsym.domains import values_of
from valsym.model import Constraint, ConstraintKind, Model


def constraint_holds(c: Constraint, values: Sequence[int]) -> bool:
    kind = c.kind
    if kind is ConstraintKind.NOT_EQUAL:
        a, b = c.scope
        return values[a] != values[b]
    if kind is ConstraintKind.ABS_DIFF:
        x, y, d = c.scope
        return abs(values[x] - values[y]) == values[d]
    if kind in (ConstraintKind.ALL_DIFFERENT, ConstraintKind.LAZY_ALL_DIFFERENT):
        vals = [values[v] for v in c.scope]
        return len(set(vals)) == len(vals)
    if kind is ConstraintKind.ORDERING_CHAIN:
        seq = [values[v] for v in c.scope]
        if c.params.get("strict", True):
            return all(a < b for a, b in zip(seq, seq[1:]))
        return all(a <= b for a, b in zip(seq, seq[1:]))
    if kind is ConstraintKind.LEX_LEADER:
        sym = c.params["symmetry"]
        proj = tuple(values[v] for v in c.scope)
        return proj <= sym.apply(proj)
    if kind is ConstraintKind.EQUALITY_DISJUNCTION:
        return any(values[a] == values[b] for a, b in c.params["pairs"])
    raise AssertionError(f"oracle missing for {kind}")


def precedence_accepts(seq: Sequence[int], order: Sequence[int]) -> bool:
    """First occurrences of class values must appear in class order and the
    used class values must form a prefix of that order."""
    firsts = {}
    members = set(order)
    for pos, v in enumerate(seq):
        if v in members and v not in firsts:
            firsts[v] = pos
    used = sorted(firsts, key=firsts.get)
    return used == list(order[: len(used)])


def model_solutions(model: Model) -> list[tuple[int, ...]]:
    """Generate-and-test over the initial domain product."""
    out = []
    for combo in itertools.product(*[list(values_of(d)) for d in model.domains]):
        if all(constraint_holds(c, combo) for c in model.constraints):
            out.append(combo)
    return out


def naive_all_interval(n: int) -> list[tuple[int, ...]]:
    """All-interval series by permutation sweep; full assignments including
    the difference block, for direct comparison with solver output."""
    out = []
    for perm in itertools.permutations(range(n)):
        diffs = tuple(abs(perm[i + 1] - perm[i]) for i in range(n - 1))
        if len(set(diffs)) == n - 1:
            out.append(perm + diffs)
    return out


def brute_support(
    domains: Sequence[int], accepts: Callable[[tuple[int, ...]], bool]
) -> Optional[list[set]]:
    """Per-variable supported value sets under `accepts` over the domain
    masks, or None when no assignment is accepted (the GAC reference)."""
    support: list[set] = [set() for _ in domains]
    any_ok = False
    for combo in itertools.product(*[list(values_of(d)) for d in domains]):
        if accepts(combo):
            any_ok = True
            for i, v in enumerate(combo):
                support[i].add(v)
    return support if any_ok else None


def channel_propagate_per_value(prop, domains: list[int]) -> tuple[bool, list[int]]:
    """FirstOccurrenceChannelProp.propagate as first written: one scan of the
    whole scope per class value and pass. The reference for the single-scan
    version, which must match it in failure flag, domains and changed set."""
    x_scope = prop.x_scope
    n = len(x_scope)
    changed = set()
    while True:
        moved = False
        for k, val in enumerate(prop.order):
            z = prop.z_vars[k]
            dz = domains[z]
            bit = 1 << val
            absent = True
            for i1 in range(1, n + 1):
                dx = domains[x_scope[i1 - 1]]
                if dx & bit:
                    absent = False
                if not dx & (dx - 1):
                    if dx == bit:
                        keep = dz & ((2 << i1) - 1)  # z <= i1
                    else:
                        keep = dz & ~(1 << i1)
                    if keep != dz:
                        dz = domains[z] = keep
                        changed.add(z)
                        moved = True
            if absent and dz & (1 << prop.sentinel(k)) != dz:
                dz = domains[z] = dz & (1 << prop.sentinel(k))
                changed.add(z)
                moved = True
            if not dz:
                return True, list(changed)
            lb = (dz & -dz).bit_length() - 1
            for i1 in range(1, min(lb, n + 1)):
                x = x_scope[i1 - 1]
                dx = domains[x]
                if dx & bit:
                    dx = domains[x] = dx ^ bit
                    changed.add(x)
                    moved = True
                    if not dx:
                        return True, list(changed)
            if not dz & (dz - 1):
                pos = dz.bit_length() - 1
                if pos <= n:
                    x = x_scope[pos - 1]
                    dx = domains[x]
                    if dx != dx & bit:
                        dx = domains[x] = dx & bit
                        changed.add(x)
                        moved = True
                        if not dx:
                            return True, list(changed)
        if not moved:
            return False, list(changed)


def abs_diff_propagate_full_rounds(prop, domains: list[int]) -> tuple[bool, list[int]]:
    """AbsDiffProp.propagate as first written: rounds of the d, x and y
    sweeps repeated until a whole round moves nothing, on every scope. The
    reference for the early-stopping version, which must match it in failure
    flag and, when it does not fail, in domains and changed list."""
    x, y, d = prop.x, prop.y, prop.d
    changed = set()
    while True:
        moved = False
        dx, dy, dd = domains[x], domains[y], domains[d]
        keep = 0
        rest = dd
        while rest:
            bit = rest & -rest
            rest ^= bit
            w = bit.bit_length() - 1
            if ((dx >> w) | (dx << w)) & dy:
                keep |= bit
        if keep != dd:
            domains[d] = keep
            changed.add(d)
            moved = True
            if not keep:
                return True, list(changed)
        for a, b in ((x, y), (y, x)):
            da, db, rest = domains[a], domains[b], domains[d]
            support = 0
            while rest:
                bit = rest & -rest
                rest ^= bit
                w = bit.bit_length() - 1
                support |= (db >> w) | (db << w)
            if da & support != da:
                da = domains[a] = da & support
                changed.add(a)
                moved = True
                if not da:
                    return True, list(changed)
        if not moved:
            return False, list(changed)


def all_different_propagate_per_value(prop, domains: list[int]) -> tuple[bool, list[int]]:
    """AllDifferentProp.propagate (and its lazy subclass) as first written:
    the Hall-singleton step scans the whole scope once per available value
    to find that value's holders. The reference for the holder-counting
    version, which must match it in failure flag and, when it does not fail,
    in domains and changed list."""
    scope = prop.scope
    changed = set()
    while True:
        moved = False
        avail = fixed_mask = 0
        for v in scope:
            d = domains[v]
            avail |= d
            if prop.prune_assigned and not d & (d - 1):
                if d & fixed_mask:
                    return True, list(changed)
                fixed_mask |= d
        if fixed_mask:
            for v in scope:
                d = domains[v]
                if d & (d - 1) and d & fixed_mask:
                    d = domains[v] = d & ~fixed_mask
                    changed.add(v)
                    moved = True
                    if not d:
                        return True, list(changed)
        if avail.bit_count() < len(scope):
            return True, list(changed)
        if avail.bit_count() == len(scope):
            while avail:
                bit = avail & -avail
                avail ^= bit
                holder = -1
                many = False
                for v in scope:
                    if domains[v] & bit:
                        if holder >= 0:
                            many = True
                            break
                        holder = v
                if not many and holder >= 0 and domains[holder] != bit:
                    domains[holder] = bit
                    changed.add(holder)
                    moved = True
        if not moved:
            return False, list(changed)
