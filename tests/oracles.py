"""Brute-force reference implementations, kept independent of the solver's
propagation/search code paths: constraints are evaluated straight from their
descriptors, solutions come from cartesian products, and supports from
generate-and-test."""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import replace
from typing import Callable, Container, Optional, Sequence

from valsym import search
from valsym.domains import values_of
from valsym.model import Constraint, ConstraintKind, Model
from valsym.symmetry import (
    ClassProduct,
    Group,
    SymmetrySpec,
    ValuePermutation,
    VarValueSymmetry,
    canonical_form,
)


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


def class_permutations(
    values: Sequence[int], scope_len: int, universe_size: int
) -> list[VarValueSymmetry]:
    """All |values|! value symmetries permuting `values` among themselves, in
    `itertools.permutations` order."""
    out = []
    for perm in itertools.permutations(values):
        img = list(range(universe_size))
        for src, dst in zip(values, perm):
            img[src] = dst
        out.append(VarValueSymmetry.value_only(scope_len, ValuePermutation(tuple(img))))
    return out


def enumerated_group(spec: SymmetrySpec) -> list[VarValueSymmetry]:
    """SymmetrySpec.closed_group as first written, the reference for the
    version that builds the group in one method: each class's permutations
    combined by direct product in declared class order, and, when the spec
    has explicit elements, the closure of those elements with every element
    of that product, identity first and the rest sorted. No size limit: the
    closure is a plain breadth-first search, sharing no code with the
    library's `close_group`."""
    product: list[VarValueSymmetry] = []
    for cls in spec.interchangeable_classes:
        perms = class_permutations(cls, spec.scope_len, spec.universe_size)
        product = [a.compose(b) for a in product for b in perms] if product else perms
    if not spec.explicit:
        return product
    gens = list(spec.explicit) + product
    identity = VarValueSymmetry.identity(spec.scope_len, spec.universe_size)
    found = {identity}
    queue = [identity]
    for a in queue:  # the queue grows while it is read
        for g in gens:
            c = a.compose(g)
            if c not in found:
                found.add(c)
                queue.append(c)
    rest = sorted(found - {identity}, key=lambda g: (g.theta, g.sigma.image))
    return [identity, *rest]


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


def lex_leader_support(
    domains: Sequence[int], symmetries: Sequence[VarValueSymmetry]
) -> Optional[list[set]]:
    """The exact filter for the conjunction of the lex-leader comparisons
    A <=lex g(A), one per listed symmetry: brute_support under it."""
    return brute_support(domains, lambda a: all(a <= g.apply(a) for g in symmetries))


def lex_leader_propagate_one(
    scope: Sequence[int], sym: VarValueSymmetry, domains: list[int],
    passes: Optional[list] = None,
) -> tuple[bool, list[int]]:
    """LexLeaderProp.propagate for one element as first written: every
    position's tie is tested through theta^-1, and each pass restarts from
    the first position. The reference for LexLeaderProp's one walk, which
    must match it in failure flag and domains: the walk goes on past a
    position that ties after its own write, and redoes a position where U
    and V read different variables after a write, where this reference
    starts a new pass. With a `passes` list, each pass appends its first
    open position (None if every position ties) and whether U and V read
    one variable there."""
    L = len(scope)
    inv = sym.theta_inverse()
    v_vars = [scope[inv[j]] for j in range(L)]
    sig = sym.sigma.image
    fixed = sum(1 << v for v, w in enumerate(sig) if w == v)
    rising = sum(1 << v for v, w in enumerate(sig) if w > v)

    def forced_tie(j):
        du, dv = domains[scope[j]], domains[v_vars[j]]
        if scope[j] == v_vars[j]:
            return not du & ~fixed
        return du.bit_count() == dv.bit_count() == 1 and du == 1 << sig[dv.bit_length() - 1]

    changed = []
    while True:
        open_at = [j for j in range(L) if not forced_tie(j)]
        if not open_at:
            if passes is not None:
                passes.append((None, None))
            return False, changed
        alpha = open_at[0]
        strict = len(open_at) > 1 and min(values_of(domains[scope[open_at[1]]])) > max(
            sig[b] for b in values_of(domains[v_vars[open_at[1]]])
        )
        uv, vv = scope[alpha], v_vars[alpha]
        if passes is not None:
            passes.append((alpha, uv == vv))
        du, dv = domains[uv], domains[vv]
        if uv == vv:
            writes = [(uv, du & (rising if strict else rising | fixed))]
        else:
            max_v = max(sig[b] for b in values_of(dv))
            du &= (1 << (max_v if strict else max_v + 1)) - 1
            min_u = min(values_of(du), default=-1)
            writes = [(uv, du)]
            if du:
                writes.append((vv, sum(
                    1 << b for b in values_of(dv)
                    if sig[b] > min_u or (not strict and sig[b] == min_u)
                )))
        moved = False
        for var, keep in writes:
            if keep != domains[var]:
                domains[var] = keep
                changed.append(var)
                moved = True
                if not keep:
                    return True, changed
        if not moved:
            return False, changed


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
    sweeps repeated until a whole round moves nothing. The reference for the
    kernel that reaches the same closure in one sweep over the distances,
    which must match it in failure flag and, when it does not fail, in
    domains and in the set of changed variables."""
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


def naive_fixpoint(propagators, domains: list[int]) -> bool:
    """Propagation as the engine's reference: rerun every propagator, in
    order, until a whole round changes nothing, so each one in effect wakes on
    every change to any variable. Leaves the fixpoint in `domains` and
    returns whether some propagator failed."""
    while True:
        before = list(domains)
        for p in propagators:
            if p.propagate(domains)[0]:
                return True
        if domains == before:
            return False


def not_equal_forward_check(edges, domains: list[int]) -> bool:
    """Pairwise forward checking, the reference for the solver's not-equal
    stars: while an edge has one end fixed to a value the other end still
    holds, drop that value there. Leaves the fixpoint in `domains` and returns
    whether some domain emptied."""
    moved = True
    while moved:
        moved = False
        for a, b in edges:
            for x, y in ((a, b), (b, a)):
                fixed = list(values_of(domains[x]))
                if len(fixed) == 1 and fixed[0] in values_of(domains[y]):
                    domains[y] &= ~(1 << fixed[0])
                    moved = True
                    if not domains[y]:
                        return True
    return False


def canonical_partition(points: Sequence[tuple[int, ...]], group: Group) -> list[list[tuple[int, ...]]]:
    """The points bucketed by canonical form, each orbit sorted and in order
    of canonical form: the orbits under the group for any points, closed
    under it or not."""
    buckets: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for p in points:
        buckets.setdefault(canonical_form(p, group), []).append(tuple(p))
    return [sorted(orbit) for _, orbit in sorted(buckets.items())]


def verify_per_mode(
    model: Model, modes: Sequence[str], config: Optional[search.SearchConfig] = None
) -> list[search.VerifyModeReport]:
    """verify_symmetry_breaking's reports, with one orbit partition of the
    mode-none solutions per mode, each by canonical (lex-least image) form:
    `ClassProduct.canonical` for the class product, otherwise `canonical_form`
    over `enumerated_group` or its value-only elements for getree. The
    reference for the version that partitions once per distinct group, from
    the group's generators; it reads `search.solve` through the module, so a
    test that patches the solver patches both."""
    base = config if config is not None else search.SearchConfig()
    spec = model.symmetry
    none_sols, _ = search.solve(model, replace(base, symmetry_mode="none", solution_limit=None))
    none_proj = [model.project_scope(s) for s in none_sols]
    reports = []
    for mode in modes:
        if mode in ("precedence", "channel") or not spec.explicit:
            group = spec.class_product()
        else:
            group = [g for g in enumerated_group(spec) if mode != "getree" or g.theta_is_identity]
        orbits = canonical_partition(none_proj, group)
        if mode == "none":
            sols = none_sols
        else:
            sols, _ = search.solve(model, replace(base, symmetry_mode=mode, solution_limit=None))
        proj = [model.project_scope(s) for s in sols]
        orbit_of = {a: idx for idx, orbit in enumerate(orbits) for a in orbit}
        counts = Counter(orbit_of.get(p) for p in proj)
        duplicates = [orbit for idx, orbit in enumerate(orbits) if counts[idx] > 1]
        missed = [orbit for idx, orbit in enumerate(orbits) if not counts[idx]]
        non_canonical = sorted(p for p in set(proj) if p in orbit_of and p != orbits[orbit_of[p]][0])
        passed = not duplicates and not missed and not counts[None]
        reports.append(search.VerifyModeReport(
            mode, len(proj), len(orbits), duplicates, missed, non_canonical, passed))
    return reports


def getree_allowed_values_by_path(
    partial: Sequence[tuple[int, int]],
    next_var: int,
    group: Group,
    domains: Sequence[int],
    scope: Container[int],
) -> list[int]:
    """getree_allowed_values as first written: it reads the (var, value)
    decisions on the path and tests each value and group element one by one.
    The reference for the version that takes the decided scope values as one
    mask and filters with word operations."""
    dom = domains[next_var]
    if next_var not in scope:
        return list(values_of(dom))
    decided = {val for var, val in partial if var in scope}
    allowed = []
    if isinstance(group, ClassProduct):
        class_of = group.class_of
        fresh_done = set()
        for v in values_of(dom):
            idx = class_of.get(v)
            if idx is None or v in decided:
                allowed.append(v)
            elif idx not in fresh_done:
                # v is the least unused value of its class still in the domain
                allowed.append(v)
                fresh_done.add(idx)
        return allowed
    stab = [g.sigma for g in group if all(g.sigma(v) == v for v in decided)]
    seen = 0
    for v in values_of(dom):
        if not (seen >> v) & 1:
            allowed.append(v)
            for s in stab:
                seen |= 1 << s(v)
    return allowed
