"""Backtracking search with pluggable value-symmetry handling.

Modes:
  none        plain DFS over the model's own constraints
  static-lex  post one lex-leader propagator over the non-identity group
              elements (for classes alone, adjacent sorted class values'
              transpositions), filtered element by element; a variable-only
              element under an all-different covering the scope posts the
              ordering of its first moved position instead
  precedence  post one value-precedence constraint per interchangeable class
  channel     add first-occurrence position variables, channel them to the
              scope and order them by a strict chain
  getree      dynamic filtering: at each node branch only on the least value
              of each orbit of the stabilizer of the decisions so far, in
              the value subgroup of whatever is declared (`break_group`)

Domains are a flat list of int bitmasks, one per variable, copied per node;
propagation runs to a fixpoint after every assignment and every leaf is
re-checked against the exact constraint relations, so weak propagators cost
time, never correctness. Each open ancestor of the node has one search-stack
frame: its domains, its branching variable, its values, how many it tried and
the mask of the values decided on scope variables above it, so getree reads
the decided values as one mask instead of walking the path.

A model's own propagators and their watchers are built on its first `solve`
and kept in the model's `__dict__`, outside its fields, so `==`, `repr` and
`dataclasses.replace` do not see them; every later solve, in any mode, shares
them. A propagator keeps no state after `__init__`, so sharing one is safe.
Each solve builds only its mode's extra propagators and watches them through
extended copies of the shared watcher lists.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Container, Optional, Sequence

from .domains import copy_domains, values_of
from .engine import Watchers, build_watchers, propagate_to_fixpoint
from .errors import BudgetExceeded, GroupTooLarge, UnsupportedModeError
from .model import ConstraintKind, Model
from .propagators import (
    LexLeaderProp,
    OrderingChainProp,
    PrecedenceProp,
    build_propagators,
    check_all,
    post_first_occurrence_channel,
)
from .symmetry import ClassProduct, Group, SymmetrySpec, VarValueSymmetry, orbit_partition

MODES = ("none", "static-lex", "precedence", "channel", "getree")
VAR_ORDERS = ("input", "min-domain")
VAL_ORDERS = ("ascending", "descending")

DEFAULT_BUDGET = 5_000_000
BUDGET_ENV_VAR = "VALSYM_BUDGET"


def default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value <= 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class SearchConfig:
    var_order: str = "input"
    val_order: str = "ascending"
    symmetry_mode: str = "none"
    solution_limit: Optional[int] = None
    enumeration_budget: Optional[int] = None

    def __post_init__(self):
        if self.var_order not in VAR_ORDERS:
            raise ValueError(f"var_order must be one of {VAR_ORDERS}")
        if self.val_order not in VAL_ORDERS:
            raise ValueError(f"val_order must be one of {VAL_ORDERS}")
        if self.symmetry_mode not in MODES:
            raise ValueError(f"symmetry_mode must be one of {MODES}")
        if self.solution_limit is not None and self.solution_limit <= 0:
            raise ValueError("solution_limit must be positive or None")
        if self.enumeration_budget is not None and self.enumeration_budget <= 0:
            raise ValueError("enumeration_budget must be positive or None")


@dataclass
class SearchStats:
    nodes: int = 0
    branches: int = 0
    failures: int = 0
    solutions: int = 0
    propagation_calls: int = 0
    max_depth: int = 0
    elapsed: float = 0.0

    def as_dict(self) -> dict:
        # every field is a number, so `dataclasses.asdict`'s recursive copy is not needed
        return dict(self.__dict__)


@dataclass
class ModeResult:
    mode: str
    solutions: list[tuple[int, ...]]
    stats: SearchStats


def _require_mode(spec: SymmetrySpec, mode: str) -> None:
    """Raise UnsupportedModeError unless `mode` can run on a model declaring
    `spec`: the one statement of each mode's preconditions, which `solve` and
    `break_group` both check. Size is refused by the builders of element
    lists, through `symmetry.require_enumerable`."""
    if mode not in MODES:
        raise UnsupportedModeError(f"unknown mode {mode!r}")
    if mode in ("precedence", "channel") and not spec.interchangeable_classes:
        raise UnsupportedModeError(f"{mode} needs interchangeable value classes")
    if mode in ("static-lex", "getree") and spec.is_trivial:
        raise UnsupportedModeError(f"{mode} needs declared symmetries")


@lru_cache(maxsize=64)
def _closed_group(spec: SymmetrySpec) -> tuple[VarValueSymmetry, ...]:
    return tuple(spec.closed_group())


def getree_allowed_values(
    decided: int,
    next_var: int,
    group: Group,
    domains: Sequence[int],
    scope: Container[int],
) -> list[int]:
    """Values worth branching on at this node, in ascending order.

    decided is the mask of the values the decisions so far gave scope
    variables, group the value group `break_group(model, "getree")` returns
    and scope the set of variables it acts on. Only one value per orbit of the
    stabilizer of the decided values survives: the least one still in the
    domain mask. Variables outside the scope are not filtered.
    """
    dom = domains[next_var]
    if next_var not in scope:
        return list(values_of(dom))
    if isinstance(group, ClassProduct):
        # decided and non-class values stay, plus each class's least unused value
        keep = dom & (decided | ~group.class_union)
        for cls in group.class_masks:
            fresh = dom & cls & ~decided
            keep |= fresh & -fresh
        return list(values_of(keep))
    # an element stabilizes the decided values iff it fixes each of them
    stab = [g.sigma.image for g in group if not decided & ~g.sigma.fixed_mask]
    # the stabilizer is a group, so a value's orbit is its images under it
    allowed = []
    seen = 0
    for v in values_of(dom):
        if not (seen >> v) & 1:
            allowed.append(v)
            for image in stab:
                seen |= 1 << image[v]
    return allowed


def _has_covering_alldiff(model: Model) -> bool:
    scope = set(model.symmetry_scope)
    return any(
        c.kind is ConstraintKind.ALL_DIFFERENT and scope <= set(c.scope)
        for c in model.constraints
    )


def _static_lex_propagators(model: Model) -> list:
    props, lex = [], []
    spec = model.symmetry
    # only explicit elements can move variables alone
    simplify = bool(spec.explicit) and _has_covering_alldiff(model)
    scope = model.symmetry_scope
    for g in _closed_group(spec)[1:] if spec.explicit else spec.class_swaps():
        if simplify and g.sigma.is_identity:
            # pure variable symmetry under an all-different scope: the first
            # moved position decides, and ties there are impossible
            inv = g.theta_inverse()
            j0 = next(j for j in range(len(inv)) if inv[j] != j)
            props.append(OrderingChainProp((scope[j0], scope[inv[j0]])))
        else:
            lex.append(g)
    if lex:
        props.append(LexLeaderProp(scope, *lex))
    return props


def _own_propagators(model: Model) -> tuple[tuple, Watchers]:
    """The model's own propagators and their watchers, built on first use."""
    own = model.__dict__.get("_own_propagators")
    if own is None:
        props = tuple(build_propagators(model))
        own = model.__dict__["_own_propagators"] = (props, build_watchers(props, model.num_vars))
    return own


def _prepare(model: Model, mode: str) -> tuple[list[int], list, Watchers]:
    """The working domains, the propagators and their watchers for one solve:
    the model's shared own ones, then those the mode posts."""
    _require_mode(model.symmetry, mode)
    classes = model.symmetry.interchangeable_classes
    domains = model.initial_domains()
    own, watchers = _own_propagators(model)
    extra = []
    if mode == "static-lex":
        extra = _static_lex_propagators(model)
    elif mode == "precedence":
        extra = [PrecedenceProp(model.symmetry_scope, cls) for cls in classes]
    elif mode == "channel":
        for cls in classes:
            extra += post_first_occurrence_channel(domains, model.symmetry_scope, cls)
    if extra:
        watchers = build_watchers(extra, len(domains), watchers, len(own))
    return domains, [*own, *extra], watchers


def solve(model: Model, config: Optional[SearchConfig] = None) -> tuple[list[tuple[int, ...]], SearchStats]:
    """Depth-first enumeration over an explicit stack, so model depth is not
    bounded by Python's recursion limit, and the only record of the path.
    Returns (solutions, stats); solutions are full assignments over the
    model's variables (channel position variables are stripped),
    deterministic for a given config."""
    if config is None:
        config = SearchConfig()
    domains, props, watchers = _prepare(model, config.symmetry_mode)
    getree = config.symmetry_mode == "getree"
    group, scope = None, set()  # the variables whose decided values getree reads
    if getree:
        group, scope = break_group(model, "getree"), set(model.symmetry_scope)
    budget = config.enumeration_budget if config.enumeration_budget is not None else default_budget()
    limit = config.solution_limit
    stats = SearchStats()
    solutions: list[tuple[int, ...]] = []
    num_vars = len(domains)
    ascending = config.val_order == "ascending"
    min_dom = config.var_order == "min-domain"
    t0 = time.perf_counter()

    def pick_var(domains, start: int) -> int:
        if min_dom:
            best, best_size = -1, 0
            for v in range(num_vars):
                s = domains[v].bit_count()
                if s > 1 and (best < 0 or s < best_size):
                    best, best_size = v, s
            return best
        # in input order every variable before `start` is fixed already
        for v in range(start, num_vars):
            d = domains[v]
            if d & (d - 1):
                return v
        return -1

    # one [domains, var, values, next, decided] frame per open ancestor of the
    # node: the child on the path took values[next - 1], values[:next - 1] are
    # done, and decided masks the values the decisions above the frame's node
    # gave scope variables; `decided` is the same mask at the node itself
    stack: list = []
    decided = 0
    while True:
        stats.nodes += 1
        if stats.nodes > budget:
            stats.elapsed = time.perf_counter() - t0
            raise BudgetExceeded(budget, stats, config.symmetry_mode, solutions)
        if len(stack) > stats.max_depth:
            stats.max_depth = len(stack)
        var = stack[-1][1] if stack else -1  # the node's decision, -1 at the root
        outcome = propagate_to_fixpoint(props, domains, (var,) if stack else None, watchers, stats)
        if outcome.failed:
            stats.failures += 1
        elif (var := pick_var(domains, var + 1)) < 0:
            values = tuple(d.bit_length() - 1 for d in domains)
            if check_all(props, values):
                stats.solutions += 1
                solutions.append(values[: model.num_vars])
                if limit is not None and stats.solutions >= limit:
                    break
            else:
                stats.failures += 1
        else:
            if getree:
                vals = getree_allowed_values(decided, var, group, domains, scope)
            else:
                vals = list(values_of(domains[var]))
            stack.append([domains, var, vals if ascending else vals[::-1], 0, decided])
        # the next node is the next child of the deepest frame with one left
        while stack:
            frame = stack[-1]
            if frame[3] < len(frame[2]):
                break
            stack.pop()
        else:
            break
        parent, var, vals, nxt, decided = frame
        frame[3] = nxt + 1
        stats.branches += 1
        domains = copy_domains(parent)
        bit = domains[var] = 1 << vals[nxt]
        if var in scope:
            decided |= bit
    stats.elapsed = time.perf_counter() - t0
    return solutions, stats


def compare_methods(
    model: Model, modes: Sequence[str], config: Optional[SearchConfig] = None
) -> dict[str, ModeResult]:
    """Run solve once per mode with identical orderings and budget.

    A mode that runs out of budget raises BudgetExceeded carrying, in
    `completed`, the results of the modes that finished before it.
    """
    if len(modes) < 2:
        raise ValueError("compare_methods needs at least two modes")
    if len(set(modes)) != len(modes):
        raise ValueError("duplicate mode listed")
    base = config if config is not None else SearchConfig()
    out: dict[str, ModeResult] = {}
    for mode in modes:
        try:
            sols, stats = solve(model, replace(base, symmetry_mode=mode))
        except BudgetExceeded as exc:
            exc.completed = list(out.values())
            raise
        out[mode] = ModeResult(mode, sols, stats)
    return out


def break_group(model: Model, mode: str) -> Group:
    """The symmetry group a mode actually breaks; orbit checks use this.

    static-lex (and `none`, for checking a model's own posted constraints)
    break the whole declared group, returned as its generating set: the
    explicit elements and the class swaps. precedence/channel break the class
    product; getree breaks the value-only subgroup (it cannot see variable
    permutations), enumerated from the closed group, and its search filters
    on the group returned here. Whenever the group is exactly the class
    product it is returned in structural form, which has no size limit.
    Raises UnsupportedModeError or GroupTooLarge, with the same message, for
    exactly the modes `solve` refuses: static-lex asks the builder it posts
    from. `none` is refused only when its generators alone pass
    `require_enumerable`.
    """
    spec = model.symmetry
    _require_mode(spec, mode)
    if mode == "static-lex":  # refused by the builder it posts from, as `solve` refuses it
        _closed_group(spec) if spec.explicit else spec.class_swaps()
    if mode in ("precedence", "channel") or (spec.interchangeable_classes and not spec.explicit):
        return spec.class_product()
    if mode == "getree":
        return [g for g in _closed_group(spec) if g.theta_is_identity]
    return [*spec.explicit, *spec.class_swaps()]


@dataclass
class VerifyModeReport:
    mode: str
    solution_count: int
    orbit_count: int
    duplicate_orbits: list[list[tuple[int, ...]]]
    missed_orbits: list[list[tuple[int, ...]]]
    non_canonical: list[tuple[int, ...]]
    passed: bool


def verify_symmetry_breaking(
    model: Model, modes: Sequence[str], config: Optional[SearchConfig] = None
) -> tuple[bool, list[VerifyModeReport], SearchStats]:
    """Check one-solution-per-orbit for each mode against mode-none
    enumeration. Returns (all_passed, per-mode reports, none-run stats).
    A mode the model cannot run is refused before anything is enumerated.
    Modes that break the same group share one orbit partition of the
    mode-none solutions: none and static-lex share the declared generators,
    and on value classes alone every mode breaks the class product. A
    declared element that maps a solution outside the mode-none set is no
    symmetry of the model, and `orbit_partition` raises ModelError for it."""
    if len(set(modes)) != len(modes):
        raise ValueError("duplicate mode listed")
    groups = [break_group(model, mode) for mode in modes]
    base = config if config is not None else SearchConfig()
    none_sols, none_stats = solve(model, replace(base, symmetry_mode="none", solution_limit=None))
    none_proj = [model.project_scope(s) for s in none_sols]
    partitions: list = []  # (group, orbits, orbit_of) per distinct group
    reports = []
    for mode, group in zip(modes, groups):
        shared = next((p for p in partitions if p[0] == group), None)
        if shared is None:
            orbits = orbit_partition(none_proj, group)
            shared = (group, orbits, {a: idx for idx, orbit in enumerate(orbits) for a in orbit})
            partitions.append(shared)
        _, orbits, orbit_of = shared
        if mode == "none":
            sols = none_sols
        else:
            sols, _ = solve(model, replace(base, symmetry_mode=mode, solution_limit=None))
        proj = [model.project_scope(s) for s in sols]
        # a solution outside the mode-none set, which only an unsound mode finds, counts under None
        counts = Counter(orbit_of.get(p) for p in proj)
        duplicates = [orbit for idx, orbit in enumerate(orbits) if counts[idx] > 1]
        missed = [orbit for idx, orbit in enumerate(orbits) if not counts[idx]]
        non_canonical = sorted(p for p in set(proj) if p in orbit_of and p != orbits[orbit_of[p]][0])
        passed = not duplicates and not missed and not counts[None]
        reports.append(
            VerifyModeReport(
                mode, len(proj), len(orbits), duplicates, missed, non_canonical, passed
            )
        )
    return all(r.passed for r in reports), reports, none_stats


def applicable_modes(model: Model) -> list[str]:
    """The modes `solve` runs on this model, less `none`: those for which
    `break_group` raises neither UnsupportedModeError nor GroupTooLarge."""
    modes = []
    for mode in MODES[1:]:  # every mode but none
        try:
            break_group(model, mode)
            modes.append(mode)
        except (UnsupportedModeError, GroupTooLarge):
            pass
    return modes
