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
propagation runs to a fixpoint after every assignment, the scope-wide
propagators queued behind the fixed-arity ones and the engine pruning a
fixed variable's not-equal neighbours itself, uncounted in
`propagation_calls`, and every leaf is re-checked against the exact
constraint relations, so weak propagators cost time, never correctness. A
solve reads branching value lists from a per-solve table and keeps its
counters in locals, writing them to its stats before it returns or raises
BudgetExceeded. Each open ancestor of the
node has one search-stack frame: its domains, its branching variable, its
values, how many it tried, the mask of the values decided on scope variables
above it, so getree reads the decided values as one mask instead of walking
the path, and its pending list after its fixpoint, which marks the
propagators retired as entailed at it or above it. Each child starts its
fixpoint from a copy of that list, so a retirement holds for the node's whole
subtree and never reaches a sibling; the leaf check still runs every
propagator, after the not-equal stars that check an edge.

A model keeps three builds, each made on first use in the model's `__dict__`,
outside its fields, so `==`, `repr`, `dataclasses.replace`, `pickle` and
`copy.deepcopy` do not see them: its own propagators, leaf checks and
watchers, its closed group and the propagators static-lex posts. Every later
solve, in any mode, shares them, and a search reads nothing but its model and
its config.
A propagator keeps no state after `__init__`, so sharing one is safe. Each
solve builds precedence's and channel's propagators afresh and watches a
mode's extra propagators through extended copies of the shared watchers.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Callable, Container, Optional, Sequence, TypeVar

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


@dataclass(frozen=True)
class SearchConfig:
    var_order: str = "input"
    val_order: str = "ascending"
    symmetry_mode: str = "none"
    solution_limit: Optional[int] = None
    enumeration_budget: int = DEFAULT_BUDGET

    def __post_init__(self):
        if self.var_order not in VAR_ORDERS:
            raise ValueError(f"var_order must be one of {VAR_ORDERS}")
        if self.val_order not in VAL_ORDERS:
            raise ValueError(f"val_order must be one of {VAL_ORDERS}")
        if self.symmetry_mode not in MODES:
            raise ValueError(f"symmetry_mode must be one of {MODES}")
        if self.solution_limit is not None and self.solution_limit <= 0:
            raise ValueError("solution_limit must be positive or None")
        if self.enumeration_budget <= 0:
            raise ValueError("enumeration_budget must be positive")


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


T = TypeVar("T")


def _kept(model: Model, build: Callable[[Model], T]) -> T:
    """`build(model)`, made on first use and kept in the model's `__dict__`
    under the build's name; a build that raises keeps nothing."""
    memo = model.__dict__
    if build.__name__ not in memo:
        memo[build.__name__] = build(model)
    return memo[build.__name__]


def _closed_group(model: Model) -> tuple[VarValueSymmetry, ...]:
    return tuple(model.symmetry.closed_group())


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


def _static_lex_propagators(model: Model) -> tuple:
    props, lex = [], []
    spec = model.symmetry
    # only explicit elements can move variables alone
    simplify = bool(spec.explicit) and _has_covering_alldiff(model)
    scope = model.symmetry_scope
    for g in _kept(model, _closed_group)[1:] if spec.explicit else spec.class_swaps():
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
    return tuple(props)


def _own_propagators(model: Model) -> tuple[tuple, tuple, Watchers]:
    """The model's propagators, its leaf checks (the stars that check an edge,
    then the propagators) and the watchers, with the stars' neighbours."""
    stars, props = build_propagators(model)
    checks = (*(s for s in stars if s.checked), *props)
    return tuple(props), checks, build_watchers(props, model.num_vars, stars=stars)


def _prepare(model: Model, mode: str) -> tuple[list[int], list, list, Watchers]:
    """The working domains, the propagators, the leaf checks and the watchers
    for one solve: the model's shared own ones, then those the mode posts."""
    _require_mode(model.symmetry, mode)
    classes = model.symmetry.interchangeable_classes
    domains = model.initial_domains()
    own, checks, watchers = _kept(model, _own_propagators)
    extra = []
    if mode == "static-lex":
        extra = _kept(model, _static_lex_propagators)
    elif mode == "precedence":
        extra = [PrecedenceProp(model.symmetry_scope, cls) for cls in classes]
    elif mode == "channel":
        for cls in classes:
            extra += post_first_occurrence_channel(domains, model.symmetry_scope, cls)
    if extra:
        watchers = build_watchers(extra, len(domains), watchers, len(own))
    return domains, [*own, *extra], [*checks, *extra], watchers


def solve(model: Model, config: Optional[SearchConfig] = None) -> tuple[list[tuple[int, ...]], SearchStats]:
    """Depth-first enumeration over an explicit stack, so model depth is not
    bounded by Python's recursion limit, and the only record of the path.
    Returns (solutions, stats); solutions are full assignments over the
    model's variables (channel position variables are stripped),
    deterministic for a given config."""
    if config is None:
        config = SearchConfig()
    domains, props, checks, watchers = _prepare(model, config.symmetry_mode)
    getree = config.symmetry_mode == "getree"
    group, scope = None, set()  # the variables whose decided values getree reads
    if getree:
        group, scope = break_group(model, "getree"), set(model.symmetry_scope)
    budget = config.enumeration_budget
    limit = config.solution_limit
    stats = SearchStats()
    solutions: list[tuple[int, ...]] = []
    num_vars, model_vars = len(domains), model.num_vars
    ascending = config.val_order == "ascending"
    min_dom = config.var_order == "min-domain"
    value_lists: dict[int, list[int]] = {}  # a branching mask -> its values, shared by frames
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

    # one [domains, var, values, next, decided, pending] frame per open
    # ancestor of the node: the child on the path took values[next - 1],
    # values[:next - 1] are done, decided masks the values the decisions above
    # the frame's node gave scope variables and pending marks the propagators
    # retired at or above it; `decided` and `pending` are the same at the node
    stack: list = []
    decided = 0
    pending = [False] * (len(props) + 1)
    nodes = branches = failures = max_depth = 0  # written to stats at the one exit
    while True:
        nodes += 1
        if nodes > budget:
            break
        if len(stack) > max_depth:
            max_depth = len(stack)
        var = stack[-1][1] if stack else -1  # the node's decision, -1 at the root
        outcome = propagate_to_fixpoint(
            props, domains, (var,) if stack else None, watchers, stats, pending
        )
        if outcome.failed:
            failures += 1
        elif (var := pick_var(domains, var + 1)) < 0:
            values = tuple([d.bit_length() - 1 for d in domains])
            if check_all(checks, values):
                solutions.append(values[:model_vars])
                if len(solutions) == limit:
                    break
            else:
                failures += 1
        else:
            if getree:
                vals = getree_allowed_values(decided, var, group, domains, scope)
            else:
                vals = value_lists.get(domains[var])
                if vals is None:
                    vals = value_lists[domains[var]] = list(values_of(domains[var]))
            stack.append([domains, var, vals if ascending else vals[::-1], 0, decided, pending])
        # the next node is the next child of the deepest frame with one left
        while stack:
            frame = stack[-1]
            if frame[3] < len(frame[2]):
                break
            stack.pop()
        else:
            break
        parent, var, vals, nxt, decided, pending = frame
        frame[3] = nxt + 1
        branches += 1
        domains = copy_domains(parent)
        pending = pending.copy()
        bit = domains[var] = 1 << vals[nxt]
        if var in scope:
            decided |= bit
    stats.nodes, stats.branches, stats.failures = nodes, branches, failures
    stats.solutions, stats.max_depth = len(solutions), max_depth
    stats.elapsed = time.perf_counter() - t0
    if nodes > budget:
        raise BudgetExceeded(budget, stats, config.symmetry_mode, solutions)
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
    exactly the modes `solve` refuses: static-lex builds the propagators its
    solves post, which the model keeps, and getree the closed group, which
    the model keeps too. `none` is refused only when its generators alone
    pass `require_enumerable`.
    """
    spec = model.symmetry
    _require_mode(spec, mode)
    if mode == "static-lex":  # refused by the very build its solves post
        _kept(model, _static_lex_propagators)
    if mode in ("precedence", "channel") or (spec.interchangeable_classes and not spec.explicit):
        return spec.class_product()
    if mode == "getree":
        return [g for g in _kept(model, _closed_group) if g.theta_is_identity]
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
    stats: Optional[SearchStats] = field(default=None, repr=False, compare=False)  # its mode's solve


def verify_symmetry_breaking(
    model: Model, modes: Sequence[str], config: Optional[SearchConfig] = None
) -> tuple[bool, list[VerifyModeReport], SearchStats]:
    """Check one-solution-per-orbit for each mode against mode-none enumeration. Returns
    (all_passed, per-mode reports with their own solves' stats, none-run stats).
    An empty or repeated mode list, or a mode the model cannot run, is
    refused before anything is enumerated. Modes that break the same group
    share one orbit partition of the mode-none solutions: none and static-lex
    share the declared generators, and on value classes alone every mode
    breaks the class product. A declared element that maps a solution
    outside the mode-none set is no symmetry of the model, and
    `orbit_partition` raises ModelError for it."""
    if not modes:
        raise ValueError("verify_symmetry_breaking needs at least one mode")
    if len(set(modes)) != len(modes):
        raise ValueError("duplicate mode listed")
    groups = [break_group(model, mode) for mode in modes]
    base = config if config is not None else SearchConfig()
    none_sols, none_stats = solve(model, replace(base, symmetry_mode="none", solution_limit=None))
    none_proj = list(map(model.project_scope, none_sols))
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
            sols, stats = none_sols, none_stats
        else:
            sols, stats = solve(model, replace(base, symmetry_mode=mode, solution_limit=None))
        proj = list(map(model.project_scope, sols))
        # a solution outside the mode-none set, which only an unsound mode finds, counts under None
        counts = Counter(map(orbit_of.get, proj))
        duplicates = [orbit for idx, orbit in enumerate(orbits) if counts[idx] > 1]
        missed = [orbit for idx, orbit in enumerate(orbits) if not counts[idx]]
        non_canonical = sorted(p for p in set(proj) if p in orbit_of and p != orbits[orbit_of[p]][0])
        passed = not duplicates and not missed and not counts[None]
        reports.append(
            VerifyModeReport(
                mode, len(proj), len(orbits), duplicates, missed, non_canonical, passed, stats
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
