"""Backtracking search with pluggable value-symmetry handling.

Modes:
  none        plain DFS over the model's own constraints
  static-lex  post one lex-leader constraint per non-identity group element
  precedence  post one value-precedence constraint per interchangeable class
  channel     add first-occurrence position variables, channel them to the
              scope and order them by a strict chain
  getree      dynamic filtering: at each node branch only on the least value
              of each orbit of the stabilizer of the decisions so far

Domains are a flat list of int bitmasks, one per variable, copied per node;
propagation runs to a fixpoint after every assignment and every leaf is
re-checked against the exact constraint relations, so weak propagators cost
time, never correctness.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Optional, Sequence

from .domains import copy_domains, values_of
from .engine import build_watchers, propagate_to_fixpoint
from .errors import BudgetExceeded, UnsupportedModeError
from .model import Constraint, ConstraintKind, Model
from .propagators import (
    FirstOccurrenceChannelProp,
    LexLeaderProp,
    OrderingChainProp,
    PrecedenceProp,
    build_propagators,
    check_all,
)
from .symmetry import Group, SymmetrySpec, VarValueSymmetry, orbit_partition

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
        return {
            "nodes": self.nodes,
            "branches": self.branches,
            "failures": self.failures,
            "solutions": self.solutions,
            "propagation_calls": self.propagation_calls,
            "max_depth": self.max_depth,
            "elapsed": self.elapsed,
        }


@dataclass
class ModeResult:
    mode: str
    solutions: list[tuple[int, ...]]
    stats: SearchStats


class _SolutionLimit(Exception):
    pass


def _unsupported(spec: SymmetrySpec, mode: str) -> Optional[str]:
    """Why `mode` cannot run on a model declaring `spec`, or None if it can.

    The one statement of each mode's precondition: `solve`, `break_group`
    and `applicable_modes` all ask it.
    """
    if mode not in MODES:
        return f"unknown mode {mode!r}"
    if mode in ("precedence", "channel") and not spec.interchangeable_classes:
        return f"{mode} needs interchangeable value classes"
    if mode in ("static-lex", "getree") and spec.is_trivial:
        return f"{mode} needs declared symmetries"
    if mode == "getree" and spec.explicit and spec.interchangeable_classes:
        return (
            "getree needs a single symmetry source, got both explicit "
            "elements and interchangeable classes"
        )
    return None


def _require_mode(spec: SymmetrySpec, mode: str) -> None:
    reason = _unsupported(spec, mode)
    if reason is not None:
        raise UnsupportedModeError(reason)


@lru_cache(maxsize=64)
def _closed_group(spec: SymmetrySpec) -> tuple[VarValueSymmetry, ...]:
    return tuple(spec.closed_group())


@lru_cache(maxsize=64)
def _value_subgroup(spec: SymmetrySpec) -> tuple[VarValueSymmetry, ...]:
    """Elements with identity variable permutation (what dynamic
    value-symmetry breaking can act on)."""
    return tuple(g for g in _closed_group(spec) if g.theta_is_identity)


def getree_allowed_values(
    partial: Sequence[tuple[int, int]],
    next_var: int,
    spec: SymmetrySpec,
    domains: Sequence[int],
    scope: Optional[Sequence[int]] = None,
) -> list[int]:
    """Values worth branching on at this node, in ascending order.

    partial is the sequence of (var, value) decisions made so far. Only one
    value per orbit of the current stabilizer survives: the least one still
    in the domain mask. Variables outside the symmetry scope are not filtered.
    The spec must have a single symmetry source (explicit elements or
    interchangeable classes); `solve` checks that once, before search.
    """
    if scope is None:
        scope = tuple(range(spec.scope_len))
    scope_set = set(scope)
    dom = domains[next_var]
    if next_var not in scope_set:
        return list(values_of(dom))
    decided = {val for var, val in partial if var in scope_set}
    if spec.explicit:
        stab = [
            g.sigma
            for g in _value_subgroup(spec)
            if all(g.sigma(v) == v for v in decided)
        ]
        allowed = []
        seen = 0
        for v in values_of(dom):
            if (seen >> v) & 1:
                continue
            allowed.append(v)
            orbit = 1 << v
            frontier = [v]
            while frontier:
                u = frontier.pop()
                for s in stab:
                    w = s(u)
                    if not (orbit >> w) & 1:
                        orbit |= 1 << w
                        frontier.append(w)
            seen |= orbit
        return allowed
    if spec.interchangeable_classes:
        class_of = {}
        for idx, cls in enumerate(spec.interchangeable_classes):
            for v in cls:
                class_of[v] = idx
        fresh_done = set()
        allowed = []
        for v in values_of(dom):
            idx = class_of.get(v)
            if idx is None or v in decided:
                allowed.append(v)
                continue
            if idx in fresh_done:
                continue
            # v is the least unused value of its class still in the domain
            allowed.append(v)
            fresh_done.add(idx)
        return allowed
    return list(values_of(dom))


@dataclass
class _Prepared:
    domains: list[int]
    propagators: list
    getree: bool


def _has_covering_alldiff(model: Model) -> bool:
    scope = set(model.symmetry_scope)
    return any(
        c.kind is ConstraintKind.ALL_DIFFERENT and scope <= set(c.scope)
        for c in model.constraints
    )


def _static_lex_propagators(model: Model) -> list:
    props = []
    simplify = _has_covering_alldiff(model)
    scope = model.symmetry_scope
    for g in _closed_group(model.symmetry):
        if g.is_identity:
            continue
        if g.sigma.is_identity and simplify:
            # pure variable symmetry under an all-different scope: the first
            # moved position decides, and ties there are impossible
            inv = g.theta_inverse()
            j0 = next(j for j in range(len(inv)) if inv[j] != j)
            props.append(OrderingChainProp((scope[j0], scope[inv[j0]]), strict=True))
        else:
            props.append(LexLeaderProp(scope, g))
    return props


def _prepare(model: Model, config: SearchConfig) -> _Prepared:
    mode = config.symmetry_mode
    _require_mode(model.symmetry, mode)
    classes = model.symmetry.interchangeable_classes
    domains = model.initial_domains()
    props = build_propagators(model)
    if mode == "static-lex":
        props += _static_lex_propagators(model)
    elif mode == "precedence":
        props += [PrecedenceProp(model.symmetry_scope, cls) for cls in classes]
    elif mode == "channel":
        # each class's position variables are numbered after every variable
        # so far, so the model's own variables keep their ids
        for cls in classes:
            z_vars = tuple(range(len(domains), len(domains) + len(cls)))
            channel = FirstOccurrenceChannelProp(model.symmetry_scope, z_vars, cls)
            domains += [channel.position_mask(k) for k in range(len(cls))]
            props += [channel, OrderingChainProp(z_vars, strict=True)]
    return _Prepared(domains, props, mode == "getree")


def solve(model: Model, config: Optional[SearchConfig] = None) -> tuple[list[tuple[int, ...]], SearchStats]:
    """Depth-first enumeration. Returns (solutions, stats); solutions are
    full assignments over the model's variables (channel position variables
    are stripped), deterministic for a given config."""
    if config is None:
        config = SearchConfig()
    prep = _prepare(model, config)
    budget = config.enumeration_budget if config.enumeration_budget is not None else default_budget()
    limit = config.solution_limit
    stats = SearchStats()
    solutions: list[tuple[int, ...]] = []
    watchers = build_watchers(prep.propagators, len(prep.domains))
    num_vars = len(prep.domains)
    ascending = config.val_order == "ascending"
    min_dom = config.var_order == "min-domain"
    partial: list[tuple[int, int]] = []
    t0 = time.perf_counter()

    def pick_var(domains) -> int:
        if min_dom:
            best, best_size = -1, 0
            for v in range(num_vars):
                s = domains[v].bit_count()
                if s > 1 and (best < 0 or s < best_size):
                    best, best_size = v, s
            return best
        for v in range(num_vars):
            d = domains[v]
            if d & (d - 1):
                return v
        return -1

    def dfs(domains, trigger, depth):
        stats.nodes += 1
        if stats.nodes > budget:
            stats.elapsed = time.perf_counter() - t0
            raise BudgetExceeded(budget, stats)
        if depth > stats.max_depth:
            stats.max_depth = depth
        outcome = propagate_to_fixpoint(prep.propagators, domains, trigger, watchers, stats)
        if outcome.failed:
            stats.failures += 1
            return
        var = pick_var(domains)
        if var < 0:
            values = tuple(d.bit_length() - 1 for d in domains)
            if check_all(prep.propagators, values):
                stats.solutions += 1
                solutions.append(values[: model.num_vars])
                if limit is not None and stats.solutions >= limit:
                    raise _SolutionLimit
            else:
                stats.failures += 1
            return
        if prep.getree:
            vals = getree_allowed_values(
                partial, var, model.symmetry, domains, scope=model.symmetry_scope
            )
        else:
            vals = list(values_of(domains[var]))
        if not ascending:
            vals = vals[::-1]
        for v in vals:
            stats.branches += 1
            child = copy_domains(domains)
            child[var] = 1 << v
            partial.append((var, v))
            try:
                dfs(child, (var,), depth + 1)
            finally:
                partial.pop()

    try:
        dfs(prep.domains, None, 0)
    except _SolutionLimit:
        pass
    stats.elapsed = time.perf_counter() - t0
    return solutions, stats


def compare_methods(
    model: Model, modes: Sequence[str], config: Optional[SearchConfig] = None
) -> dict[str, ModeResult]:
    """Run solve once per mode with identical orderings and budget."""
    if len(modes) < 2:
        raise ValueError("compare_methods needs at least two modes")
    if len(set(modes)) != len(modes):
        raise ValueError("duplicate mode listed")
    base = config if config is not None else SearchConfig()
    out: dict[str, ModeResult] = {}
    for mode in modes:
        sols, stats = solve(model, replace(base, symmetry_mode=mode))
        out[mode] = ModeResult(mode, sols, stats)
    return out


def break_group(model: Model, mode: str) -> Group:
    """The symmetry group a mode actually breaks; orbit checks use this.

    static-lex (and `none`, for checking a model's own posted constraints)
    break the full closed group; precedence/channel break the class product;
    getree breaks the value-only subgroup (it cannot see variable
    permutations). Whenever that group is exactly the class product it is
    returned in structural form, which has no size limit; otherwise it is
    enumerated, up to `GROUP_CAP` elements. Raises UnsupportedModeError for
    a mode the model cannot run, as `solve` does.
    """
    spec = model.symmetry
    _require_mode(spec, mode)
    if mode in ("precedence", "channel") or (spec.interchangeable_classes and not spec.explicit):
        return spec.class_product()
    if mode == "getree":
        return list(_value_subgroup(spec))
    return list(_closed_group(spec))


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
    enumeration. Returns (all_passed, per-mode reports, none-run stats)."""
    base = config if config is not None else SearchConfig()
    none_sols, none_stats = solve(model, replace(base, symmetry_mode="none", solution_limit=None))
    none_proj = [model.project_scope(s) for s in none_sols]
    reports = []
    for mode in modes:
        group = break_group(model, mode)
        orbits = orbit_partition(none_proj, group)
        if mode == "none":
            sols = none_sols
        else:
            sols, _ = solve(model, replace(base, symmetry_mode=mode, solution_limit=None))
        proj = [model.project_scope(s) for s in sols]
        member_orbit: dict[tuple[int, ...], int] = {}
        for idx, orbit in enumerate(orbits):
            for a in orbit:
                member_orbit[a] = idx
        counts = [0] * len(orbits)
        stray = []
        for p in proj:
            if p in member_orbit:
                counts[member_orbit[p]] += 1
            else:
                stray.append(p)  # solution outside mode-none set: impossible unless unsound
        duplicates = [orbits[i] for i, c in enumerate(counts) if c > 1]
        missed = [orbits[i] for i, c in enumerate(counts) if c == 0]
        non_canonical = sorted(
            p for p in set(proj) if p in member_orbit and p != orbits[member_orbit[p]][0]
        )
        passed = not duplicates and not missed and not stray
        reports.append(
            VerifyModeReport(
                mode, len(proj), len(orbits), duplicates, missed, non_canonical, passed
            )
        )
    return all(r.passed for r in reports), reports, none_stats


def applicable_modes(model: Model) -> list[str]:
    """Symmetry-breaking modes (every mode but `none`) that this model's
    declared symmetries support."""
    return [m for m in MODES if m != "none" and _unsupported(model.symmetry, m) is None]
