import random

import pytest

from oracles import naive_fixpoint
from test_propagators import IDEMPOTENCE_CASES
from valsym import propagators, search
from valsym.domains import mask_of, values_of
from valsym.engine import Propagator, build_watchers, propagate_to_fixpoint
from valsym.model import Constraint, ConstraintKind, Model
from valsym.problems import build_all_interval, build_pigeonhole
from valsym.search import MODES, SearchConfig, SearchStats, solve
from valsym.propagators import (
    AllDifferentProp,
    EqualityDisjunctionProp,
    LexLeaderProp,
    NotEqualProp,
    OrderingChainProp,
    PrecedenceProp,
    build_propagators,
)
from valsym.symmetry import SymmetrySpec, ValuePermutation, VarValueSymmetry, inversion_permutation


def _edge(x, y):
    """x != y as the solver posts it: one star at each end."""
    return [NotEqualProp(x, (y,)), NotEqualProp(y, (x,))]


def test_not_equal_fixpoint():
    doms = [mask_of([3]), mask_of([3, 4])]
    out = propagate_to_fixpoint(_edge(0, 1), doms)
    assert not out.failed
    assert doms == [mask_of([3]), mask_of([4])]


def test_own_changes_do_not_wake_a_propagator():
    # the chain returns at its own fixpoint, so narrowing var 1, which it
    # watches and wakes on, does not queue it for a run that changes nothing
    doms = [mask_of([3]), mask_of([3, 4])]
    stats = SearchStats()
    out = propagate_to_fixpoint([OrderingChainProp((0, 1))], doms, stats=stats)
    assert not out.failed and doms == [mask_of([3]), mask_of([4])]
    assert stats.propagation_calls == 1


def test_failure_reported_not_stored():
    doms = [mask_of([3]), mask_of([3])]
    stats = SearchStats()
    out = propagate_to_fixpoint(_edge(0, 1), doms, stats=stats)
    assert out.failed
    assert stats.propagation_calls == 1  # counted on the failing return too


def test_chain_contradiction_fails():
    doms = [mask_of([2, 3]), mask_of([0, 1])]
    out = propagate_to_fixpoint([OrderingChainProp((0, 1))], doms)
    assert out.failed


def test_all_interval_root_prefix_bound():
    # with first<last and the inversion lex-leader posted, the root fixpoint
    # caps the first series variable at 5
    m = build_all_interval(11)
    inversion = VarValueSymmetry.value_only(11, inversion_permutation(11))
    props = build_propagators(m) + [
        OrderingChainProp((0, 10)),
        LexLeaderProp(m.symmetry_scope, inversion),
    ]
    doms = m.initial_domains()
    out = propagate_to_fixpoint(props, doms)
    assert not out.failed
    assert set(values_of(doms[0])) <= set(range(6))


def test_trigger_vars_wake_only_watchers():
    doms = [mask_of([3]), mask_of([3, 4]), mask_of([0, 1])]
    props = _edge(0, 1)
    stats = SearchStats()
    out = propagate_to_fixpoint(props, doms, trigger_vars=[2], stats=stats)
    # nothing watches var 2, so nothing runs and nothing changes
    assert not out.failed and stats.propagation_calls == 0
    assert doms == [mask_of([3]), mask_of([3, 4]), mask_of([0, 1])]
    out = propagate_to_fixpoint(props, doms, trigger_vars=[0])
    assert list(values_of(doms[1])) == [4]


def _random_instance(rng):
    n = rng.randint(3, 5)
    u = rng.randint(3, 5)
    doms = [rng.randrange(1, 1 << u) for _ in range(n)]
    neighbours = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                neighbours[i].append(j)
                neighbours[j].append(i)
    props = [NotEqualProp(x, ys) for x, ys in enumerate(neighbours) if ys]
    if rng.random() < 0.5:
        props.append(AllDifferentProp(tuple(range(n))))
    if rng.random() < 0.5:
        k = rng.randint(2, n)
        props.append(OrderingChainProp(tuple(range(k))))
    if rng.random() < 0.5:
        props.append(PrecedenceProp(tuple(range(n)), tuple(range(min(3, u)))))
    if rng.random() < 0.5:
        img = list(range(u))
        rng.shuffle(img)
        sym = VarValueSymmetry.value_only(n, ValuePermutation(tuple(img)))
        props.append(LexLeaderProp(tuple(range(n)), sym))
    if rng.random() < 0.5:
        pairs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 3))]
        props.append(EqualityDisjunctionProp(pairs))
    return doms, props


def test_fixpoint_confluent_under_scheduling_order():
    # same propagators in different registration orders must reach the same
    # fixpoint (or fail identically)
    rng = random.Random(99)
    for _ in range(300):
        doms, props = _random_instance(rng)
        if not props:
            continue
        results = []
        for perm_seed in (0, 1, 2):
            order = props[:]
            random.Random(perm_seed).shuffle(order)
            local = list(doms)
            out = propagate_to_fixpoint(order, local)
            results.append((out.failed, local))
        assert results[0][0] == results[1][0] == results[2][0]
        if not results[0][0]:
            assert results[0][1] == results[1][1] == results[2][1]


def test_fixpoint_is_stable():
    # re-running propagation on a fixpoint changes nothing
    rng = random.Random(7)
    for _ in range(200):
        doms, props = _random_instance(rng)
        if not props:
            continue
        out = propagate_to_fixpoint(props, doms)
        if out.failed:
            continue
        before = list(doms)
        out2 = propagate_to_fixpoint(props, doms)
        assert not out2.failed
        assert doms == before


def test_fixpoint_matches_waking_every_propagator_on_every_change():
    # fix-only propagators are woken only when a watched variable becomes
    # fixed, and run ahead of the rest; the fixpoint must not change, at the
    # root and after a search-style decision on a copy of the root fixpoint
    rng = random.Random(4242)
    checked = 0
    for _ in range(600):
        doms, props = _random_instance(rng)
        if not props:
            continue
        ref = list(doms)
        ref_failed = naive_fixpoint(props, ref)
        assert propagate_to_fixpoint(props, doms).failed == ref_failed
        if ref_failed:
            continue
        assert doms == ref
        open_vars = [v for v, d in enumerate(doms) if d & (d - 1)]
        if not open_vars:
            continue
        v = rng.choice(open_vars)
        child = list(doms)
        child[v] = 1 << rng.choice(list(values_of(child[v])))
        ref = list(child)
        ref_failed = naive_fixpoint(props, ref)
        assert propagate_to_fixpoint(props, child, trigger_vars=[v]).failed == ref_failed
        if not ref_failed:
            assert child == ref
        checked += 1
    assert checked > 100


def _unfixed_mask(rng, width):
    while True:
        mask = rng.randrange(1, 1 << width)
        if mask & (mask - 1):
            return mask


def test_fix_only_propagators_prune_nothing_while_no_waking_variable_is_fixed():
    # the engine wakes a fix-only propagator only when a change leaves one of
    # its waking variables fixed, so one that could prune earlier is
    # mislabelled; the other watched variables (a star's neighbours) may be
    # fixed, as drawn or all of them
    fix_only = [
        cls for cls in vars(propagators).values()
        if isinstance(cls, type) and issubclass(cls, Propagator) and cls.fix_only
    ]
    assert fix_only
    rng = random.Random(1313)
    for cls in fix_only:
        for _ in range(2_000):
            prop, doms = IDEMPOTENCE_CASES[cls.kind](rng)
            if not prop.wakes:
                continue  # a disjunction of no pairs: the root runs it anyway
            width = max(3, max(d.bit_length() for d in doms))
            for v in prop.wakes:
                doms[v] = _unfixed_mask(rng, width)
            rest = [v for v in prop.watches if v not in prop.wakes]
            fixed = list(doms)
            for v in rest:
                fixed[v] = 1 << rng.choice(list(values_of(fixed[v])))
            for case in (doms, fixed):
                before = list(case)
                assert prop.propagate(case) == (False, []), (cls.kind, before)
                assert case == before


def test_a_star_prunes_nothing_while_its_centre_is_unfixed():
    doms = [mask_of([0, 1]), mask_of([0]), mask_of([1])]
    star = NotEqualProp(0, (1, 2))
    assert star.wakes == (0,) and star.watches == (0, 1, 2)
    assert star.propagate(doms) == (False, [])
    assert doms == [mask_of([0, 1]), mask_of([0]), mask_of([1])]


def test_root_runs_not_equal_only_through_a_fixed_variable():
    # x0 is fixed at the root, so its star prunes x1, which stays open; no
    # other star's centre is fixed, so none of them runs
    doms = [mask_of([3]), mask_of([3, 4, 5]), mask_of([0, 1]), mask_of([0, 1])]
    stats = SearchStats()
    out = propagate_to_fixpoint(_edge(2, 3) + _edge(0, 1), doms, stats=stats)
    assert not out.failed and doms[1] == mask_of([4, 5])
    assert stats.propagation_calls == 1


def _random_watched(rng, num_vars):
    scope = rng.sample(range(num_vars), rng.randint(1, num_vars))
    kind = rng.randrange(4)
    if kind == 0:
        return NotEqualProp(scope[0], scope[1:])
    if kind == 1:
        return AllDifferentProp(scope)
    if kind == 2:
        return OrderingChainProp(scope)
    return EqualityDisjunctionProp(list(zip(scope, scope[1:])))


def test_extending_base_watchers_matches_watching_the_whole_list():
    # the order of each entry is the order propagators are queued in, so it
    # is what keeps propagation_calls the same
    rng = random.Random(2929)
    for _ in range(500):
        base_vars = rng.randint(1, 6)
        num_vars = base_vars + rng.randint(0, 3)  # a mode may add variables
        head = [_random_watched(rng, base_vars) for _ in range(rng.randint(0, 6))]
        tail = [_random_watched(rng, num_vars) for _ in range(rng.randint(0, 6))]
        base = build_watchers(head, base_vars)
        before = (list(base[0]), list(base[1]), base[2])
        extended = build_watchers(tail, num_vars, base, len(head))
        assert extended == build_watchers(head + tail, num_vars)
        assert base == before
        assert all(type(entry) is tuple for lists in extended[:2] for entry in lists)
        # the root seeds every propagator but a fix-only one with a waking variable
        props = head + tail
        assert extended[2] == tuple(i for i, p in enumerate(props) if not p.fix_only or not p.wakes)


def test_stars_and_default_params_are_lean():
    assert not hasattr(NotEqualProp(0, (1,)), "__dict__")
    a = Constraint(ConstraintKind.NOT_EQUAL, (0, 1))
    b = Constraint(ConstraintKind.ALL_DIFFERENT, (1, 2, 3))
    assert not hasattr(a, "__dict__") and a.params is b.params
    assert a == Constraint(ConstraintKind.NOT_EQUAL, (0, 1), {})


class _Recorder(Propagator):
    wakes = ()  # shadows the default, so that an instance can set its own

    def __init__(self, name, watches, fix_only, log, wakes=None):
        self.name, self.watches, self.fix_only, self.log = name, watches, fix_only, log
        self.wakes = watches if wakes is None else wakes

    def propagate(self, domains):
        self.log.append(self.name)
        return False, []


def test_fix_only_watchers_run_before_the_fifo():
    log = []
    props = [
        _Recorder("global", (0, 1), False, log),
        _Recorder("on-fix-0", (0,), True, log),
        _Recorder("on-fix-1", (1,), True, log),
    ]
    doms = [mask_of([2]), mask_of([0, 1])]
    assert not propagate_to_fixpoint(props, doms, trigger_vars=[0, 1]).failed
    # x1 is not fixed, so only x0's fix-only watcher wakes, ahead of the FIFO
    assert log == ["on-fix-0", "global"]


@pytest.mark.parametrize("fix_only", [False, True])
def test_only_waking_variables_wake_a_propagator(fix_only):
    # it watches x0 and x1 but wakes on x0 alone
    log = []
    props = [_Recorder("p", (0, 1), fix_only, log, wakes=(0,))]
    doms = [mask_of([0, 1]), mask_of([2])]
    assert not propagate_to_fixpoint(props, doms, trigger_vars=[1]).failed
    assert log == []
    doms[0] = mask_of([1])
    assert not propagate_to_fixpoint(props, doms, trigger_vars=[0]).failed
    assert log == ["p"]


def test_root_wakes_a_fix_only_propagator_through_fixed_waking_variables_only():
    log = []
    props = [_Recorder("p", (0, 1), True, log, wakes=(0,))]
    # x1 is fixed but does not wake it, and x0 is open
    assert not propagate_to_fixpoint(props, [mask_of([0, 1]), mask_of([2])]).failed
    assert log == []
    assert not propagate_to_fixpoint(props, [mask_of([1]), mask_of([2])]).failed
    assert log == ["p"]
    # with no waking variable at all, the root runs it once
    log.clear()
    props = [_Recorder("q", (0, 1), True, log, wakes=())]
    assert not propagate_to_fixpoint(props, [mask_of([1]), mask_of([2])]).failed
    assert log == ["q"]


@pytest.mark.parametrize("mode", MODES)
def test_pigeonhole_2_fails_at_its_root(mode):
    # n=2 has no non-adjacent pair: its equality disjunction has no pairs and
    # watches nothing, so only the root can run it
    _, stats = solve(build_pigeonhole(2), SearchConfig(symmetry_mode=mode))
    assert (stats.nodes, stats.failures, stats.solutions) == (1, 1, 0)


class _Retiring(Propagator):
    """Watches every variable, prunes nothing, logs the domains of each call
    and reports itself entailed once x0 is fixed to `at`."""

    kind = "retiring"

    def __init__(self, num_vars, at, log):
        self.watches = tuple(range(num_vars))
        self.at, self.log = at, log

    def propagate(self, domains):
        self.log.append(tuple(domains))
        return (None if domains[0] == 1 << self.at else False), []

    def check(self, values):
        return True


def test_a_retired_propagator_stays_retired_below_its_node_only(monkeypatch):
    # three binary variables and no constraint: the full tree of 15 nodes.
    # The propagator retires at x0 = 0, so it runs there once and never
    # below, but runs at x0 = 1 and at each of that node's children
    log = []
    monkeypatch.setattr(search, "build_propagators", lambda model: [_Retiring(3, 0, log)])
    model = Model("free", 2, (0b11,) * 3, (), SymmetrySpec(scope_len=3, universe_size=2), (0, 1, 2))
    sols, stats = solve(model)
    assert len(sols) == 8 and stats.nodes == 15
    below_retired = [doms for doms in log if doms[0] == 0b01]
    sibling = [doms for doms in log if doms[0] == 0b10]
    assert below_retired == [(0b01, 0b11, 0b11)]
    # x0 = 1, then x1 = 0 and x1 = 1 and below them x2 (leaves wake it too)
    assert len(sibling) == 1 + 2 + 4
    assert stats.propagation_calls == len(log) == 1 + 1 + len(sibling)


def test_root_seeding_skips_a_propagator_the_pending_list_marks():
    log = []
    props = [_Recorder("skipped", (0,), False, log), _Recorder("runs", (0,), False, log)]
    pending = [True, False, False]
    assert not propagate_to_fixpoint(props, [mask_of([0, 1])], pending=pending).failed
    assert log == ["runs"]
    assert pending == [True, False, False]
    # a change to a watched variable does not wake it either
    assert not propagate_to_fixpoint(props, [mask_of([1])], trigger_vars=[0], pending=pending).failed
    assert log == ["runs", "runs"]


def test_after_a_fixpoint_the_pending_list_marks_exactly_the_retired():
    log = []
    # x0 = 1 retires the first _Retiring, not the second
    props = [_Recorder("p", (0,), False, log), _Retiring(1, 1, []), _Retiring(1, 0, [])]
    pending = [False] * 4
    assert not propagate_to_fixpoint(props, [mask_of([1])], pending=pending).failed
    assert pending == [False, True, False, False]
