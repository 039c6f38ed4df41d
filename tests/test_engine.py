import random
from collections import Counter

import pytest

from oracles import ReferenceStar, naive_fixpoint, reference_fixpoint
from test_propagators import IDEMPOTENCE_CASES, _graph_model, _random_masks
from valsym import search
from valsym.domains import mask_of, values_of
from valsym.engine import Propagator, build_watchers, propagate_to_fixpoint
from valsym.model import Constraint, ConstraintKind, Model
from valsym.problems import build_all_interval, build_pigeonhole
from valsym.search import MODES, SearchConfig, SearchStats, solve
from valsym.propagators import (
    AbsDiffProp,
    AllDifferentProp,
    EqualityDisjunctionProp,
    LexLeaderProp,
    NotEqualProp,
    OrderingChainProp,
    PrecedenceProp,
    build_propagators,
    post_first_occurrence_channel,
)
from valsym.symmetry import SymmetrySpec, ValuePermutation, VarValueSymmetry, inversion_permutation


def _edge(x, y):
    """x != y as the solver posts it: one star at each end."""
    return [NotEqualProp(x, (y,)), NotEqualProp(y, (x,))]


def _fixpoint(props, doms, stars, **kwargs):
    """propagate_to_fixpoint on watchers that also hold the stars' neighbours."""
    watchers = build_watchers(props, len(doms), stars=stars)
    return propagate_to_fixpoint(props, doms, watchers=watchers, **kwargs)


def test_not_equal_fixpoint():
    doms = [mask_of([3]), mask_of([3, 4])]
    out = _fixpoint([], doms, _edge(0, 1))
    assert not out.failed
    assert doms == [mask_of([3]), mask_of([4])]


def test_a_fixed_neighbour_prunes_its_own_neighbours_in_turn():
    # a path x0 - x1 - x2 - x3: x0 = 1 leaves x1 = 2, which leaves x2 = 3,
    # which empties x3; then without x3's fix the path settles
    doms = [mask_of([1]), mask_of([1, 2]), mask_of([2, 3]), mask_of([3])]
    stars = _edge(0, 1) + _edge(1, 2) + _edge(2, 3)
    assert _fixpoint([], doms, stars).failed
    doms = [mask_of([1]), mask_of([1, 2]), mask_of([2, 3]), mask_of([3, 4])]
    assert not _fixpoint([], doms, stars).failed
    assert doms == [mask_of([1]), mask_of([2]), mask_of([3]), mask_of([4])]


def test_a_neighbour_prune_wakes_the_propagator_whose_write_fixed_its_source():
    # |x0 - x1| = x2 narrows x1 to 2; the engine then drops 2 from x1's
    # neighbour x2, which the abs-diff watches too, so it must run again and
    # fix x0 to 2
    doms = [mask_of([0, 2]), mask_of([1, 2]), mask_of([0, 2])]
    stats = SearchStats()
    pending = [False, False]
    out = _fixpoint([AbsDiffProp(0, 1, 2)], doms, _edge(1, 2), stats=stats, pending=pending)
    assert not out.failed and doms == [mask_of([2]), mask_of([2]), mask_of([0])]
    assert stats.propagation_calls == 2 and pending == [False, False]


def test_own_changes_do_not_wake_a_propagator():
    # the chain returns at its own fixpoint, so narrowing var 1, which it
    # watches and wakes on, does not queue it for a run that changes nothing
    doms = [mask_of([3]), mask_of([3, 4])]
    stats = SearchStats()
    out = propagate_to_fixpoint([OrderingChainProp((0, 1))], doms, stats=stats)
    assert not out.failed and doms == [mask_of([3]), mask_of([4])]
    assert stats.propagation_calls == 1


def test_failure_reported_not_stored():
    # the chain fixes x1 to 4, and the engine's prune of x1's neighbour x2
    # then empties it
    doms = [mask_of([3]), mask_of([3, 4]), mask_of([4])]
    stats = SearchStats()
    out = _fixpoint([OrderingChainProp((0, 1))], doms, _edge(1, 2), stats=stats)
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
    stars, props = build_propagators(m)
    props += [OrderingChainProp((0, 10)), LexLeaderProp(m.symmetry_scope, inversion)]
    doms = m.initial_domains()
    out = _fixpoint(props, doms, stars)
    assert not out.failed
    assert set(values_of(doms[0])) <= set(range(6))


def test_trigger_vars_wake_only_watchers():
    doms = [mask_of([3]), mask_of([3, 4]), mask_of([0, 1])]
    props = [OrderingChainProp((0, 1))]
    stats = SearchStats()
    out = _fixpoint(props, doms, _edge(0, 1), trigger_vars=[2], stats=stats)
    # nothing watches var 2 and it has no neighbour, so nothing changes
    assert not out.failed and stats.propagation_calls == 0
    assert doms == [mask_of([3]), mask_of([3, 4]), mask_of([0, 1])]
    out = _fixpoint(props, doms, _edge(0, 1), trigger_vars=[0])
    assert list(values_of(doms[1])) == [4]


def _random_instance(rng):
    """Random domains, random not-equal stars and random propagators."""
    n = rng.randint(3, 5)
    u = rng.randint(3, 5)
    doms = [rng.randrange(1, 1 << u) for _ in range(n)]
    neighbours = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                neighbours[i].append(j)
                neighbours[j].append(i)
    stars = [NotEqualProp(x, ys) for x, ys in enumerate(neighbours) if ys]
    props = []
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
    return doms, props, stars


def _reference_stars(stars):
    return [ReferenceStar(s.x, s.others) for s in stars]


def test_fixpoint_confluent_under_scheduling_order():
    # same propagators in different registration orders must reach the same
    # fixpoint (or fail identically)
    rng = random.Random(99)
    for _ in range(300):
        doms, props, stars = _random_instance(rng)
        if not props:
            continue
        results = []
        for perm_seed in (0, 1, 2):
            order = props[:]
            random.Random(perm_seed).shuffle(order)
            local = list(doms)
            out = _fixpoint(order, local, stars)
            results.append((out.failed, local))
        assert results[0][0] == results[1][0] == results[2][0]
        if not results[0][0]:
            assert results[0][1] == results[1][1] == results[2][1]


def test_fixpoint_is_stable():
    # re-running propagation on a fixpoint changes nothing
    rng = random.Random(7)
    for _ in range(200):
        doms, props, stars = _random_instance(rng)
        if not props:
            continue
        out = _fixpoint(props, doms, stars)
        if out.failed:
            continue
        before = list(doms)
        out2 = _fixpoint(props, doms, stars)
        assert not out2.failed
        assert doms == before


def test_fixpoint_matches_waking_every_propagator_on_every_change():
    # late propagators wait for the early queue to drain, and the engine
    # prunes not-equal neighbours itself; the fixpoint must not change, at the
    # root and after a search-style decision on a copy of the root fixpoint
    rng = random.Random(4242)
    checked = 0
    for _ in range(600):
        doms, props, stars = _random_instance(rng)
        if not props:
            continue
        reference = props + _reference_stars(stars)
        ref = list(doms)
        ref_failed = naive_fixpoint(reference, ref)
        assert _fixpoint(props, doms, stars).failed == ref_failed
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
        ref_failed = naive_fixpoint(reference, ref)
        assert _fixpoint(props, child, stars, trigger_vars=[v]).failed == ref_failed
        if not ref_failed:
            assert child == ref
        checked += 1
    assert checked > 100


def _engine_case(rng):
    """Declared not-equal edges and the stars `build_propagators` makes of
    them and of 1-2 all-different cliques, with one or two of all-different,
    abs-diff and the first-occurrence channel (numbering its position
    variables after the model's, as channel mode does) over random domains,
    some variables fixed. Returns the propagators, the stars, the watchers
    and the domains."""
    n, u = rng.randint(3, 8), rng.randint(3, 8)
    kinds = rng.sample(("all-different", "abs-diff", "channel"), rng.randint(1, 2))
    constraints = [Constraint(ConstraintKind.NOT_EQUAL, tuple(rng.sample(range(n), 2)))
                   for _ in range(rng.randint(0, n))]
    for kind, arity in (("all-different", 0), ("abs-diff", 3)):
        if kind in kinds:
            for _ in range(rng.randint(1, 2)):
                scope = tuple(rng.sample(range(n), arity or rng.randint(2, min(n, u))))
                constraints.append(Constraint(ConstraintKind(kind), scope))
    rng.shuffle(constraints)
    model = _graph_model(n, u, constraints)
    doms = _random_masks(rng, n, u, fixed=rng.choice((0.1, 0.3)))
    stars, props = build_propagators(model)
    watchers = build_watchers(props, n, stars=stars)
    if "channel" in kinds:
        order = rng.sample(range(u), rng.randint(1, u))
        extra = post_first_occurrence_channel(doms, rng.sample(range(n), rng.randint(1, n)), order)
        watchers = build_watchers(extra, len(doms), watchers, len(props))
        props += extra
    return props, stars, watchers, doms


def test_engine_not_equal_prunes_match_the_reference_stars():
    # the engine's own not-equal prunes reach the fixpoint the engine reached
    # when it ran the stars as propagators woken by their centre's fix: at
    # the root, and after a search-style decision on the root fixpoint
    rng = random.Random(3535)
    outcomes = Counter()
    for _ in range(3_000):
        props, stars, watchers, doms = _engine_case(rng)
        reference = _reference_stars(stars) + props
        for phase in ("root", "decision"):
            trigger = None
            if phase == "decision":
                open_vars = [v for v, d in enumerate(doms) if d & (d - 1)]
                if not open_vars:
                    break
                v = rng.choice(open_vars)
                doms[v] = 1 << rng.choice(list(values_of(doms[v])))
                trigger = [v]
            start, ref = list(doms), list(doms)
            ref_failed = reference_fixpoint(reference, ref, trigger)
            failed = propagate_to_fixpoint(props, doms, trigger, watchers).failed
            assert failed == ref_failed, (props, stars, start, trigger)
            if failed:
                outcomes[phase, "failed"] += 1
                break
            assert doms == ref, (props, stars, start, trigger)
            outcomes[phase, "pruned" if doms != start else "unchanged"] += 1
    # seed 3535 draws each outcome in each phase often
    assert len(outcomes) == 6 and min(outcomes.values()) > 80, outcomes


def _schedule_case(rng):
    """An `_engine_case` with, each half the time, an ordering chain and a
    precedence over random variables, its watchers extended to watch them."""
    props, stars, watchers, doms = _engine_case(rng)
    num_vars, width = len(doms), max(3, *(d.bit_length() for d in doms))
    extra = []
    if rng.random() < 0.5:
        extra.append(OrderingChainProp(rng.sample(range(num_vars), rng.randint(2, 3))))
    if rng.random() < 0.5:
        scope = rng.sample(range(num_vars), rng.randint(2, num_vars))
        extra.append(PrecedenceProp(scope, rng.sample(range(width), rng.randint(2, width))))
    watchers = build_watchers(extra, num_vars, watchers, len(props))
    return props + extra, stars, watchers, doms


def test_late_flags_only_schedule():
    # all early, all late or the built-in flags: the engine reaches the
    # fixpoint of rerunning every propagator and reference star until nothing
    # changes, at the root and after each of up to three search-style
    # decisions, each on the fixpoint before it
    rng = random.Random(3636)
    outcomes = Counter()
    for _ in range(2_000):
        props, stars, (on_change, late, neighbours), doms = _schedule_case(rng)
        assert late == tuple(p.late for p in props)
        reference = props + _reference_stars(stars)
        trigger = None
        for phase in ("root", "decision", "decision", "decision"):
            if phase == "decision":
                open_vars = [v for v, d in enumerate(doms) if d & (d - 1)]
                if not open_vars:
                    break
                v = rng.choice(open_vars)
                doms[v] = 1 << rng.choice(list(values_of(doms[v])))
                trigger = [v]
            ref = list(doms)
            ref_failed = naive_fixpoint(reference, ref)
            for flags in (late, (False,) * len(props), (True,) * len(props)):
                got = list(doms)
                watchers = (on_change, flags, neighbours)
                failed = propagate_to_fixpoint(props, got, trigger, watchers).failed
                assert failed == ref_failed, (props, stars, doms, trigger, flags)
                if not failed:
                    assert got == ref, (props, stars, doms, trigger, flags)
            if ref_failed:
                outcomes[phase, "failed"] += 1
                break
            outcomes[phase, "pruned" if ref != doms else "unchanged"] += 1
            doms = ref
    # seed 3636 draws each outcome in each phase often; most roots fail
    assert len(outcomes) == 6 and min(outcomes.values()) > 40, outcomes


def test_equality_disjunction_waits_for_its_whole_scope():
    # it prunes nothing and does not fail while a watched variable is open
    rng = random.Random(1313)
    for _ in range(2_000):
        prop, doms = IDEMPOTENCE_CASES["equality-disjunction"](rng)
        if not prop.watches:
            continue  # a disjunction of no pairs: it fails at the root
        doms[rng.choice(prop.watches)] = rng.choice((0b011, 0b101, 0b110, 0b111))
        before = list(doms)
        assert prop.propagate(doms) == (False, []), before
        assert doms == before


def test_a_star_prunes_nothing_while_its_centre_is_unfixed():
    # x1 and x2 are fixed but no star is centred on them
    doms = [mask_of([0, 1]), mask_of([0]), mask_of([1])]
    stats = SearchStats()
    out = _fixpoint([], doms, [NotEqualProp(0, (1, 2))], stats=stats)
    assert not out.failed and stats.propagation_calls == 0
    assert doms == [mask_of([0, 1]), mask_of([0]), mask_of([1])]
    out = _fixpoint([], doms, [NotEqualProp(0, (1, 2))], trigger_vars=[0])
    assert not out.failed and doms == [mask_of([0, 1]), mask_of([0]), mask_of([1])]


def test_root_runs_not_equal_only_through_a_fixed_variable():
    # x0 is fixed at the root, so the engine prunes its neighbour x1, which
    # stays open; no other variable is fixed, and no propagator runs for it
    doms = [mask_of([3]), mask_of([3, 4, 5]), mask_of([0, 1]), mask_of([0, 1])]
    stats = SearchStats()
    out = _fixpoint([], doms, _edge(2, 3) + _edge(0, 1), stats=stats)
    assert not out.failed and doms == [mask_of([3]), mask_of([4, 5]), mask_of([0, 1]), mask_of([0, 1])]
    assert stats.propagation_calls == 0


def _random_watched(rng, num_vars):
    scope = rng.sample(range(num_vars), rng.randint(1, num_vars))
    kind = rng.randrange(3)
    if kind == 0:
        return AllDifferentProp(scope)
    if kind == 1:
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
        centres = rng.sample(range(base_vars), rng.randint(0, base_vars))
        stars = [NotEqualProp(x, rng.sample(range(base_vars), rng.randint(1, base_vars))) for x in centres]
        base = build_watchers(head, base_vars, stars=stars)
        before = tuple(map(list, base))
        extended = build_watchers(tail, num_vars, base, len(head))
        assert extended == build_watchers(head + tail, num_vars, stars=stars)
        assert tuple(map(list, base)) == before
        assert all(type(entry) is tuple for lists in (extended[0], extended[2]) for entry in lists)
        # one late flag per propagator index
        assert extended[1] == tuple(p.late for p in head + tail)
        # each star's centre lists its neighbours, and the rest, padding included, none
        want = [()] * num_vars
        for star in stars:
            want[star.x] = star.others
        assert extended[2] == want


def test_stars_and_default_params_are_lean():
    assert not hasattr(NotEqualProp(0, (1,)), "__dict__")
    a = Constraint(ConstraintKind.NOT_EQUAL, (0, 1))
    b = Constraint(ConstraintKind.ALL_DIFFERENT, (1, 2, 3))
    assert not hasattr(a, "__dict__") and a.params is b.params
    assert a == Constraint(ConstraintKind.NOT_EQUAL, (0, 1), {})


class _Recorder(Propagator):
    """Logs its name at each run, and on its k-th run writes the k-th of
    `writes`, each a (variable, mask) pair, if there is one."""

    def __init__(self, name, watches, late, log, writes=()):
        self.name, self.watches, self.late, self.log = name, watches, late, log
        self.writes = list(writes)

    def propagate(self, domains):
        self.log.append(self.name)
        if not self.writes:
            return False, []
        v, mask = self.writes.pop(0)
        domains[v] = mask
        return False, [v]


def test_a_late_propagator_runs_once_the_early_queue_drains_and_wakes_again():
    log = []
    props = [
        _Recorder("early-a", (0,), False, log, [(1, mask_of([0, 1]))]),
        _Recorder("late", (1, 2), True, log, [(2, mask_of([0, 1]))]),
        _Recorder("early-b", (2,), False, log, [(1, mask_of([0]))]),
        _Recorder("early-c", (1,), False, log),
    ]
    doms = [mask_of([0, 1]), mask_of([0, 1, 2]), mask_of([0, 1, 2])]
    assert not propagate_to_fixpoint(props, doms, trigger_vars=[0]).failed
    # early-a's write to x1 wakes late and early-c, and early-c runs first;
    # late's write to x2 wakes early-b, whose write to x1 wakes late again
    assert log == ["early-a", "early-c", "late", "early-b", "early-c", "late"]
    assert doms == [mask_of([0, 1]), mask_of([0]), mask_of([0, 1])]


@pytest.mark.parametrize("late", [False, True])
def test_only_waking_variables_wake_a_propagator(late):
    # it watches x0 alone, so a change to x1 does not wake it
    log = []
    props = [_Recorder("p", (0,), late, log)]
    doms = [mask_of([0, 1]), mask_of([2])]
    assert not propagate_to_fixpoint(props, doms, trigger_vars=[1]).failed
    assert log == []
    doms[0] = mask_of([1])
    assert not propagate_to_fixpoint(props, doms, trigger_vars=[0]).failed
    assert log == ["p"]


def test_root_queues_every_propagator_in_index_order_each_into_its_own_queue():
    # whether or not a watched variable is fixed, and if it watches none
    log = []
    props = [
        _Recorder("late-0", (0,), True, log),
        _Recorder("early-1", (), False, log),
        _Recorder("late-2", (), True, log),
        _Recorder("early-3", (1,), False, log),
    ]
    assert not propagate_to_fixpoint(props, [mask_of([0, 1]), mask_of([2])]).failed
    assert log == ["early-1", "early-3", "late-0", "late-2"]


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
    monkeypatch.setattr(search, "build_propagators", lambda model: ([], [_Retiring(3, 0, log)]))
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
