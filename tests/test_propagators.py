import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    abs_diff_propagate_full_rounds,
    all_different_propagate_per_value,
    brute_support,
    constraint_holds,
    not_equal_forward_check,
)
from valsym.domains import mask_of, values_of
from valsym import propagators
from valsym.engine import Propagator, build_watchers, propagate_to_fixpoint
from valsym.errors import ModelError
from valsym.model import Constraint, ConstraintKind, Model
from valsym.propagators import (
    AbsDiffProp,
    AllDifferentProp,
    EqualityDisjunctionProp,
    FirstOccurrenceChannelProp,
    LazyAllDifferentProp,
    LexLeaderProp,
    NotEqualProp,
    OrderingChainProp,
    PrecedenceProp,
    build_propagators,
    check_all,
)
from valsym.symmetry import SymmetrySpec, ValuePermutation, VarValueSymmetry


def run(props, doms):
    out = propagate_to_fixpoint(props, doms)
    return out.failed, doms


def run_model(model, doms, extra=(), trigger_vars=None):
    """A model's fixpoint as search reaches it: its own propagators, then
    `extra`, with the engine pruning along its stars' not-equal edges."""
    stars, props = build_propagators(model)
    props += extra
    watchers = build_watchers(props, len(doms), stars=stars)
    return propagate_to_fixpoint(props, doms, trigger_vars, watchers).failed, doms


def test_abs_diff_fixed_pair():
    failed, doms = run(
        [AbsDiffProp(0, 1, 2)],
        [mask_of([3]), mask_of([7]), mask_of(range(1, 11))],
    )
    assert not failed
    assert list(values_of(doms[2])) == [4]


def test_abs_diff_back_propagates():
    failed, doms = run(
        [AbsDiffProp(0, 1, 2)],
        [mask_of([5]), mask_of(range(11)), mask_of([3])],
    )
    assert not failed
    assert list(values_of(doms[1])) == [2, 8]


def test_abs_diff_unreachable_difference_fails():
    failed, _ = run(
        [AbsDiffProp(0, 1, 2)],
        [mask_of([5]), mask_of(range(11)), mask_of([10])],
    )
    assert failed


def test_abs_diff_is_arc_consistent():
    rng = random.Random(4)
    for trial in range(360):
        # the last 60 universes (up to 20 values) shift masks past a byte
        u = rng.randint(2, 9) if trial < 300 else rng.randint(10, 20)
        doms = [rng.randrange(1, 1 << u) for _ in range(3)]
        snapshot = list(doms)
        failed, doms = run([AbsDiffProp(0, 1, 2)], doms)
        want = brute_support(snapshot, lambda c: abs(c[0] - c[1]) == c[2])
        if want is None:
            assert failed
        else:
            assert not failed
            assert [set(values_of(d)) for d in doms] == want


def _random_abs_diff_case(rng):
    """An abs-diff propagator over three shuffled variable ids, with domains
    over universes of up to 20 values."""
    scope = rng.sample(range(6), 3)
    u = rng.randint(2, 20)
    doms = []
    for _ in range(6):
        dense = rng.random()
        doms.append(mask_of(v for v in range(u) if rng.random() < dense) or 1 << rng.randrange(u))
    return AbsDiffProp(*scope), doms


def _assert_same_as_reference(prop, doms, reference):
    want_doms = list(doms)
    want_failed, want_changed = reference(prop, want_doms)
    failed, changed = prop.propagate(doms)
    assert failed == want_failed
    if not failed:
        assert doms == want_doms
        # which vars changed matters, not the order they are listed in
        assert sorted(changed) == sorted(want_changed)
    return failed, changed


def test_abs_diff_early_stop_matches_full_rounds():
    rng = random.Random(4343)
    outcomes = Counter()
    for _ in range(24_000):
        prop, doms = _random_abs_diff_case(rng)
        snapshot = list(doms)
        failed, changed = _assert_same_as_reference(prop, doms, abs_diff_propagate_full_rounds)
        # one sweep is the whole closure: a failing call leaves the same
        # domains and changed list too, and a call right after one that did
        # not fail is idle
        if failed:
            assert abs_diff_propagate_full_rounds(prop, snapshot) == (True, changed)
            assert doms == snapshot
        else:
            assert prop.propagate(doms) == (False, [])
        outcomes[failed, bool(changed)] += 1
    # the cases fail, narrow and reach a fixpoint untouched
    assert min(outcomes.values()) > 200 and len(outcomes) == 3


@pytest.mark.parametrize("scope", [(0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 0, 0)])
def test_abs_diff_refuses_a_repeated_variable(scope):
    with pytest.raises(ModelError, match="repeats a variable"):
        Constraint(ConstraintKind.ABS_DIFF, scope)
    with pytest.raises(ModelError, match="repeats a variable"):
        AbsDiffProp(*scope)


@pytest.mark.parametrize(
    "kind, scope, message",
    [
        (ConstraintKind.NOT_EQUAL, (0, 1, 2), "not-equal takes 2 variables"),
        (ConstraintKind.NOT_EQUAL, (0,), "not-equal takes 2 variables"),
        (ConstraintKind.ABS_DIFF, (0, 1), "abs-diff takes 3 variables"),
    ],
    ids=["not-equal-over-3", "not-equal-over-1", "abs-diff-over-2"],
)
def test_constraint_refuses_a_scope_of_the_wrong_arity(kind, scope, message):
    with pytest.raises(ModelError, match=message):
        Constraint(kind, scope)


@pytest.mark.parametrize(
    "kind, scope",
    [
        (ConstraintKind.NOT_EQUAL, (3, 3)),
        (ConstraintKind.ALL_DIFFERENT, (4, 4)),
        (ConstraintKind.ALL_DIFFERENT, (1, 2, 1)),
        (ConstraintKind.LAZY_ALL_DIFFERENT, (0, 0)),
        (ConstraintKind.LAZY_ALL_DIFFERENT, (2, 0, 1, 0)),
    ],
)
def test_constraint_refuses_a_repeated_variable_in_a_scope_of_any_length(kind, scope):
    with pytest.raises(ModelError, match=f"{kind.value} scope repeats a variable"):
        Constraint(kind, scope)
    Constraint(kind, tuple(range(len(scope))))
    # a disjunction alone may name a variable twice
    Constraint(ConstraintKind.EQUALITY_DISJUNCTION, scope, {"pairs": ()})


def _random_all_different_case(rng, cls):
    """An all-different propagator over a scope of 2-10 shuffled variable ids
    out of up to 20, its domains drawn from a universe of n-1 to 14 values
    (spread over bits 0-13), some of them fixed."""
    n = rng.randint(2, 10)
    scope = rng.sample(range(rng.randint(n, 20)), n)
    values = rng.sample(range(14), rng.randint(max(1, n - 1), min(14, n + rng.choice((0, 1, 4)))))
    fixed = rng.random() * 0.5
    dense = 0.3 + rng.random() * 0.6
    doms = [1 << rng.randrange(14) for _ in range(max(scope) + 1)]
    for v in scope:
        if rng.random() < fixed:
            doms[v] = 1 << rng.choice(values)
        else:
            doms[v] = mask_of(w for w in values if rng.random() < dense) or 1 << rng.choice(values)
    return cls(scope), doms


@pytest.mark.parametrize("cls", [AllDifferentProp, LazyAllDifferentProp])
def test_all_different_holder_count_matches_per_value_scans(cls):
    rng = random.Random(4444)
    outcomes = Counter()
    for _ in range(20_000):
        prop, doms = _random_all_different_case(rng, cls)
        failed, changed = _assert_same_as_reference(prop, doms, all_different_propagate_per_value)
        outcomes["failed" if failed else min(len(changed), 2)] += 1
    # failures, fixpoints and calls that narrow one and several variables all occur often
    assert min(outcomes.values()) > 300 and len(outcomes) == 4


def _engine_shaped_all_different_case(rng, cls):
    """A random case brought to the reference's fixpoint, then one open scope
    variable narrowed by one value or fixed: the input the engine sends after
    one change. None when the fixpoint fails or leaves no open variable."""
    prop, doms = _random_all_different_case(rng, cls)
    if all_different_propagate_per_value(prop, doms)[0]:
        return None
    open_vars = [v for v in prop.scope if doms[v] & (doms[v] - 1)]
    if not open_vars:
        return None
    v = rng.choice(open_vars)
    bit = 1 << rng.choice(list(values_of(doms[v])))
    doms[v] = doms[v] ^ bit if rng.random() < 0.5 else bit
    return prop, doms


@pytest.mark.parametrize("cls", [AllDifferentProp, LazyAllDifferentProp])
def test_all_different_matches_per_value_scans_on_engine_traffic(cls):
    rng = random.Random(4545)
    seen = Counter()
    for _ in range(20_000):
        case = _engine_shaped_all_different_case(rng, cls)
        if case is None:
            continue
        prop, doms = case
        scope_doms = [doms[v] for v in prop.scope]
        fixed = [d for d in scope_doms if not d & (d - 1)]
        holders = Counter(b for d in scope_doms for b in values_of(d))
        want = list(doms)
        want_failed, want_changed = all_different_propagate_per_value(prop, want)
        failed, changed = prop.propagate(doms)
        assert (failed, doms, set(changed)) == (want_failed, want, set(want_changed))
        # the cases reach the scan this kernel skips, and the writes it keeps
        if len(holders) == len(prop.scope) and any(holders[d.bit_length() - 1] == 1 for d in fixed):
            seen["single holder fixed already"] += 1
        if not failed and any(d & (d - 1) and not doms[v] & (doms[v] - 1)
                              for v, d in zip(prop.scope, scope_doms)):
            seen["fix written"] += 1
    assert min(seen.values()) > 300 and len(seen) == 2, seen


def test_all_different_assigned_value_pruning():
    # four values for three variables: the counting rules prune nothing, and
    # the engine drops each assigned value along the stars posted beside them
    doms = [mask_of([1]), mask_of([1, 2]), mask_of([0, 1, 2, 3])]
    alone = list(doms)
    assert AllDifferentProp((0, 1, 2)).propagate(alone) == (False, [])
    model = _graph_model(3, 4, [Constraint(ConstraintKind.ALL_DIFFERENT, (0, 1, 2))])
    failed, doms = run_model(model, doms)
    assert not failed
    assert list(values_of(doms[1])) == [2]
    assert list(values_of(doms[2])) == [0, 3]


def test_all_different_unique_holder_tightening():
    # three vars, three available values, value 2 lives only in the last domain
    failed, doms = run(
        [AllDifferentProp((0, 1, 2))],
        [mask_of([0, 1]), mask_of([0, 1]), mask_of([0, 1, 2])],
    )
    assert not failed
    assert list(values_of(doms[2])) == [2]


def test_all_different_pigeonhole_failure():
    failed, _ = run(
        [AllDifferentProp((0, 1, 2))],
        [mask_of([0, 1]), mask_of([0, 1]), mask_of([0, 1])],
    )
    assert failed


def test_all_different_duplicate_singletons_fail():
    failed, _ = run(
        [AllDifferentProp((0, 1))],
        [mask_of([2]), mask_of([2])],
    )
    assert failed


def test_lazy_all_different_keeps_assigned_values():
    doms = [mask_of([1]), mask_of([1, 2]), mask_of([0, 1, 2, 3])]
    failed, doms = run([LazyAllDifferentProp((0, 1, 2))], doms)
    assert not failed
    # no assigned-value pruning: 1 stays available to the others
    assert 1 in values_of(doms[1]) and 1 in values_of(doms[2])


def test_lazy_all_different_still_counts():
    failed, _ = run(
        [LazyAllDifferentProp((0, 1, 2))],
        [mask_of([0, 1]), mask_of([0, 1]), mask_of([0, 1])],
    )
    assert failed


def test_lazy_all_different_check_exact():
    p = LazyAllDifferentProp((0, 1, 2))
    assert p.check((0, 1, 2))
    assert not p.check((0, 1, 0))


def test_ordering_chain_bounds():
    failed, doms = run(
        [OrderingChainProp((0, 1, 2))],
        [mask_of(range(5)), mask_of(range(5)), mask_of(range(5))],
    )
    assert not failed
    bounds = [(min(values_of(d)), max(values_of(d))) for d in doms]
    assert bounds == [(0, 2), (1, 3), (2, 4)]


def test_ordering_chain_keeps_interior_holes():
    # bounds consistency only: the hole at 2 survives
    failed, doms = run(
        [OrderingChainProp((0, 1))],
        [mask_of([0, 2, 4]), mask_of([1, 3, 5])],
    )
    assert not failed
    assert list(values_of(doms[0])) == [0, 2, 4]
    assert list(values_of(doms[1])) == [1, 3, 5]


# one descriptor per kind, each scope over variables 0..3
REGISTRY_CASES = {
    ConstraintKind.NOT_EQUAL: Constraint(ConstraintKind.NOT_EQUAL, (0, 2)),
    ConstraintKind.ABS_DIFF: Constraint(ConstraintKind.ABS_DIFF, (0, 1, 3)),
    ConstraintKind.ALL_DIFFERENT: Constraint(ConstraintKind.ALL_DIFFERENT, (0, 1, 2)),
    ConstraintKind.LAZY_ALL_DIFFERENT: Constraint(ConstraintKind.LAZY_ALL_DIFFERENT, (1, 2, 3)),
    ConstraintKind.EQUALITY_DISJUNCTION: Constraint(
        ConstraintKind.EQUALITY_DISJUNCTION, (0, 1, 2, 3), {"pairs": ((0, 2), (1, 3))}
    ),
}


def _graph_model(num_vars, num_values, constraints):
    """A model with full domains and no declared symmetry."""
    return Model(
        name="graph",
        universe_size=num_values,
        domains=((1 << num_values) - 1,) * num_vars,
        constraints=tuple(constraints),
        symmetry=SymmetrySpec(scope_len=0, universe_size=num_values),
        symmetry_scope=(),
    )


@pytest.mark.parametrize("kind", list(ConstraintKind), ids=lambda k: k.value)
def test_every_constraint_kind_has_a_propagator_and_an_oracle(kind):
    # the enum, the factory and the reference oracle cover the same kinds
    c = REGISTRY_CASES[kind]
    stars, props = build_propagators(_graph_model(4, 3, [c]))
    # a not-equal posts only stars, and an all-different stars over its scope
    # beside itself
    want = {kind.value, "not-equal"} if kind is ConstraintKind.ALL_DIFFERENT else {kind.value}
    assert {p.kind for p in stars + props} == want
    assert (kind is ConstraintKind.NOT_EQUAL) == (not props)
    for values in product(range(3), repeat=4):
        assert check_all(stars + props, values) == constraint_holds(c, values)


def test_not_equal_stars_match_pairwise_forward_checking():
    # random graphs, repeated and reversed edges included, over random masks:
    # the engine's prunes along the stars reach the pairwise fixpoint, at the
    # root and after a decision
    rng = random.Random(3030)
    outcomes = Counter()
    for _ in range(2_000):
        n, u = rng.randint(2, 7), rng.randint(2, 4)
        edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 2 * n))]
        model = _graph_model(n, u, [Constraint(ConstraintKind.NOT_EQUAL, e) for e in edges])
        stars, props = build_propagators(model)
        assert props == []
        values = [rng.randrange(u) for _ in range(n)]
        holds = all(constraint_holds(c, values) for c in model.constraints)
        assert check_all(stars, values) == holds
        outcomes["holds" if holds else "violated"] += 1
        doms = _random_masks(rng, n, u, fixed=0.4)
        ref = list(doms)
        ref_failed = not_equal_forward_check(edges, ref)
        assert run_model(model, doms)[0] == ref_failed, (edges, ref)
        if ref_failed:
            outcomes["failed"] += 1
            continue
        assert doms == ref
        open_vars = [v for v, d in enumerate(doms) if d & (d - 1)]
        if not open_vars:
            continue
        v = rng.choice(open_vars)
        doms[v] = 1 << rng.choice(list(values_of(doms[v])))
        ref = list(doms)
        ref_failed = not_equal_forward_check(edges, ref)
        assert run_model(model, doms, trigger_vars=[v])[0] == ref_failed
        if not ref_failed:
            assert doms == ref
        outcomes["decided"] += 1
    assert min(outcomes.values()) > 200, outcomes


class _CountedCheck:
    """A propagator's check that records its call in a shared list."""

    def __init__(self, prop, calls):
        self.prop, self.calls = prop, calls

    def check(self, values):
        self.calls.append(self.prop)
        return self.prop.check(values)


def test_check_all_matches_all_over_checks_and_stops_at_the_same_one():
    # random graphs with an all-different, an abs-diff or a disjunction now
    # and then, full assignments: the same verdict from the same prefix of checks
    rng = random.Random(3333)
    outcomes = Counter()
    for _ in range(3_000):
        n, u = rng.randint(3, 8), rng.randint(2, 5)
        constraints = [Constraint(ConstraintKind.NOT_EQUAL, tuple(rng.sample(range(n), 2)))
                       for _ in range(rng.randint(0, 2 * n))]
        if rng.random() < 0.3:
            constraints.append(Constraint(ConstraintKind.ALL_DIFFERENT, tuple(rng.sample(range(n), 3))))
        if rng.random() < 0.3:
            constraints.append(Constraint(ConstraintKind.ABS_DIFF, tuple(rng.sample(range(n), 3))))
        if rng.random() < 0.3:
            pairs = (tuple(rng.sample(range(n), 2)),)
            constraints.append(Constraint(ConstraintKind.EQUALITY_DISJUNCTION, pairs[0], {"pairs": pairs}))
        rng.shuffle(constraints)
        stars, props = build_propagators(_graph_model(n, u, constraints))
        props = stars + props
        values = tuple(rng.randrange(u) for _ in range(n))
        got_calls, want_calls = [], []
        got = check_all([_CountedCheck(p, got_calls) for p in props], values)
        want = all(p.check(values) for p in [_CountedCheck(p, want_calls) for p in props])
        assert got == want == all(constraint_holds(c, values) for c in constraints)
        assert got_calls == want_calls
        outcomes["accepted" if got else "refused"] += 1
        outcomes["stopped early"] += len(got_calls) < len(props)
    assert min(outcomes.values()) > 400, outcomes


def test_a_leaf_checks_each_not_equal_edge_once_either_way_round():
    # the stars of a model check every distinct edge once between them, and
    # reject a leaf that breaks one edge alone whichever way it was declared
    rng = random.Random(3131)
    for _ in range(300):
        n = rng.randint(2, 7)
        edges = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(1, 2 * n))}
        for a, b in edges:
            for declared in ((a, b), (b, a)):
                listed = [e for e in edges if e != (a, b)] + [declared]
                rng.shuffle(listed)
                model = _graph_model(n, n, [Constraint(ConstraintKind.NOT_EQUAL, e) for e in listed])
                stars, _ = build_propagators(model)
                assert sorted((p.x, y) for p in stars for y in p.checked) == sorted(edges)
                values = list(range(n))
                assert check_all(stars, values)
                values[b] = a  # only a and b now share a value
                assert not check_all(stars, values), (listed, declared)


def _staged_all_different_case(rng):
    """A model of up to 16 variables over 14 values with one all-different
    over 2-12 of them, now and then a second one, and in half the cases
    not-equal edges inside or across the scopes; then random domains, some
    fixed onto one value and some short of values."""
    n = rng.randint(2, 12)
    num_vars = rng.randint(n, n + 4)
    scopes = [rng.sample(range(num_vars), n)]
    if rng.random() < 0.25:
        scopes.append(rng.sample(range(num_vars), rng.randint(2, num_vars)))
    edges = []
    if rng.random() < 0.5:
        edges = [tuple(rng.sample(range(num_vars), 2)) for _ in range(rng.randint(1, num_vars))]
    constraints = [Constraint(ConstraintKind.ALL_DIFFERENT, tuple(sc)) for sc in scopes]
    constraints += [Constraint(ConstraintKind.NOT_EQUAL, e) for e in edges]
    rng.shuffle(constraints)
    values = rng.sample(range(14), min(14, max(1, n + rng.choice((-1, 0, 0, 0, 0, 1, 3)))))
    fixed, dense = rng.random() * 0.2, 0.2 + rng.random() * 0.5
    doms = []
    for _ in range(num_vars):
        if rng.random() < fixed:
            doms.append(1 << rng.choice(values))
        else:
            doms.append(mask_of(w for w in values if rng.random() < dense) or 1 << rng.choice(values))
    return _graph_model(num_vars, 14, constraints), scopes, edges, doms


def _staged_reference(scopes, edges, doms):
    """The fixpoint of the all-differents pruning their own assigned values,
    as one propagator each, and pairwise forward checking on the edges."""
    while True:
        before = list(doms)
        for scope in scopes:
            if all_different_propagate_per_value(AllDifferentProp(scope), doms, prune_assigned=True)[0]:
                return True
        if not_equal_forward_check(edges, doms):
            return True
        if doms == before:
            return False


def test_staged_all_different_reaches_the_one_propagator_fixpoint():
    # the engine's prunes along the stars and the counting propagator that
    # build_propagators posts for an all-different reach the fixpoint of one
    # propagator applying every rule
    rng = random.Random(3434)
    outcomes = Counter()
    for _ in range(4_000):
        model, scopes, edges, doms = _staged_all_different_case(rng)
        start = list(doms)
        want = list(doms)
        want_failed = _staged_reference(scopes, edges, want)
        failed = run_model(model, doms)[0]
        assert failed == want_failed, (model.constraints, start)
        if failed:
            outcomes["failed"] += 1
            continue
        assert doms == want, (model.constraints, start)
        # pairwise forward checking over every clique edge alone
        pruned = list(start)
        clique_edges = [(a, b) for sc in scopes for a in sc for b in sc if a < b]
        assert not not_equal_forward_check(clique_edges + edges, pruned)
        if doms == start:
            outcomes["nothing"] += 1
        elif doms == pruned:
            outcomes["assigned values pruned"] += 1
        else:
            outcomes["single holder fixed"] += 1
    # each outcome is common: seed 3434 draws 1 718 failed, 1 227 pruned
    # only, 746 unchanged and 309 with a single holder fixed
    assert min(outcomes.values()) > 200 and len(outcomes) == 4, outcomes


def test_all_different_edges_stay_out_of_the_stars_leaf_checks():
    # the stars prune along every clique edge, but check at a leaf only the
    # declared not-equal edges, each once, also one repeated inside a scope:
    # the all-different's own check covers its clique
    rng = random.Random(3535)
    repeated = 0
    for _ in range(300):
        n = rng.randint(2, 8)
        scope = tuple(rng.sample(range(n), rng.randint(2, n)))
        edges = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, n))]
        constraints = [Constraint(ConstraintKind.NOT_EQUAL, e) for e in edges]
        constraints.append(Constraint(ConstraintKind.ALL_DIFFERENT, scope))
        rng.shuffle(constraints)
        stars, props = build_propagators(_graph_model(n, n, constraints))
        declared = {tuple(sorted(e)) for e in edges}
        assert sorted((p.x, y) for p in stars for y in p.checked) == sorted(declared)
        clique = {(a, b) for a in scope for b in scope if a != b}
        assert {(p.x, y) for p in stars for y in p.others} == clique | declared | {
            (b, a) for a, b in declared}
        assert all(len(set(p.others)) == len(p.others) for p in stars)
        for a, b in declared & clique:
            repeated += 1
            values = list(range(n))
            values[b] = a  # only a and b now share a value
            assert sum(not p.check(values) for p in stars + props) == 2  # its star and the all-different
    assert repeated > 100


def test_equality_disjunction_waits_for_full_fix():
    p = EqualityDisjunctionProp(((0, 1),))
    doms = [mask_of([0, 1]), mask_of([2])]
    failed, _ = p.propagate(doms)
    assert not failed  # not fully fixed yet
    doms = [mask_of([0]), mask_of([2])]
    failed, _ = p.propagate(doms)
    assert failed


def test_equality_disjunction_empty_is_unsat():
    p = EqualityDisjunctionProp(())
    failed, _ = p.propagate([mask_of([0])])
    assert failed


def test_equality_disjunction_with_no_pairs_is_legal():
    c = Constraint(ConstraintKind.EQUALITY_DISJUNCTION, (0, 1), {"pairs": ()})
    assert not constraint_holds(c, (0, 0))


@pytest.mark.parametrize(
    "params",
    [
        {},  # no pairs at all
        {"pairs": ((0, 5),)},  # a variable outside the scope
        {"pairs": ((0, 1), (1, 1))},  # a variable paired with itself
        {"pairs": ((0, 1, 0),)},  # not a pair
        {"pairs": (0, 1)},  # variables, not pairs
        {"pairs": None},
    ],
    ids=["missing", "outside-scope", "same-variable", "triple", "flat", "none"],
)
def test_equality_disjunction_refuses_malformed_pairs(params):
    with pytest.raises(ModelError, match="pairs must be distinct scope vars"):
        Constraint(ConstraintKind.EQUALITY_DISJUNCTION, (0, 1), params)


@st.composite
def _sound_instance(draw):
    u = draw(st.integers(min_value=2, max_value=6))
    n = draw(st.integers(min_value=2, max_value=4))
    doms = [
        draw(st.integers(min_value=1, max_value=(1 << u) - 1)) for _ in range(n)
    ]
    return u, doms


@settings(max_examples=120, deadline=None)
@given(_sound_instance())
def test_binary_propagators_sound_and_contracting(inst):
    # fixpoint domains contain every brute-force support and never grow
    u, doms = inst
    n = len(doms)
    stars = [NotEqualProp(0, (1,)), NotEqualProp(1, (0,))]
    props = [AbsDiffProp(0, 1, 2)] if n >= 3 else []
    props.append(OrderingChainProp((0, n - 1)))
    snapshot = list(doms)

    def accepts(c):
        if c[0] == c[1]:
            return False
        if n >= 3 and abs(c[0] - c[1]) != c[2]:
            return False
        return c[0] < c[n - 1]

    failed = propagate_to_fixpoint(props, doms, watchers=build_watchers(props, n, stars=stars)).failed
    want = brute_support(snapshot, accepts)
    if want is None:
        # individual propagators need not detect a joint wipeout, but the
        # leaf checks must reject every remaining completion
        if not failed:
            for combo in product(*(tuple(values_of(d)) for d in doms)):
                assert not all(p.check(combo) for p in stars + props)
        return
    assert not failed
    for i in range(n):
        assert want[i] <= set(values_of(doms[i])) <= set(values_of(snapshot[i]))


# --- idempotence: every propagator returns at its own fixpoint ---------------


def _random_masks(rng, n, u, fixed=0.3):
    """n non-empty domains over u values, each fixed with probability `fixed`."""
    return [
        1 << rng.randrange(u) if rng.random() < fixed else rng.randrange(1, 1 << u)
        for _ in range(n)
    ]


def _random_order(rng, u):
    return tuple(rng.sample(range(u), rng.randint(1, u)))


def _random_lex_leader_case(rng):
    """1-4 elements over a shuffled scope, each moving values only,
    positions only, or both."""
    n, u = rng.randint(2, 5), rng.randint(2, 4)
    syms = []
    for _ in range(rng.randint(1, 4)):
        moves = rng.choice(("values", "positions", "both"))
        theta = rng.sample(range(n), n) if moves != "values" else range(n)
        image = rng.sample(range(u), u) if moves != "positions" else range(u)
        syms.append(VarValueSymmetry(tuple(theta), ValuePermutation(tuple(image))))
    return LexLeaderProp(rng.sample(range(n), n), *syms), _random_masks(rng, n, u)


def _random_channel_case(rng):
    n, u = rng.randint(2, 5), rng.randint(2, 4)
    order = _random_order(rng, u)
    prop = FirstOccurrenceChannelProp(range(n), range(n, n + len(order)), order)
    doms = _random_masks(rng, n, u)
    for k in range(len(order)):
        full = prop.position_mask(k)
        doms.append(full & rng.randrange(1 << full.bit_length()) or full)
    return prop, doms


def _random_chain_case(rng):
    n = rng.randint(2, 5)
    return OrderingChainProp(rng.sample(range(n), n)), _random_masks(rng, n, 7)


def _random_precedence_case(rng):
    n, u = rng.randint(2, 6), rng.randint(2, 5)
    return PrecedenceProp(range(n), _random_order(rng, u)), _random_masks(rng, n, u)


def _random_disjunction_case(rng):
    n = rng.randint(2, 4)
    pairs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 3))]
    return EqualityDisjunctionProp(pairs), _random_masks(rng, n, 3, fixed=0.8)


IDEMPOTENCE_CASES = {
    "abs-diff": _random_abs_diff_case,
    "all-different": lambda rng: _random_all_different_case(rng, AllDifferentProp),
    "lazy-all-different": lambda rng: _random_all_different_case(rng, LazyAllDifferentProp),
    "ordering-chain": _random_chain_case,
    "precedence": _random_precedence_case,
    "lex-leader": _random_lex_leader_case,
    "first-occurrence-channel": _random_channel_case,
    "equality-disjunction": _random_disjunction_case,
}


def test_idempotence_cases_cover_every_propagator_kind():
    # every kind that propagates; the engine prunes not-equal itself, so its
    # stars are leaf checks only
    kinds = {
        cls.kind for cls in vars(propagators).values()
        if isinstance(cls, type) and issubclass(cls, Propagator)
        and cls.propagate is not Propagator.propagate
    }
    assert kinds == set(IDEMPOTENCE_CASES)
    assert NotEqualProp.propagate is Propagator.propagate


@pytest.mark.parametrize("kind", list(IDEMPOTENCE_CASES))
def test_propagate_returns_at_its_own_fixpoint(kind):
    # the engine does not wake a propagator for its own changes, so a second
    # run on the first one's output must change nothing; either run may
    # report entailment (None) instead of False
    rng = random.Random(5151)
    outcomes = Counter()
    for _ in range(4_000):
        prop, doms = IDEMPOTENCE_CASES[kind](rng)
        assert prop.kind == kind
        first = list(doms)
        if prop.propagate(first)[0] is True:
            outcomes["failed"] += 1
            continue
        second = list(first)
        failed, changed = prop.propagate(second)
        assert failed is not True and changed == []
        assert second == first
        outcomes["narrowed" if first != doms else "unchanged"] += 1
    # most cases do not fail, and every kind that can narrow does so often
    assert outcomes["narrowed"] + outcomes["unchanged"] > 1_000
    assert (outcomes["narrowed"] > 300) == (kind != "equality-disjunction")


def _random_narrowing(rng, domains):
    """A random non-empty subset of each domain."""
    out = []
    for d in domains:
        sub = d & rng.getrandbits(d.bit_length())
        out.append(sub or 1 << rng.choice(list(values_of(d))))
    return out


@pytest.mark.parametrize("kind", ["ordering-chain", "precedence", "lex-leader", "first-occurrence-channel"])
def test_an_entailed_propagator_accepts_every_narrowing_of_its_output(kind):
    # a propagator that reports None is retired for the rest of the subtree,
    # so no narrowing of its output may let it prune or fail: every full
    # assignment inside the output passes check(), and on every full
    # assignment and on random narrowings it writes nothing, does not fail
    # and reports None again
    rng = random.Random(7272)
    retired = 0
    for _ in range(3_000):
        prop, doms = IDEMPOTENCE_CASES[kind](rng)
        if prop.propagate(doms)[0] is not None:
            continue
        retired += 1
        for combo in product(*(tuple(values_of(d)) for d in doms)):
            assert prop.check(combo), (doms, combo)
            fixed = [1 << v for v in combo]
            assert prop.propagate(fixed) == (None, []), (doms, combo)
            assert fixed == [1 << v for v in combo]
        for _ in range(5):
            narrowed = _random_narrowing(rng, doms)
            before = list(narrowed)
            assert prop.propagate(narrowed) == (None, []), (doms, before)
            assert narrowed == before
    assert retired > 200, retired


@pytest.mark.parametrize("kind", list(IDEMPOTENCE_CASES))
def test_propagate_narrows_only_watched_variables_and_reports_each(kind):
    # bench/tracer.py snapshots only `watches` and counts the values removed
    # from the variables reported as changed, so both must cover every write;
    # two trailing variables that nothing watches catch a stray index
    rng = random.Random(6161)
    for _ in range(2_000):
        prop, doms = IDEMPOTENCE_CASES[kind](rng)
        doms += _random_masks(rng, 2, 4)
        before = list(doms)
        _, changed = prop.propagate(doms)
        narrowed = {v for v, (a, b) in enumerate(zip(before, doms)) if a != b}
        assert narrowed == set(changed) <= set(prop.watches), (kind, before)
