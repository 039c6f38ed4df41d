import random

from valsym.domains import mask_of, values_of
from valsym.engine import propagate_to_fixpoint
from valsym.problems import build_all_interval
from valsym.search import SearchStats
from valsym.propagators import (
    AllDifferentProp,
    LexLeaderProp,
    NotEqualProp,
    OrderingChainProp,
    PrecedenceProp,
    build_propagators,
)
from valsym.symmetry import ValuePermutation, VarValueSymmetry, inversion_permutation


def test_not_equal_fixpoint():
    doms = [mask_of([3]), mask_of([3, 4])]
    out = propagate_to_fixpoint([NotEqualProp(0, 1)], doms)
    assert not out.failed
    assert doms == [mask_of([3]), mask_of([4])]


def test_own_changes_do_not_wake_a_propagator():
    # not-equal returns at its own fixpoint, so narrowing var 1 does not queue
    # it for a second run that could change nothing
    doms = [mask_of([3]), mask_of([3, 4])]
    stats = SearchStats()
    out = propagate_to_fixpoint([NotEqualProp(0, 1)], doms, stats=stats)
    assert not out.failed and doms == [mask_of([3]), mask_of([4])]
    assert stats.propagation_calls == 1


def test_failure_reported_not_stored():
    doms = [mask_of([3]), mask_of([3])]
    stats = SearchStats()
    out = propagate_to_fixpoint([NotEqualProp(0, 1)], doms, stats=stats)
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
    props = [NotEqualProp(0, 1)]
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
    props = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                props.append(NotEqualProp(i, j))
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
