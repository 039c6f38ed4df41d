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
)
from valsym.domains import mask_of, values_of
from valsym.engine import propagate_to_fixpoint
from valsym.propagators import (
    AbsDiffProp,
    AllDifferentProp,
    EqualityDisjunctionProp,
    LazyAllDifferentProp,
    NotEqualProp,
    OrderingChainProp,
)


def run(props, doms):
    out = propagate_to_fixpoint(props, doms)
    return out.failed, doms


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
    """An abs-diff propagator over shuffled variable ids, four in six of them
    aliased (x == y, x == d, y == d or all three the same), with domains over
    universes of up to 20 values."""
    x, y, d = rng.sample(range(6), 3)
    scope = rng.choice(((x, y, d), (x, y, d), (x, x, d), (x, y, x), (x, y, y), (x, x, x)))
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
        assert changed == want_changed
    return failed, changed


def test_abs_diff_early_stop_matches_full_rounds():
    rng = random.Random(4343)
    outcomes = Counter()
    for _ in range(24_000):
        prop, doms = _random_abs_diff_case(rng)
        failed, changed = _assert_same_as_reference(prop, doms, abs_diff_propagate_full_rounds)
        outcomes[prop.distinct, failed, bool(changed)] += 1
    # distinct and aliased scopes each fail, narrow and reach a fixpoint untouched
    assert min(outcomes.values()) > 200 and len(outcomes) == 6


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


def test_all_different_assigned_value_pruning():
    failed, doms = run(
        [AllDifferentProp((0, 1, 2))],
        [mask_of([1]), mask_of([1, 2]), mask_of([1, 2, 3])],
    )
    assert not failed
    assert list(values_of(doms[1])) == [2]
    assert list(values_of(doms[2])) == [3]


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
        [OrderingChainProp((0, 1, 2), strict=True)],
        [mask_of(range(5)), mask_of(range(5)), mask_of(range(5))],
    )
    assert not failed
    bounds = [(min(values_of(d)), max(values_of(d))) for d in doms]
    assert bounds == [(0, 2), (1, 3), (2, 4)]


def test_ordering_chain_keeps_interior_holes():
    # bounds consistency only: the hole at 2 survives
    failed, doms = run(
        [OrderingChainProp((0, 1), strict=True)],
        [mask_of([0, 2, 4]), mask_of([1, 3, 5])],
    )
    assert not failed
    assert list(values_of(doms[0])) == [0, 2, 4]
    assert list(values_of(doms[1])) == [1, 3, 5]


def test_ordering_chain_non_strict():
    failed, doms = run(
        [OrderingChainProp((0, 1), strict=False)],
        [mask_of([3, 4]), mask_of([0, 3])],
    )
    assert not failed
    assert list(values_of(doms[0])) == [3]
    assert list(values_of(doms[1])) == [3]


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
    props = [NotEqualProp(0, 1)]
    if n >= 3:
        props.append(AbsDiffProp(0, 1, 2))
    props.append(OrderingChainProp((0, n - 1), strict=False))
    snapshot = list(doms)

    def accepts(c):
        if c[0] == c[1]:
            return False
        if n >= 3 and abs(c[0] - c[1]) != c[2]:
            return False
        return c[0] <= c[n - 1]

    failed, doms = run(props, doms)
    want = brute_support(snapshot, accepts)
    if want is None:
        # individual propagators need not detect a joint wipeout, but the
        # leaf checks must reject every remaining completion
        if not failed:
            for combo in product(*(tuple(values_of(d)) for d in doms)):
                assert not all(p.check(combo) for p in props)
        return
    assert not failed
    for i in range(n):
        assert want[i] <= set(values_of(doms[i])) <= set(values_of(snapshot[i]))
