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
)
from valsym.domains import mask_of, values_of
from valsym import propagators
from valsym.engine import Propagator, propagate_to_fixpoint
from valsym.errors import ModelError
from valsym.model import Constraint, ConstraintKind
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
    build_propagator,
)
from valsym.symmetry import ValuePermutation, VarValueSymmetry


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


@pytest.mark.parametrize("kind", list(ConstraintKind), ids=lambda k: k.value)
def test_every_constraint_kind_has_a_propagator_and_an_oracle(kind):
    # the enum, the factory and the reference oracle cover the same kinds
    c = REGISTRY_CASES[kind]
    prop = build_propagator(c)
    assert prop.kind == kind.value
    for values in product(range(3), repeat=4):
        assert prop.check(values) == constraint_holds(c, values)


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
    props = [NotEqualProp(0, 1)]
    if n >= 3:
        props.append(AbsDiffProp(0, 1, 2))
    props.append(OrderingChainProp((0, n - 1)))
    snapshot = list(doms)

    def accepts(c):
        if c[0] == c[1]:
            return False
        if n >= 3 and abs(c[0] - c[1]) != c[2]:
            return False
        return c[0] < c[n - 1]

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
    n, u = rng.randint(2, 5), rng.randint(2, 4)
    theta = rng.sample(range(n), n)
    sym = VarValueSymmetry(tuple(theta), ValuePermutation(tuple(rng.sample(range(u), u))))
    return LexLeaderProp(tuple(range(n)), sym), _random_masks(rng, n, u)


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
    "not-equal": lambda rng: (NotEqualProp(0, 1), _random_masks(rng, 2, 4, fixed=0.5)),
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
    kinds = {
        cls.kind for cls in vars(propagators).values()
        if isinstance(cls, type) and issubclass(cls, Propagator) and cls is not Propagator
    }
    assert kinds == set(IDEMPOTENCE_CASES)


@pytest.mark.parametrize("kind", list(IDEMPOTENCE_CASES))
def test_propagate_returns_at_its_own_fixpoint(kind):
    # the engine does not wake a propagator for its own changes, so a second
    # run on the first one's output must change nothing
    rng = random.Random(5151)
    outcomes = Counter()
    for _ in range(4_000):
        prop, doms = IDEMPOTENCE_CASES[kind](rng)
        assert prop.kind == kind
        first = list(doms)
        if prop.propagate(first)[0]:
            outcomes["failed"] += 1
            continue
        second = list(first)
        assert prop.propagate(second) == (False, [])
        assert second == first
        outcomes["narrowed" if first != doms else "unchanged"] += 1
    # most cases do not fail, and every kind that can narrow does so often
    assert outcomes["narrowed"] + outcomes["unchanged"] > 1_000
    assert (outcomes["narrowed"] > 300) == (kind != "equality-disjunction")
