import itertools
import random

import pytest

from oracles import brute_support
from valsym.domains import mask_of, values_of
from valsym.engine import propagate_to_fixpoint
from valsym.problems import build_all_interval
from valsym.propagators import LexLeaderProp, build_propagators
from valsym.symmetry import (
    ValuePermutation,
    VarValueSymmetry,
    inversion_permutation,
)


def _all_interval_syms(n):
    reversal = VarValueSymmetry.variable_only(tuple(reversed(range(n))), n)
    inversion = VarValueSymmetry.value_only(n, inversion_permutation(n))
    return reversal, inversion, reversal.compose(inversion)


E1 = (5, 0, 4, 1, 3, 2)
E2 = (2, 3, 1, 4, 0, 5)
E3 = (0, 5, 1, 4, 2, 3)
E4 = (3, 2, 4, 1, 5, 0)


def _leader_props(n):
    return {
        name: LexLeaderProp(tuple(range(n)), sym)
        for name, sym in zip(
            ("reversal", "inversion", "composed"), _all_interval_syms(n)
        )
    }


def test_full_triple_keeps_the_orbit_minimum():
    props = _leader_props(6)
    survivors = [
        v for v in (E1, E2, E3, E4) if all(p.check(v) for p in props.values())
    ]
    assert survivors == [E3]
    assert E3 == min((E1, E2, E3, E4))


@pytest.mark.parametrize(
    "drop,expected",
    [
        ("reversal", [E3]),
        ("inversion", [E3]),
        ("composed", [E2, E3]),  # e2 only violates the composed comparison
    ],
)
def test_dropping_one_leader(drop, expected):
    props = _leader_props(6)
    active = [p for name, p in props.items() if name != drop]
    survivors = [v for v in (E1, E2, E3, E4) if all(p.check(v) for p in active)]
    assert survivors == expected


def test_value_inversion_leader_halves_first_variable():
    # v <= 10 - v at the first open position keeps 0..5
    n = 11
    _, inversion, _ = _all_interval_syms(n)
    doms = [mask_of(range(n)) for _ in range(n)]
    out = propagate_to_fixpoint([LexLeaderProp(tuple(range(n)), inversion)], doms)
    assert not out.failed
    assert set(values_of(doms[0])) == set(range(6))
    assert all(doms[i].bit_count() == n for i in range(1, n))


def test_series_model_root_and_first_branch_fixpoints():
    # inversion leader under the series all-different: the root fixpoint caps
    # the first series variable at 5; assigning it 5 then caps the second
    # strictly below 5 (the tie consumes the lone fixed value)
    m = build_all_interval(11)
    _, inversion, _ = _all_interval_syms(11)
    props = build_propagators(m) + [LexLeaderProp(m.symmetry_scope, inversion)]
    doms = m.initial_domains()
    out = propagate_to_fixpoint(props, doms)
    assert not out.failed
    assert set(values_of(doms[0])) == set(range(6))
    assert all(doms[i].bit_count() == 11 for i in range(1, 11))

    doms[0] = 1 << 5
    out = propagate_to_fixpoint(props, doms, trigger_vars=[0])
    assert not out.failed
    assert set(values_of(doms[1])) == set(range(5))


def test_value_only_leader_restricts_first_variable():
    n = 6
    _, inversion, _ = _all_interval_syms(n)
    doms = [mask_of(range(n)) for _ in range(n)]
    out = propagate_to_fixpoint([LexLeaderProp(tuple(range(n)), inversion)], doms)
    assert not out.failed
    assert set(values_of(doms[0])) == {0, 1, 2}  # v <= 5 - v, no fixed point on 6 values


def test_check_matches_direct_comparison():
    rng = random.Random(99)
    n = 4
    for sym in _all_interval_syms(n):
        prop = LexLeaderProp(tuple(range(n)), sym)
        for _ in range(200):
            vec = tuple(rng.randrange(n) for _ in range(n))
            assert prop.check(vec) == (vec <= sym.apply(vec))


def test_exhaustive_check_agreement_small():
    n = 3
    perms = [ValuePermutation(img) for img in itertools.permutations(range(n))]
    thetas = list(itertools.permutations(range(n)))
    rng = random.Random(5)
    for _ in range(40):
        sym = VarValueSymmetry(theta=rng.choice(thetas), sigma=rng.choice(perms))
        prop = LexLeaderProp((0, 1, 2), sym)
        for vec in itertools.product(range(n), repeat=n):
            assert prop.check(vec) == (vec <= sym.apply(vec)), (sym, vec)


def test_propagation_sound_and_contracting():
    # never prunes a supported value, never grows a domain; when the region is
    # dead but undetected, the leaf check still rejects every completion
    rng = random.Random(1234)
    n = 3
    perms = [ValuePermutation(img) for img in itertools.permutations(range(n))]
    thetas = list(itertools.permutations(range(n)))
    for _ in range(300):
        sym = VarValueSymmetry(theta=rng.choice(thetas), sigma=rng.choice(perms))
        prop = LexLeaderProp((0, 1, 2), sym)
        doms = [rng.randrange(1, 1 << n) for _ in range(n)]
        snapshot = list(doms)
        out = propagate_to_fixpoint([prop], doms)
        want = brute_support(snapshot, prop.check)
        if want is None:
            if not out.failed:
                for vec in itertools.product(*(tuple(values_of(d)) for d in doms)):
                    assert not prop.check(vec)
            continue
        assert not out.failed
        for i in range(n):
            assert want[i] <= set(values_of(doms[i])) <= set(values_of(snapshot[i]))


def test_pure_variable_leader_with_disjoint_bounds_fails():
    # theta reverses three positions: constraint is x0 <= x2 at the open spot
    sym = VarValueSymmetry.variable_only((2, 1, 0), 4)
    prop = LexLeaderProp((0, 1, 2), sym)
    doms = [mask_of([2, 3]), mask_of(range(4)), mask_of([0, 1])]
    out = propagate_to_fixpoint([prop], doms)
    assert out.failed


def test_strict_enforcement_after_guaranteed_descent():
    # sigma swaps 0 and 1; the middle variable is fixed to 1, whose image 0 is
    # strictly below it, so the first position must strictly improve: only
    # value 0 (image 1) survives there
    sym = VarValueSymmetry.value_only(3, ValuePermutation((1, 0, 2)))
    prop = LexLeaderProp((0, 1, 2), sym)
    doms = [mask_of([0, 1, 2]), mask_of([1]), mask_of([0, 1, 2])]
    out = propagate_to_fixpoint([prop], doms)
    assert not out.failed
    assert set(values_of(doms[0])) == {0}
    assert set(values_of(doms[2])) == {0, 1, 2}
    want = brute_support(list(doms), prop.check)
    assert [set(values_of(d)) for d in doms] == want
