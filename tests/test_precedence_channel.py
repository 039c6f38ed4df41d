import itertools
import random
from collections import Counter

import pytest

from oracles import (
    brute_support,
    channel_propagate_per_value,
    class_permutations,
    precedence_accepts,
    precedence_propagate_per_position,
)
from valsym.domains import mask_of, values_of
from valsym.engine import propagate_to_fixpoint
from valsym.errors import ModelError
from valsym.propagators import (
    FirstOccurrenceChannelProp,
    PrecedenceProp,
    post_first_occurrence_channel,
)


def test_gate_accepts_in_order_first_occurrences():
    p = PrecedenceProp(tuple(range(5)), (1, 2, 3))
    assert p.check((1, 1, 2, 1, 3))


def test_gate_rejects_out_of_order_first_occurrences():
    p = PrecedenceProp(tuple(range(5)), (1, 2, 3))
    assert not p.check((1, 1, 3, 1, 2))


def test_gate_used_values_must_be_prefix():
    p = PrecedenceProp(tuple(range(3)), (0, 1, 2))
    assert p.check((0, 0, 0))
    assert p.check((0, 1, 0))
    assert not p.check((0, 2, 1))  # 2 used while 1 unused at its first occurrence
    assert not p.check((1, 0, 2))


def test_gate_ignores_non_class_values():
    p = PrecedenceProp(tuple(range(4)), (0, 1))
    assert p.check((3, 0, 2, 1))
    assert not p.check((3, 1, 2, 0))


def test_propagation_restricts_prefix_domains():
    # position i can hold at most the first i class values
    n, m = 5, 6
    p = PrecedenceProp(tuple(range(n)), tuple(range(m)))
    doms = [mask_of(range(m)) for _ in range(n)]
    out = propagate_to_fixpoint([p], doms)
    assert not out.failed
    for i in range(n):
        assert set(values_of(doms[i])) == set(range(i + 1))


def test_repeated_order_value_rejected():
    with pytest.raises(ModelError):
        PrecedenceProp((0, 1), (1, 1))


def test_repeated_scope_variable_rejected():
    # the backward sweep reads each domain as the forward sweep translated it,
    # which holds only while no position shares another's variable
    with pytest.raises(ModelError, match="precedence scope repeats a variable"):
        PrecedenceProp((0, 1, 0), (0, 1))


def _random_domains(rng, n, u):
    return [rng.randrange(1, 1 << u) for _ in range(n)]


def _random_class_configs(rng, count):
    # half with the class 0..m-1 in ascending order, half with a shuffled class
    # drawn from a wider universe: non-contiguous, not ascending, and with
    # non-class values below, between and above the class values
    for _ in range(count):
        n = rng.randint(1, 6)
        m = rng.randint(1, 4)
        u = rng.randint(m, m + 2)
        yield n, u, tuple(range(m))
    for _ in range(count):
        n = rng.randint(1, 6)
        m = rng.randint(1, 4)
        u = rng.randint(m + 1, m + 5)
        yield n, u, tuple(rng.sample(range(u), m))


def _saturating_configs(rng, count):
    # a fixed prefix holding every class value (in class order half of the
    # time, so the automaton reaches its last state and both sweeps stop
    # there), then a few open positions, with non-class values mixed in
    for _ in range(count):
        m = rng.randint(2, 4)
        u = rng.randint(m, m + 2)
        order = tuple(rng.sample(range(u), m))
        prefix = list(order) + [rng.randrange(u) for _ in range(rng.randint(0, 2))]
        rng.shuffle(prefix)
        if rng.random() < 0.5:
            # relabel the class values by first occurrence
            relabel = {}
            for v in prefix:
                if v in order and v not in relabel:
                    relabel[v] = order[len(relabel)]
            prefix = [relabel.get(v, v) for v in prefix]
        tail = _random_domains(rng, rng.randint(1, 3), u)
        yield [1 << v for v in prefix] + tail, order


def test_propagator_is_exactly_gac_on_random_configs():
    rng = random.Random(515)
    configs = [
        (_random_domains(rng, n, u), order) for n, u, order in _random_class_configs(rng, 250)
    ]
    configs += list(_saturating_configs(rng, 250))
    for doms, order in configs:
        n = len(doms)
        snapshot = list(doms)
        out = propagate_to_fixpoint([PrecedenceProp(tuple(range(n)), order)], doms)
        want = brute_support(snapshot, lambda c: precedence_accepts(c, order))
        if want is None:
            assert out.failed
        else:
            assert not out.failed
            assert [set(values_of(d)) for d in doms] == want


def _fixed_prefix_configs(rng, count):
    # fixed prefixes: one introducing the whole class in order, then open
    # positions the forward sweep never reads; one whose first occurrences
    # break the order, then open positions; a scope fixed throughout,
    # accepted or not; and, as a near miss, one introducing part of the class
    # in order, then open positions the sweep reads and may prune
    for _ in range(count):
        m = rng.randint(1, 4)
        u = rng.randint(m, m + 2)
        order = tuple(rng.sample(range(u), m))
        others = [v for v in range(u) if v not in order]
        kind = rng.randrange(4)
        if kind in (0, 3):
            prefix = []
            for k, v in enumerate(order[: m if kind == 0 else rng.randrange(m)]):
                pool = list(order[:k]) + others
                prefix += [rng.choice(pool) for _ in range(rng.randint(0, 2) if pool else 0)]
                prefix.append(v)
        elif kind == 1 and m > 1:
            prefix = [rng.randrange(u) for _ in range(rng.randint(2, 6))]
            while precedence_accepts(prefix, order):
                prefix = [rng.randrange(u) for _ in range(len(prefix))]
        else:
            yield [1 << rng.randrange(u) for _ in range(rng.randint(1, 6))], order
            continue
        tail = _random_domains(rng, rng.randint(0 if kind < 3 else 1, 3), u)
        yield [1 << v for v in prefix] + tail, order


def test_precedence_is_exactly_gac_after_fixed_prefixes():
    rng = random.Random(2696)
    outcomes = Counter()
    for doms, order in _fixed_prefix_configs(rng, 1000):
        n = len(doms)
        before = list(doms)
        want = brute_support(before, lambda c: precedence_accepts(c, order))
        failed, changed = PrecedenceProp(tuple(range(n)), order).propagate(doms)
        failed = failed is True  # None reports entailment, not failure
        assert failed == (want is None), (before, order)
        if not failed:
            assert [set(values_of(d)) for d in doms] == want, (before, order)
            assert set(changed) == {v for v in range(n) if doms[v] != before[v]}
        outcomes[failed, bool(changed)] += 1
    # failures, fixpoints reached without a write and prunings all occur often
    assert min(outcomes[True, False], outcomes[False, False], outcomes[False, True]) > 40, outcomes


def _fixed_prefix(rng, order, u):
    # a few fixed positions; half of the time relabelled so that their class
    # values appear in class order
    prefix = [rng.randrange(u) for _ in range(rng.randint(0, 2 * len(order)))]
    if rng.random() < 0.5:
        relabel = {}
        for v in prefix:
            if v in order and v not in relabel:
                relabel[v] = order[len(relabel)]
        prefix = [relabel.get(v, v) for v in prefix]
    return [1 << v for v in prefix]


def _long_run_precedence_case(rng):
    # 30-120 positions drawn from 1-3 masks in runs of up to 40, after a
    # fixed prefix; masks may be singletons and may hold non-class values
    m = rng.randint(1, 4)
    u = rng.randint(m, m + 2)
    order = tuple(rng.sample(range(u), m))
    masks = [
        1 << rng.randrange(u) if rng.random() < 0.3 else rng.randrange(1, 1 << u)
        for _ in range(rng.randint(1, 3))
    ]
    doms = _fixed_prefix(rng, order, u)
    n = rng.randint(30, 120)
    while len(doms) < n:
        doms += [rng.choice(masks)] * rng.randint(1, 40)
    return doms[:n], order


def _distinct_mask_precedence_case(rng):
    # short scopes in which no two positions share a mask
    m = rng.randint(1, 4)
    u = rng.randint(max(m, 3), m + 2)
    order = tuple(rng.sample(range(u), m))
    doms = list(dict.fromkeys(_fixed_prefix(rng, order, u)))[:3]
    fresh = [d for d in range(1, 1 << u) if d not in doms]
    return doms + rng.sample(fresh, rng.randint(0 if doms else 1, 6 - len(doms))), order


@pytest.mark.parametrize("case", [_long_run_precedence_case, _distinct_mask_precedence_case])
def test_precedence_run_sweep_matches_the_per_position_sweep(case):
    rng = random.Random(3131)
    outcomes = Counter()
    for _ in range(3000):
        doms, order = case(rng)
        # the scope at shuffled ids, so a position is not its variable
        ids = rng.sample(range(len(doms)), len(doms))
        want = [0] * len(doms)
        for var, d in zip(ids, doms):
            want[var] = d
        got = list(want)
        prop = PrecedenceProp(ids, order)
        want_failed, want_changed = precedence_propagate_per_position(prop, want)
        failed, changed = prop.propagate(got)
        assert (failed, changed) == (want_failed, want_changed), (doms, order)
        if not failed:
            assert got == want, (doms, order)
        outcomes[failed, bool(changed)] += 1
    # failures, entailment, prunings and fixpoints without a write all occur;
    # only the forward sweep fails, since a path to an end supports every step
    keys = ((True, False), (None, False), (False, True), (False, False))
    assert min(outcomes[k] for k in keys) > 100, outcomes


def test_precedence_equals_full_lex_leader_conjunction():
    # exhaustive: acceptance coincides with all m! value-permutation
    # lex-leader comparisons
    for n in range(1, 6):
        for m in range(1, 5):
            order = tuple(range(m))
            group = class_permutations(order, n, m)
            prop = PrecedenceProp(tuple(range(n)), order)
            for a in itertools.product(range(m), repeat=n):
                lex_ok = all(a <= g.apply(a) for g in group)
                assert prop.check(a) == lex_ok, (n, m, a)


def _channel_setup(doms_x, order):
    doms = list(doms_x)
    props = post_first_occurrence_channel(doms, tuple(range(len(doms_x))), order)
    return doms, props, props[0].z_vars


def test_channel_forces_positions_on_fixed_assignment():
    doms, props, z_vars = _channel_setup(
        [mask_of([v]) for v in (1, 1, 2, 1, 3)], (1, 2, 3)
    )
    out = propagate_to_fixpoint(props, doms)
    assert not out.failed
    assert [list(values_of(doms[z])) for z in z_vars] == [[1], [3], [5]]


def test_channel_violating_fix_is_rejected_by_chain():
    doms, props, _ = _channel_setup(
        [mask_of([v]) for v in (1, 1, 3, 1, 2)], (1, 2, 3)
    )
    out = propagate_to_fixpoint(props, doms)
    assert out.failed  # first occurrence of 3 precedes that of 2


def test_channel_sentinel_for_unused_value():
    doms, props, z_vars = _channel_setup(
        [mask_of([v]) for v in (1, 1, 2, 1, 2)], (1, 2, 3)
    )
    out = propagate_to_fixpoint(props, doms)
    assert not out.failed
    assert list(values_of(doms[z_vars[2]])) == [5 + 1 + 3]  # value 3 never occurs


def test_channel_min_position_prunes_early_occurrences():
    # first occurrence of the second class value cannot be at position 1
    doms, props, _ = _channel_setup(
        [mask_of([0, 1]), mask_of([0, 1]), mask_of([0, 1])], (0, 1)
    )
    out = propagate_to_fixpoint(props, doms)
    assert not out.failed
    assert 1 not in values_of(doms[0])
    assert set(values_of(doms[1])) == {0, 1}


def test_channel_solution_gate_matches_first_occurrences():
    p = FirstOccurrenceChannelProp((0, 1, 2), (3, 4), (0, 1))
    assert p.check((0, 1, 0, 1, 2))
    assert not p.check((0, 1, 0, 1, 1))
    assert not p.check((0, 1, 0, 2, 2))
    assert p.check((2, 2, 2, 3 + 1 + 1, 3 + 1 + 2))  # both unused: sentinels


def test_channel_sound_never_below_gac():
    # the channel with ordering must keep every precedence-supported value
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randint(2, 4)
        u = rng.randint(2, 4)
        order = tuple(range(min(2, u)))
        doms_x = _random_domains(rng, n, u)
        want = brute_support(
            doms_x, lambda c: precedence_accepts(c, order)
        )
        doms, props, _ = _channel_setup(doms_x, order)
        out = propagate_to_fixpoint(props, doms)
        if want is None:
            continue  # channel may or may not detect global failure; gap is allowed
        assert not out.failed
        for i in range(n):
            assert want[i] <= set(values_of(doms[i]))


def _random_channel_case(rng):
    # scope and position variables at shuffled ids; scope domains with a fixed
    # prefix most of the time; position domains full, random or fixed. One
    # scope in four is 30-80 long, its open part drawn in runs from 1-3 masks
    long = rng.random() < 0.25
    n = rng.randint(30, 80) if long else rng.randint(1, 12)
    m = rng.randint(1, 5)
    u = rng.randint(m, m + 3)
    order = tuple(range(m)) if rng.random() < 0.3 else tuple(rng.sample(range(u), m))
    ids = list(range(n + m))
    rng.shuffle(ids)
    prop = FirstOccurrenceChannelProp(ids[:n], ids[n:], order)
    doms = [0] * (n + m)
    fixed = rng.randint(0, 12 if long else n) if rng.random() < 0.7 else 0
    masks = [rng.randrange(1, 1 << u) for _ in range(rng.randint(1, 3))]
    run = 0
    for i, var in enumerate(prop.x_scope):
        if i < fixed:
            doms[var] = 1 << (order[min(i, m - 1)] if rng.random() < 0.5 else rng.randrange(u))
        elif long:
            if not run:
                mask, run = rng.choice(masks), rng.randint(1, 20)
            doms[var] = mask
            run -= 1
        else:
            doms[var] = rng.randrange(1, 1 << u)
    for k, z in enumerate(prop.z_vars):
        full = prop.position_mask(k)
        kind = rng.random()
        if kind < 0.5:
            doms[z] = full
        elif kind < 0.8:
            doms[z] = (rng.getrandbits(full.bit_length()) & full) or full
        else:
            doms[z] = 1 << rng.choice([i for i in range(full.bit_length()) if full >> i & 1])
    return prop, doms


def test_channel_single_scan_matches_per_value_scans():
    rng = random.Random(4242)
    outcomes = Counter()
    unfixed = Counter()  # draws with a class value fixed nowhere, by where it is
    for _ in range(4000):
        prop, doms = _random_channel_case(rng)
        scope_doms = [doms[x] for x in prop.x_scope]
        union = 0
        for d in scope_doms:
            union |= d
        # such a value makes the single scan take the union of the scope
        for where in {"absent" if not union >> v & 1 else "present"
                      for v in prop.order if 1 << v not in scope_doms}:
            unfixed[where] += 1
        want_doms = list(doms)
        want_failed, want_changed = channel_propagate_per_value(prop, want_doms)
        failed, changed = prop.propagate(doms)
        failed = failed is True  # None reports entailment, not failure
        assert failed == want_failed
        assert doms == want_doms
        assert changed == want_changed  # the engine queues in this order
        outcomes[failed, bool(changed)] += 1
    # failures, narrowings and fixpoints all occur often, and so do class
    # values with no fixed occurrence, absent from every scope domain or not
    assert min(outcomes[o] for o in ((True, True), (False, True), (False, False))) > 100
    assert min(unfixed["absent"], unfixed["present"]) > 300, unfixed
