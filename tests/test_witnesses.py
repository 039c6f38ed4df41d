import itertools

import pytest

from valsym.domains import mask_of, values_of
from valsym.engine import propagate_to_fixpoint
from valsym.propagators import LexLeaderProp, PrecedenceProp
from witnesses import (
    FROZEN_CHANNEL_WITNESS,
    FROZEN_DECOMPOSITION_WITNESS,
    search_channel_witness,
    search_decomposition_witness,
)


def test_frozen_decomposition_gap_is_nonempty():
    w = FROZEN_DECOMPOSITION_WITNESS
    gap = w.gap_values()
    assert (1, 2) in gap
    failed, decomp = w.decomposition_fixpoint()
    assert not failed
    assert set(values_of(decomp[1])) == {0, 1, 2}  # per-symmetry filtering keeps 2
    oracle = w.oracle_fixpoint()
    assert oracle is not None
    assert oracle[1] == {0, 1}


def test_frozen_decomposition_gap_survives_merging_the_elements():
    # one propagator over every element filters element by element, so it
    # reaches the decomposition's fixpoint and keeps its gap
    w = FROZEN_DECOMPOSITION_WITNESS
    doms = [mask_of(d) for d in w.domains]
    merged = LexLeaderProp(tuple(range(len(doms))), *w.symmetries())
    out = propagate_to_fixpoint([merged], doms)
    assert (out.failed, doms) == w.decomposition_fixpoint()
    assert 2 in values_of(doms[1])


def test_frozen_decomposition_gap_survives_perfect_per_symmetry_filtering():
    # even replacing each lex-leader propagator by per-constraint brute-force
    # GAC leaves value 2 supported: the gap is in the decomposition itself
    w = FROZEN_DECOMPOSITION_WITNESS
    doms = [set(d) for d in w.domains]
    for sym in w.symmetries():
        prop = LexLeaderProp(tuple(range(len(doms))), sym)
        for i in range(len(doms)):
            doms[i] = {
                v
                for v in doms[i]
                if any(
                    prop.check(combo)
                    for combo in itertools.product(
                        *[d if j != i else {v} for j, d in enumerate(doms)]
                    )
                )
            }
    assert 2 in doms[1]


def test_frozen_decomposition_oracle_agrees_with_leader_definition():
    # the oracle's surviving region is exactly the assignments that lead all
    # their images
    w = FROZEN_DECOMPOSITION_WITNESS
    syms = w.symmetries()
    leaders = [
        a
        for a in itertools.product(*[tuple(d) for d in w.domains])
        if all(a <= s.apply(a) for s in syms)
    ]
    oracle = w.oracle_fixpoint()
    for i in range(len(w.domains)):
        assert oracle[i] == {a[i] for a in leaders}


def test_frozen_channel_gap_is_nonempty():
    w = FROZEN_CHANNEL_WITNESS
    gap = w.gap_values()
    assert (1, 1) in gap
    cf, cd = w.channel_fixpoint()
    assert not cf
    assert 1 in values_of(cd[1])
    pf, pd = w.precedence_fixpoint()
    assert not pf
    assert set(values_of(pd[1])) == {0, 3}


def test_frozen_channel_precedence_side_is_exact():
    # brute-force: value 1 at X2 has no completion with value 0 first
    w = FROZEN_CHANNEL_WITNESS
    prop = PrecedenceProp((0, 1), w.class_values)
    support = {
        (i, v)
        for combo in itertools.product(*[tuple(d) for d in w.domains])
        if prop.check(combo)
        for i, v in enumerate(combo)
    }
    assert (1, 1) not in support
    assert (1, 0) in support and (1, 3) in support
    pf, pd = w.precedence_fixpoint()
    assert not pf
    for i in range(2):
        assert set(values_of(pd[i])) == {v for j, v in support if j == i}


@pytest.mark.parametrize("seed", [1, 7, 42, 2026])
def test_search_rediscovers_decomposition_witnesses(seed):
    found = search_decomposition_witness(seed, tries=500)
    assert found is not None
    assert found.gap_values()


@pytest.mark.parametrize("seed", [1, 7, 42, 2026])
def test_search_rediscovers_channel_witnesses(seed):
    found = search_channel_witness(seed, tries=500)
    assert found is not None
    assert found.gap_values()


def test_gap_values_empty_when_region_fails():
    # a wiped-out decomposition reports no gap rather than a misleading one
    from witnesses import DecompositionWitness

    w = DecompositionWitness(
        universe_size=2, sigma_images=((1, 0),), domains=((1,),)
    )
    failed, _ = w.decomposition_fixpoint()
    assert failed
    assert w.gap_values() == []
