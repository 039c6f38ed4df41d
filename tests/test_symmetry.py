import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from valsym.domains import mask_of, values_of
from valsym.errors import BudgetExceeded, GroupTooLarge, ModelError
from valsym.problems import build_all_interval
from valsym.search import break_group
from valsym.symmetry import (
    GROUP_CAP,
    ClassProduct,
    SymmetrySpec,
    ValuePermutation,
    VarValueSymmetry,
    canonical_form,
    close_group,
    exact_valsym_prune,
    full_symmetric_group,
    inversion_permutation,
    orbit_partition,
    product_group,
)

E1 = (5, 0, 4, 1, 3, 2)
E2 = (2, 3, 1, 4, 0, 5)
E3 = (0, 5, 1, 4, 2, 3)
E4 = (3, 2, 4, 1, 5, 0)


def _rev(n):
    return VarValueSymmetry.variable_only(tuple(reversed(range(n))), n)


def _inv(n):
    return VarValueSymmetry.value_only(n, inversion_permutation(n))


def test_reversal_maps_example_vector():
    assert _rev(6).apply(E1) == E2


def test_inversion_maps_example_vector():
    assert _inv(6).apply(E1) == E3


def test_composition_maps_example_vector():
    assert _rev(6).compose(_inv(6)).apply(E1) == E4
    assert _inv(6).compose(_rev(6)).apply(E1) == E4  # both are involutions


def test_value_permutation_algebra():
    p = ValuePermutation.from_cycle(4, (0, 1, 2))
    q = p.inverse()
    assert p.after(q).image == tuple(range(4))
    assert q.after(p).image == tuple(range(4))
    assert p(0) == 1 and p(2) == 0 and p(3) == 3


def test_value_permutation_rejects_non_bijection():
    with pytest.raises(ModelError):
        ValuePermutation((0, 0, 1))


def test_symmetry_inverse_roundtrip():
    sym = _rev(6).compose(_inv(6))
    back = sym.inverse()
    for vec in (E1, E2, E3, E4):
        assert back.apply(sym.apply(vec)) == vec


def test_compose_applies_left_then_right():
    # compose(self, then): first self, then `then`
    theta = (1, 2, 0)
    sig = ValuePermutation((1, 0, 2))
    a = VarValueSymmetry.variable_only(theta, 3)
    b = VarValueSymmetry.value_only(3, sig)
    vec = (0, 1, 2)
    assert a.compose(b).apply(vec) == b.apply(a.apply(vec))


def test_close_group_of_two_involutions():
    group = close_group([_rev(6), _inv(6)])
    assert len(group) == 4  # klein four-group: id, rev, inv, rev.inv
    assert group[0].is_identity
    images = {g.apply(E1) for g in group}
    assert images == {E1, E2, E3, E4}


def test_close_group_transpositions_generate_symmetric_group():
    swaps = [
        VarValueSymmetry.value_only(3, ValuePermutation.from_cycle(4, (i, i + 1)))
        for i in range(3)
    ]
    assert len(close_group(swaps)) == 24


def test_close_group_respects_cap():
    swaps = [
        VarValueSymmetry.value_only(4, ValuePermutation.from_cycle(6, (i, i + 1)))
        for i in range(5)
    ]
    with pytest.raises(GroupTooLarge):
        close_group(swaps, cap=100)
    assert len(close_group(swaps, cap=GROUP_CAP)) == 720


def test_full_symmetric_group_sizes():
    assert len(full_symmetric_group((0, 1, 2), 4, 5)) == 6
    assert len(full_symmetric_group((2, 4), 3, 5)) == 2
    with pytest.raises(GroupTooLarge):
        full_symmetric_group(tuple(range(9)), 3, 9)


def test_full_symmetric_group_only_moves_class_values():
    for g in full_symmetric_group((1, 3), 2, 5):
        assert g.sigma(0) == 0 and g.sigma(2) == 2 and g.sigma(4) == 4


def test_product_group_combines_independent_classes():
    groups = [
        full_symmetric_group((0, 1), 2, 6),
        full_symmetric_group((3, 4, 5), 2, 6),
    ]
    prod = product_group(groups, cap=GROUP_CAP)
    assert len(prod) == 12
    assert len({g.sigma.image for g in prod}) == 12


def test_product_group_respects_cap():
    groups = [full_symmetric_group((0, 1, 2), 2, 6)] * 2
    with pytest.raises(GroupTooLarge):
        product_group(groups, cap=30)


def test_spec_rejects_overlapping_classes():
    with pytest.raises(ModelError):
        SymmetrySpec(
            scope_len=3,
            universe_size=4,
            interchangeable_classes=((0, 1), (1, 2)),
        )


def test_spec_rejects_mismatched_explicit_shape():
    with pytest.raises(ModelError):
        SymmetrySpec(scope_len=4, universe_size=6, explicit=(_rev(6),))


def test_spec_closed_group_union():
    spec = SymmetrySpec(
        scope_len=6,
        universe_size=6,
        explicit=(_rev(6), _inv(6)),
    )
    assert len(spec.closed_group(GROUP_CAP)) == 4
    spec2 = SymmetrySpec(
        scope_len=3,
        universe_size=4,
        interchangeable_classes=((0, 1, 2),),
    )
    assert len(spec2.closed_group(GROUP_CAP)) == 6


def test_value_subgroup_keeps_value_only_elements():
    # all-interval 6 declares reversal and value inversion; getree breaks
    # only the elements that leave the variables in place
    sub = break_group(build_all_interval(6), "getree")
    assert all(s.theta_is_identity for s in sub)
    assert len(sub) == 2  # identity and the value inversion


def test_orbit_partition_triangle_colourings():
    spec = SymmetrySpec(
        scope_len=3,
        universe_size=3,
        interchangeable_classes=((0, 1, 2),),
    )
    group = spec.closed_group(GROUP_CAP)
    orbits = orbit_partition(itertools.permutations(range(3)), group)
    assert len(orbits) == 1
    assert orbits[0][0] == (0, 1, 2)
    assert len(orbits[0]) == 6


def test_orbit_partition_groups_by_canonical_form():
    group = close_group([_rev(4)])
    pts = [(0, 1, 2, 3), (3, 2, 1, 0), (1, 1, 2, 2), (2, 2, 1, 1), (0, 0, 0, 0)]
    orbits = orbit_partition(pts, group)
    assert [o[0] for o in orbits] == [(0, 0, 0, 0), (0, 1, 2, 3), (1, 1, 2, 2)]
    assert [len(o) for o in orbits] == [1, 2, 2]


def test_canonical_form_is_orbit_minimum():
    group = close_group([_rev(6), _inv(6)])
    for vec in (E1, E2, E3, E4):
        assert canonical_form(vec, group) == min(g.apply(vec) for g in group)
    assert len({canonical_form(v, group) for v in (E1, E2, E3, E4)}) == 1


def test_exact_prune_removes_unsupported_values():
    # universe 3, two vars, sigmas {swap(1,2), swap(0,2)}: value 2 in the
    # second domain appears in no assignment that leads all its images
    syms = (
        VarValueSymmetry.value_only(2, ValuePermutation.from_cycle(3, (1, 2))),
        VarValueSymmetry.value_only(2, ValuePermutation.from_cycle(3, (0, 2))),
    )
    doms = [mask_of([0, 1]), mask_of([0, 1, 2])]
    pruned = exact_valsym_prune(doms, syms)
    assert pruned is not None
    assert [set(values_of(d)) for d in pruned] == [{0, 1}, {0, 1}]


def test_exact_prune_reports_wipeout():
    syms = (VarValueSymmetry.value_only(1, ValuePermutation.from_cycle(2, (0, 1))),)
    doms = [mask_of([1])]  # (1,) maps to (0,) < (1,): never a leader
    assert exact_valsym_prune(doms, syms) is None


def test_exact_prune_budget_guard():
    syms = (_inv(6),)
    doms = [mask_of(range(6)) for _ in range(6)]
    with pytest.raises(BudgetExceeded):
        exact_valsym_prune(doms, syms, budget=100)


@given(
    st.lists(
        st.permutations(tuple(range(4))).map(tuple), min_size=1, max_size=3
    ),
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
)
@settings(max_examples=120, deadline=None)
def test_closure_is_composition_closed(images, vec):
    gens = [
        VarValueSymmetry.value_only(3, ValuePermutation(img)) for img in images
    ]
    group = close_group(gens, cap=GROUP_CAP)
    keyed = {(g.theta, g.sigma.image) for g in group}
    for a in group:
        for b in group:
            c = a.compose(b)
            assert (c.theta, c.sigma.image) in keyed
    assert {g.apply(vec) for g in gens} <= {g.apply(vec) for g in group}


def test_class_product_relabels_by_first_occurrence():
    # classes declared out of order: the k-th new value of a class becomes
    # its k-th smallest value, whatever the declared order; 1 and 6 stay fixed
    cp = ClassProduct(((5, 2, 4), (3, 0)), scope_len=7, universe_size=7)
    assert cp.canonical((4, 1, 3, 4, 5, 6, 0)) == (2, 1, 0, 2, 4, 6, 3)
    assert canonical_form((5, 5, 2), cp) == (2, 2, 4)


def test_class_product_has_no_class_size_limit():
    spec = SymmetrySpec(scope_len=3, universe_size=12, interchangeable_classes=(tuple(range(12)),))
    cp = spec.class_product()
    assert cp == ClassProduct((tuple(range(12)),), 3, 12)
    orbits = orbit_partition([(11, 7, 11), (3, 9, 3), (4, 5, 6)], cp)
    assert orbits == [[(3, 9, 3), (11, 7, 11)], [(4, 5, 6)]]


def test_class_product_rejects_overlapping_classes():
    with pytest.raises(ModelError):
        ClassProduct(((0, 1), (1, 2)), 2, 3)
    with pytest.raises(ModelError):
        ClassProduct(((0, 3),), 2, 3)


@st.composite
def class_specs(draw):
    """Up to 3 disjoint classes of up to 6 values each, in shuffled order,
    beside up to 3 values outside every class, plus a few assignments."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    order = 1
    for k in sizes:
        order *= math.factorial(k)
    assume(order <= GROUP_CAP)
    universe = sum(sizes) + draw(st.integers(0, 3))
    values = draw(st.permutations(range(universe)))
    classes, at = [], 0
    for k in sizes:
        classes.append(tuple(values[at:at + k]))
        at += k
    scope_len = draw(st.integers(1, 6))
    point = st.tuples(*[st.integers(0, universe - 1)] * scope_len)
    points = draw(st.lists(point, min_size=1, max_size=6))
    return SymmetrySpec(scope_len, universe, interchangeable_classes=tuple(classes)), points


@given(class_specs())
@settings(max_examples=150, deadline=None)
def test_class_product_matches_enumerated_group(case):
    spec, points = case
    cp = spec.class_product()
    group = product_group(spec.class_groups())
    for p in points:
        assert cp.canonical(p) == canonical_form(p, group) == canonical_form(p, cp)
    assert orbit_partition(points, cp) == orbit_partition(points, group)
