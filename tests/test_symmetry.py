import itertools
import math
import random
import time
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import (
    canonical_partition,
    class_product_canonical_by_dict_walk,
    enumerated_group,
    lex_leader_support,
)
from valsym import symmetry
from valsym.domains import mask_of
from valsym.errors import GroupTooLarge, ModelError
from valsym.model import Model
from valsym.problems import build_all_interval
from valsym.search import SearchConfig, applicable_modes, break_group, solve
from valsym.symmetry import (
    GROUP_CAP,
    VALUE_MAP_CAP,
    ClassProduct,
    SymmetrySpec,
    ValuePermutation,
    VarValueSymmetry,
    canonical_form,
    close_group,
    inversion_permutation,
    orbit_partition,
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
    assert p.after(p).image == (2, 0, 1, 3)
    assert p.after(p).after(p).is_identity
    assert p(0) == 1 and p(2) == 0 and p(3) == 3


def test_value_permutation_rejects_non_bijection():
    with pytest.raises(ModelError):
        ValuePermutation((0, 0, 1))


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
    def value_swaps(size):
        return [VarValueSymmetry.value_only(4, ValuePermutation.from_cycle(size, (i, i + 1)))
                for i in range(size - 1)]

    assert len(close_group(value_swaps(6))) == 720
    # 8! maps over 8 values: refused at the first element past VALUE_MAP_CAP entries
    with pytest.raises(GroupTooLarge) as exc:
        close_group(value_swaps(8))
    assert (exc.value.size, exc.value.cap) == (8_821 * 8, VALUE_MAP_CAP)
    # 8! orders of 8 variables over 2 values: refused at the first element past GROUP_CAP
    swap, cycle = (1, 0, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7, 0)
    with pytest.raises(GroupTooLarge) as exc:
        close_group([VarValueSymmetry.variable_only(theta, 2) for theta in (swap, cycle)])
    assert (exc.value.size, exc.value.cap) == (GROUP_CAP + 1, GROUP_CAP)


def _classes(scope_len, universe_size, *classes, explicit=()):
    return SymmetrySpec(scope_len, universe_size, explicit, tuple(classes))


def test_class_group_sizes():
    assert len(_classes(4, 5, (0, 1, 2)).closed_group()) == 6
    assert len(_classes(3, 5, (2, 4)).closed_group()) == 2
    for size in (8, 9):  # 8! = 40 320 is past GROUP_CAP
        with pytest.raises(GroupTooLarge, match=f"up to {VALUE_MAP_CAP} entries, got {40_320 * size}"):
            _classes(3, size, tuple(range(size))).closed_group()


def test_a_huge_class_is_refused_at_once():
    size = 20_000
    model = Model(
        name="huge-class",
        universe_size=size,
        domains=((1 << size) - 1,) * 2,
        constraints=(),
        symmetry=_classes(2, size, tuple(range(size))),
        symmetry_scope=(0, 1),
    )
    t0 = time.perf_counter()
    # 3! maps of 20 000 entries are past VALUE_MAP_CAP
    with pytest.raises(GroupTooLarge, match=f"up to {VALUE_MAP_CAP} entries, got {6 * size}"):
        model.symmetry.closed_group()
    # its 19 999 transpositions would hold a value map of 20 000 entries each
    with pytest.raises(GroupTooLarge, match=f"got {(size - 1) * size}"):
        solve(model, SearchConfig(symmetry_mode="static-lex"))
    assert applicable_modes(model) == ["precedence", "channel", "getree"]
    assert time.perf_counter() - t0 < 5.0


def _value_shift(size):
    shift = ValuePermutation(tuple(range(1, size)) + (0,))
    return SymmetrySpec(1, size, (VarValueSymmetry.value_only(1, shift),))


def test_a_wide_cyclic_shift_is_refused_by_its_map_entries():
    # its 2 000 elements would hold 4 000 000 map entries; the closure stops
    # at the 36th, whose 72 000 entries are the first past VALUE_MAP_CAP
    with pytest.raises(GroupTooLarge) as exc:
        _value_shift(2_000).closed_group()
    assert (exc.value.size, exc.value.cap) == (36 * 2_000, VALUE_MAP_CAP)
    t0 = time.perf_counter()
    with pytest.raises(GroupTooLarge, match=f"up to {VALUE_MAP_CAP} entries, got {4 * 20_000}"):
        _value_shift(20_000).closed_group()
    assert time.perf_counter() - t0 < 1.0


def test_class_group_only_moves_class_values():
    for g in _classes(2, 5, (1, 3)).closed_group():
        assert g.theta_is_identity
        assert g.sigma(0) == 0 and g.sigma(2) == 2 and g.sigma(4) == 4


def test_class_groups_combine_as_a_direct_product():
    prod = _classes(2, 6, (0, 1), (3, 4, 5)).closed_group()
    assert len(prod) == 12
    assert len({g.sigma.image for g in prod}) == 12
    assert all(g.sigma(2) == 2 and {g.sigma(0), g.sigma(1)} == {0, 1} for g in prod)


@pytest.mark.parametrize("mixed", [False, True], ids=["classes", "mixed"])
def test_class_product_past_the_cap_is_refused_before_building(mixed, monkeypatch):
    def refuse(generators):
        raise AssertionError("close_group called")

    monkeypatch.setattr(symmetry, "close_group", refuse)
    swap = (VarValueSymmetry.variable_only((1, 0, 2), 10),) if mixed else ()
    # 7! * 3! = 30 240: each class fits the cap, their product does not; the
    # running product is refused at 7! * 2 maps over 10 values
    spec = _classes(3, 10, tuple(range(7)), (7, 8, 9), explicit=swap)
    with pytest.raises(GroupTooLarge) as exc:
        spec.closed_group()
    assert (exc.value.size, exc.value.cap) == (100_800, VALUE_MAP_CAP)
    spec = _classes(3, 10, (8, 9), tuple(range(8)), explicit=swap)
    with pytest.raises(GroupTooLarge, match=f"up to {VALUE_MAP_CAP} entries, got 100800"):
        spec.closed_group()


def test_class_of_seven_beside_a_variable_swap_reaches_the_cap():
    swap = VarValueSymmetry.variable_only((1, 0, 2), 7)
    group = _classes(3, 7, tuple(range(7)), explicit=(swap,)).closed_group()
    assert len(group) == 2 * 5_040 == GROUP_CAP
    assert group[0].is_identity
    assert len({(g.theta, g.sigma.image) for g in group}) == GROUP_CAP


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
    assert len(spec.closed_group()) == 4
    spec2 = SymmetrySpec(
        scope_len=3,
        universe_size=4,
        interchangeable_classes=((0, 1, 2),),
    )
    assert len(spec2.closed_group()) == 6


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
    group = spec.closed_group()
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
    assert lex_leader_support(doms, syms) == [{0, 1}, {0, 1}]


def test_exact_prune_reports_wipeout():
    syms = (VarValueSymmetry.value_only(1, ValuePermutation.from_cycle(2, (0, 1))),)
    doms = [mask_of([1])]  # (1,) maps to (0,) < (1,): never a leader
    assert lex_leader_support(doms, syms) is None


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
    group = close_group(gens)
    keyed = {(g.theta, g.sigma.image) for g in group}
    for a in group:
        for b in group:
            c = a.compose(b)
            assert (c.theta, c.sigma.image) in keyed
    assert {g.apply(vec) for g in gens} <= {g.apply(vec) for g in group}


def test_class_product_relabels_by_first_occurrence():
    # classes declared out of order: the k-th new value of a class becomes
    # its k-th smallest value, whatever the declared order; 1 and 6 stay fixed
    cp = ClassProduct(((5, 2, 4), (3, 0)), universe_size=7)
    assert cp.canonical((4, 1, 3, 4, 5, 6, 0)) == (2, 1, 0, 2, 4, 6, 3)
    assert canonical_form((5, 5, 2), cp) == (2, 2, 4)


def test_class_product_canonical_matches_the_dict_walk():
    # 1-3 classes over a universe with values outside every class, lengths
    # 0-12 drawn from a few values, so most assignments repeat some
    rng = random.Random(3434)
    seen = Counter()
    for _ in range(4_000):
        universe = rng.randint(2, 9)
        values = rng.sample(range(universe), rng.randint(1, universe))
        k = rng.randint(1, min(3, len(values)))
        cuts = sorted(rng.sample(range(1, len(values)), k - 1))
        classes = tuple(tuple(values[a:b]) for a, b in zip([0, *cuts], [*cuts, len(values)]))
        group = ClassProduct(classes, universe)
        pool = rng.sample(range(universe), rng.randint(1, universe))
        assignment = tuple(rng.choice(pool) for _ in range(rng.randint(0, 12)))
        assert group.canonical(assignment) == class_product_canonical_by_dict_walk(group, assignment)
        seen["outside a class"] += any(v not in values for v in assignment)
        seen["repeated"] += len(set(assignment)) < len(assignment)
        seen[f"{k} classes"] += 1
        seen["empty"] += not assignment
    assert min(seen.values()) > 150, seen


def test_class_product_has_no_class_size_limit():
    spec = SymmetrySpec(scope_len=3, universe_size=12, interchangeable_classes=(tuple(range(12)),))
    cp = spec.class_product()
    assert cp == ClassProduct((tuple(range(12)),), 12)
    orbits = orbit_partition([(11, 7, 11), (3, 9, 3), (4, 5, 6)], cp)
    assert orbits == [[(3, 9, 3), (11, 7, 11)], [(4, 5, 6)]]


def test_class_product_rejects_overlapping_classes():
    with pytest.raises(ModelError):
        ClassProduct(((0, 1), (1, 2)), 3)
    with pytest.raises(ModelError):
        ClassProduct(((0, 3),), 3)


@st.composite
def class_specs(draw):
    """Up to 3 disjoint classes of up to 6 values each, whose product has at
    most 6! elements, in shuffled order, beside up to 3 values outside every
    class, plus a few assignments."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    order = 1
    for k in sizes:
        order *= math.factorial(k)
    assume(order <= 720)
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
# one product of 6! * 2! elements, past what the strategy draws
@example((SymmetrySpec(4, 10, interchangeable_classes=((5, 0, 3, 9, 4, 2), (8, 6))),
          [(0, 5, 7, 3), (1, 1, 6, 8), (7, 9, 9, 0), (2, 8, 4, 6)]))
@settings(max_examples=100, deadline=None)
def test_class_product_matches_enumerated_group(case):
    spec, points = case
    cp = spec.class_product()
    group = enumerated_group(spec)
    # closed_group holds the reference's elements
    assert set(spec.closed_group()) == set(group)
    for p in points:
        assert cp.canonical(p) == canonical_form(p, group) == canonical_form(p, cp)
    # the orbits of the points, which a list of elements partitions only
    # when closed under each of them, as the class swaps are here
    orbits: dict = {}
    for p in points:
        orbits.setdefault(canonical_form(p, group), set()).update(g.apply(p) for g in group)
    closed = sorted(set().union(*orbits.values()))
    want = sorted(sorted(orbit) for orbit in orbits.values())
    assert orbit_partition(closed, cp) == orbit_partition(closed, spec.class_swaps()) == want


@st.composite
def mixed_specs(draw):
    """One or two disjoint classes of up to 4 values beside one or two
    explicit elements, each a random variable permutation paired with a
    random value permutation, over a scope of up to 3 positions and a
    universe of up to 5 values."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    assume(sum(sizes) <= 5)
    universe = draw(st.integers(sum(sizes), 5))
    values = draw(st.permutations(range(universe)))
    classes, at = [], 0
    for k in sizes:
        classes.append(tuple(values[at:at + k]))
        at += k
    scope_len = draw(st.integers(1, 3))
    element = st.builds(
        VarValueSymmetry,
        st.permutations(range(scope_len)).map(tuple),
        st.permutations(range(universe)).map(lambda img: ValuePermutation(tuple(img))),
    )
    explicit = draw(st.lists(element, min_size=1, max_size=2))
    return SymmetrySpec(scope_len, universe, tuple(explicit), tuple(classes))


@given(mixed_specs())
@settings(max_examples=80, deadline=None)
def test_mixed_group_matches_the_reference_in_order(spec):
    assert spec.closed_group() == enumerated_group(spec)


@given(mixed_specs(), st.data())
@settings(max_examples=80, deadline=None)
def test_generators_give_the_canonical_form_orbits(spec, data):
    group = enumerated_group(spec)
    point = st.tuples(*[st.integers(0, spec.universe_size - 1)] * spec.scope_len)
    points = data.draw(st.lists(point, min_size=1, max_size=4))
    closed = sorted({g.apply(p) for p in points for g in group})
    want = canonical_partition(closed, group)
    assert orbit_partition(closed, [*spec.explicit, *spec.class_swaps()]) == want
    assert orbit_partition(closed, group) == want


def test_orbit_partition_names_an_image_outside_the_points():
    rev = _rev(3)
    with pytest.raises(ModelError) as exc:
        orbit_partition([(0, 0, 0), (0, 1, 2)], [rev])
    assert f"{rev!r} maps (0, 1, 2) to (2, 1, 0), which is not among" in str(exc.value)
    # a repeated point stays in its one orbit, with no element or with one
    for group in ([], [rev]):
        assert orbit_partition([(0, 1, 0), (1, 1, 1), (0, 1, 0)], group) == [[(0, 1, 0), (0, 1, 0)], [(1, 1, 1)]]


@given(mixed_specs(), st.data())
@settings(max_examples=120, deadline=None)
def test_closed_group_is_refused_exactly_past_the_limit(spec, data):
    # caps drawn at the reference closure's size, just below it or at the
    # library's own: closed_group raises iff the closure passes one of them
    group = enumerated_group(spec)
    assume(len(group) > 1)  # the identity alone is no list to limit
    elements, entries = len(group), len(group) * spec.universe_size
    group_cap = data.draw(st.sampled_from([elements - 1, elements, GROUP_CAP]))
    map_cap = data.draw(st.sampled_from([entries - 1, entries, VALUE_MAP_CAP]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(symmetry, "GROUP_CAP", group_cap)
        patch.setattr(symmetry, "VALUE_MAP_CAP", map_cap)
        if elements > group_cap or entries > map_cap:
            with pytest.raises(GroupTooLarge):
                spec.closed_group()
        else:
            assert spec.closed_group() == group
