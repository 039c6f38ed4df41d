import random
from dataclasses import replace

import pytest

from oracles import model_solutions, naive_all_interval
from valsym import search
from valsym.domains import mask_of, values_of
from valsym.errors import BudgetExceeded, GroupTooLarge, ModelError, UnsupportedModeError
from valsym.model import Constraint, ConstraintKind, Model
from valsym.problems import (
    build_all_interval,
    build_coloring,
    build_pigeonhole,
    random_interchangeable_model,
)
from valsym.search import (
    MODES,
    SearchConfig,
    applicable_modes,
    break_group,
    compare_methods,
    default_budget,
    getree_allowed_values,
    solve,
    verify_symmetry_breaking,
)
from valsym.symmetry import (
    SymmetrySpec,
    ValuePermutation,
    VarValueSymmetry,
    orbit_partition,
)

TRIANGLE = [(0, 1), (1, 2), (0, 2)]


def _plain_model(n=2, m=2, constraints=()):
    return Model(
        name="plain",
        universe_size=m,
        domains=((1 << m) - 1,) * n,
        constraints=tuple(constraints),
        symmetry=SymmetrySpec(scope_len=n, universe_size=m),
        symmetry_scope=tuple(range(n)),
    )


def _both_sources_model():
    swap = VarValueSymmetry.value_only(2, ValuePermutation((1, 0, 2)))
    return Model(
        name="both",
        universe_size=3,
        domains=(0b111, 0b111),
        constraints=(),
        symmetry=SymmetrySpec(
            scope_len=2,
            universe_size=3,
            explicit=(swap,),
            interchangeable_classes=((0, 1),),
        ),
        symmetry_scope=(0, 1),
    )


def test_mode_none_matches_naive_enumeration():
    m = build_all_interval(5)
    sols, stats = solve(m)
    assert sorted(sols) == sorted(naive_all_interval(5))
    assert stats.solutions == len(sols) == 8


def test_mode_none_matches_brute_force_on_random_models():
    rng = random.Random(2024)
    for _ in range(25):
        m = random_interchangeable_model(rng, max_vars=4, max_values=3)
        sols, _ = solve(m)
        assert sorted(sols) == sorted(model_solutions(m))


def test_modes_agree_on_triangle_coloring():
    m = build_coloring(3, TRIANGLE, 3)
    res = compare_methods(m, ["none", "static-lex", "precedence", "channel", "getree"])
    assert len(res["none"].solutions) == 6
    for mode in ("static-lex", "precedence", "channel", "getree"):
        assert res[mode].solutions == [(0, 1, 2)], mode


def test_channel_solutions_are_stripped_to_model_vars():
    m = build_coloring(3, TRIANGLE, 3)
    sols, _ = solve(m, SearchConfig(symmetry_mode="channel"))
    assert all(len(s) == m.num_vars for s in sols)


def test_static_modes_return_one_per_orbit():
    m = build_all_interval(5)
    passed, reports, _ = verify_symmetry_breaking(m, ["static-lex", "getree"])
    assert passed
    by_mode = {r.mode: r for r in reports}
    assert by_mode["static-lex"].solution_count == 2
    assert by_mode["getree"].solution_count == 4  # value subgroup halves only


def test_mode_none_fails_one_per_orbit_check():
    m = build_all_interval(5)
    passed, reports, _ = verify_symmetry_breaking(m, ["none"])
    assert not passed
    assert reports[0].duplicate_orbits


def test_sample_random_models_verify_across_all_modes():
    rng = random.Random(7)
    for _ in range(10):
        m = random_interchangeable_model(rng, max_vars=4, max_values=3)
        passed, reports, _ = verify_symmetry_breaking(
            m, ["static-lex", "precedence", "channel", "getree"]
        )
        assert passed, [(r.mode, r.duplicate_orbits, r.missed_orbits) for r in reports]


def test_solution_counts_equal_orbit_counts():
    m = build_all_interval(6)
    none_sols, _ = solve(m)
    proj = [m.project_scope(s) for s in none_sols]
    for mode in ("static-lex", "getree"):
        sols, _ = solve(m, SearchConfig(symmetry_mode=mode))
        orbits = orbit_partition(proj, break_group(m, mode))
        assert len(sols) == len(orbits), mode


def test_solution_limit_truncates():
    m = build_all_interval(6)
    sols, stats = solve(m, SearchConfig(solution_limit=3))
    assert len(sols) == 3 and stats.solutions == 3
    full, _ = solve(m)
    assert sols == full[:3]


def test_budget_exhaustion_carries_partial_stats():
    m = build_all_interval(7)
    with pytest.raises(BudgetExceeded) as exc:
        solve(m, SearchConfig(enumeration_budget=10))
    assert exc.value.budget == 10
    assert exc.value.stats is not None
    assert exc.value.stats.nodes == 11  # the node that tripped the guard
    assert exc.value.stats.elapsed > 0


def test_budget_env_var_fallback(monkeypatch):
    monkeypatch.setenv("VALSYM_BUDGET", "17")
    assert default_budget() == 17
    monkeypatch.setenv("VALSYM_BUDGET", "zero")
    with pytest.raises(ValueError):
        default_budget()
    monkeypatch.setenv("VALSYM_BUDGET", "-2")
    with pytest.raises(ValueError):
        default_budget()
    monkeypatch.delenv("VALSYM_BUDGET")
    assert default_budget() == 5_000_000


def test_search_is_deterministic():
    m = build_all_interval(6)
    a_sols, a_stats = solve(m, SearchConfig(symmetry_mode="static-lex"))
    b_sols, b_stats = solve(m, SearchConfig(symmetry_mode="static-lex"))
    assert a_sols == b_sols
    assert (a_stats.nodes, a_stats.branches, a_stats.failures) == (
        b_stats.nodes,
        b_stats.branches,
        b_stats.failures,
    )


def test_branches_are_nodes_minus_one():
    models = [
        build_all_interval(5),
        build_coloring(3, TRIANGLE, 3),
        _plain_model(3, 2, [Constraint(ConstraintKind.NOT_EQUAL, (0, 1))]),
    ]
    for m in models:
        for mode in ["none"] + applicable_modes(m):
            sols, stats = solve(m, SearchConfig(symmetry_mode=mode))
            assert stats.branches == stats.nodes - 1, (m.name, mode)
            assert stats.max_depth <= m.num_vars + len(m.symmetry.interchangeable_classes) * m.universe_size


# A fixed 3-colourable 12-vertex graph (planted colouring, 22 edges) whose
# input-order search fails 48 times, so propagation order matters to it.
PINNED_GRAPH = [
    (0, 4), (0, 9), (1, 5), (2, 6), (2, 7), (2, 8), (3, 5), (3, 7), (3, 11),
    (4, 7), (4, 11), (5, 7), (5, 8), (5, 9), (5, 10), (6, 9), (6, 10), (6, 11),
    (7, 10), (7, 11), (8, 10), (8, 11),
]

# A fixed planted 3-colourable 40-vertex graph (100 edges, vertices in
# breadth-first order). All three colours occur within its first few
# vertices, so most of its scope lies past the point where value precedence
# has introduced the whole class.
PINNED_GRAPH_40 = [
    (0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7), (1, 8), (2, 6), (2, 8),
    (2, 9), (2, 10), (2, 11), (2, 12), (3, 13), (3, 14), (3, 15), (4, 15), (4, 16),
    (4, 17), (5, 7), (5, 13), (5, 18), (5, 19), (5, 20), (5, 21), (6, 22), (6, 23),
    (6, 24), (6, 25), (6, 26), (6, 27), (7, 14), (7, 26), (7, 28), (8, 28), (8, 29),
    (8, 30), (8, 31), (9, 13), (9, 17), (9, 26), (9, 28), (9, 32), (9, 33), (10, 13),
    (10, 20), (11, 13), (11, 18), (11, 20), (12, 13), (12, 17), (12, 22), (12, 24),
    (12, 33), (13, 17), (13, 34), (14, 18), (14, 31), (14, 32), (15, 18), (15, 26),
    (15, 27), (15, 28), (16, 17), (16, 19), (16, 24), (16, 32), (16, 35), (17, 20),
    (17, 28), (17, 33), (17, 34), (17, 36), (18, 25), (18, 26), (18, 30), (19, 24),
    (19, 26), (21, 26), (22, 26), (23, 31), (24, 27), (24, 30), (25, 32), (25, 37),
    (26, 29), (26, 34), (27, 31), (27, 32), (28, 31), (28, 38), (29, 37), (30, 35),
    (30, 37), (31, 35), (31, 39), (32, 38), (34, 35), (36, 38),
]

# (nodes, branches, failures, solutions, propagation_calls) of an all-solution
# search in input/ascending order. Search is deterministic, so any change here
# means the search tree or the propagation queue changed.
PINNED_COUNTS = [
    ("all-interval-7", "none", (150, 149, 78, 32, 1878)),
    ("all-interval-7", "static-lex", (46, 45, 27, 8, 789)),
    ("all-interval-7", "getree", (76, 75, 39, 16, 947)),
    ("graph-12", "none", (151, 150, 48, 48, 1881)),
    ("graph-12", "static-lex", (26, 25, 8, 8, 414)),
    ("graph-12", "precedence", (26, 25, 8, 8, 338)),
    ("graph-12", "channel", (26, 25, 8, 8, 360)),
    ("graph-12", "getree", (28, 27, 8, 8, 318)),
    ("pigeonhole-6", "precedence", (1, 0, 1, 0, 12)),
    ("pigeonhole-6", "channel", (1, 0, 1, 0, 14)),
    ("pigeonhole-6", "getree", (33, 32, 13, 0, 162)),
    ("graph-40", "precedence", (53, 52, 15, 12, 906)),
    ("graph-40", "channel", (53, 52, 15, 12, 916)),
    ("all-interval-8", "none", (449, 448, 284, 40, 6043)),
    ("all-interval-8", "static-lex", (139, 138, 95, 10, 2514)),
]

_PINNED_MODELS = {
    "all-interval-7": lambda: build_all_interval(7),
    "all-interval-8": lambda: build_all_interval(8),
    "graph-12": lambda: build_coloring(12, PINNED_GRAPH, 3),
    "graph-40": lambda: build_coloring(40, PINNED_GRAPH_40, 3),
    "pigeonhole-6": lambda: build_pigeonhole(6),
}


@pytest.mark.parametrize("model,mode,want", PINNED_COUNTS)
def test_search_counters_are_pinned(model, mode, want):
    _, stats = solve(_PINNED_MODELS[model](), SearchConfig(symmetry_mode=mode))
    got = (stats.nodes, stats.branches, stats.failures, stats.solutions, stats.propagation_calls)
    assert got == want


def test_deep_model_is_solved_without_recursion():
    # deeper than Python's default recursion limit of 1 000 frames
    n = 3000
    path = build_coloring(n, [(i, i + 1) for i in range(n - 1)], 3)
    sols, stats = solve(path, SearchConfig(solution_limit=1))
    assert (stats.nodes, stats.max_depth) == (n + 1, n)
    assert sols == [tuple(i % 2 for i in range(n))]


def test_ordering_heuristics_preserve_the_solution_set():
    m = build_all_interval(5)
    base, _ = solve(m)
    for var_order in ("input", "min-domain"):
        for val_order in ("ascending", "descending"):
            sols, _ = solve(m, SearchConfig(var_order=var_order, val_order=val_order))
            assert sorted(sols) == sorted(base), (var_order, val_order)


def test_descending_reverses_pure_enumeration():
    m = _plain_model(2, 3)
    up, _ = solve(m)
    down, _ = solve(m, SearchConfig(val_order="descending"))
    assert down == up[::-1]


# --- getree value filtering -------------------------------------------------


def test_getree_explicit_filters_inverted_pairs():
    # all-interval symmetries: the value subgroup is {id, v -> 10 - v}, so an
    # empty partial allows only the lower half (plus the fixed point 5)
    m = build_all_interval(11)
    doms = m.initial_domains()
    group, scope = break_group(m, "getree"), set(m.symmetry_scope)
    assert getree_allowed_values([], 0, group, doms, scope) == [0, 1, 2, 3, 4, 5]


def test_getree_explicit_stabilizer_relaxes_after_moving_value():
    m = build_all_interval(11)
    doms = m.initial_domains()
    group, scope = break_group(m, "getree"), set(m.symmetry_scope)
    # deciding 4 kills the inversion (4 is not fixed by v -> 10 - v)
    assert getree_allowed_values([(0, 4)], 1, group, doms, scope) == list(range(11))
    # deciding the fixed point 5 keeps the inversion in the stabilizer
    assert getree_allowed_values([(0, 5)], 1, group, doms, scope) == [0, 1, 2, 3, 4, 5]


def test_getree_classes_allow_used_plus_one_fresh():
    spec = SymmetrySpec(
        scope_len=4, universe_size=4, interchangeable_classes=((0, 1, 2, 3),)
    )
    group, scope = spec.class_product(), set(range(4))
    doms = [mask_of(range(4)) for _ in range(4)]
    assert getree_allowed_values([], 0, group, doms, scope) == [0]
    assert getree_allowed_values([(0, 0), (1, 1)], 2, group, doms, scope) == [0, 1, 2]
    # a hole in the domain shifts the fresh representative
    doms[3] = mask_of([1, 3])
    assert getree_allowed_values([(0, 0)], 3, group, doms, scope) == [1]


def test_getree_classes_pass_through_non_class_values():
    spec = SymmetrySpec(
        scope_len=2, universe_size=4, interchangeable_classes=((1, 2),)
    )
    doms = [mask_of(range(4)), mask_of(range(4))]
    assert getree_allowed_values([], 0, spec.class_product(), doms, {0, 1}) == [0, 1, 3]


def test_getree_ignores_vars_outside_scope():
    m = build_all_interval(11)
    doms = m.initial_domains()
    diff_var = 11  # first difference variable
    group, scope = break_group(m, "getree"), set(m.symmetry_scope)
    vals = getree_allowed_values([], diff_var, group, doms, scope)
    assert vals == list(values_of(doms[diff_var]))


def _value_permutation_beside_a_class(rng):
    """A random model declaring a value permutation and a value class; one in
    three also declares a variable swap, under an all-different on the scope."""
    n, m = rng.randint(2, 4), rng.randint(3, 5)
    k = rng.randint(2, m - 1)
    cls = tuple(sorted(rng.sample(range(m), k)))
    image = list(range(m))
    rng.shuffle(image)
    explicit = [VarValueSymmetry.value_only(n, ValuePermutation(tuple(image)))]
    constraints = [
        Constraint(ConstraintKind.NOT_EQUAL, (i, j))
        for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4
    ]
    if rng.random() < 1 / 3:
        explicit.append(VarValueSymmetry.variable_only((1, 0) + tuple(range(2, n)), m))
        constraints.append(Constraint(ConstraintKind.ALL_DIFFERENT, tuple(range(n))))
    return Model(
        name="value-permutation-and-class",
        universe_size=m,
        domains=((1 << m) - 1,) * n,
        constraints=tuple(constraints),
        symmetry=SymmetrySpec(n, m, tuple(explicit), (cls,)),
        symmetry_scope=tuple(range(n)),
    )


def test_getree_breaks_the_value_subgroup_beside_a_class():
    # getree filters on the enumerated value subgroup of everything declared,
    # so an explicit value permutation and a class may be declared together
    rng = random.Random(1212)
    for _ in range(40):
        m = _value_permutation_beside_a_class(rng)
        assert applicable_modes(m)[-1] == "getree"
        for var_order in ("input", "min-domain"):
            for val_order in ("ascending", "descending"):
                config = SearchConfig(var_order=var_order, val_order=val_order)
                passed, reports, _ = verify_symmetry_breaking(m, ["getree"], config)
                assert passed, (m.symmetry, var_order, val_order, reports)


def test_break_group_is_structural_exactly_for_the_class_product():
    classes_only = build_coloring(3, TRIANGLE, 3)
    for mode in ("none", "static-lex", "precedence", "channel", "getree"):
        assert break_group(classes_only, mode) == classes_only.symmetry.class_product(), mode
    mixed = _both_sources_model()
    assert break_group(mixed, "precedence") == mixed.symmetry.class_product()
    assert break_group(mixed, "static-lex") == list(mixed.symmetry.closed_group())
    explicit_only = build_all_interval(5)
    assert break_group(explicit_only, "none") == list(explicit_only.symmetry.closed_group())
    assert break_group(explicit_only, "getree") == [
        g for g in explicit_only.symmetry.closed_group() if g.theta_is_identity
    ]
    assert break_group(_plain_model(), "none") == []
    with pytest.raises(UnsupportedModeError):
        break_group(explicit_only, "channel")


def test_verify_none_names_what_needs_the_whole_group():
    # an explicit swap beside a class of 8 values: orbit checks of mode none
    # enumerate the whole group, whose class part is past the cap
    swap = VarValueSymmetry.value_only(2, ValuePermutation(tuple(range(8)) + (9, 8)))
    model = Model(
        name="swap-and-class",
        universe_size=10,
        domains=((1 << 10) - 1,) * 2,
        constraints=(),
        symmetry=SymmetrySpec(
            scope_len=2,
            universe_size=10,
            explicit=(swap,),
            interchangeable_classes=(tuple(range(8)),),
        ),
        symmetry_scope=(0, 1),
    )
    with pytest.raises(GroupTooLarge) as exc:
        verify_symmetry_breaking(model, ["none"])
    msg = str(exc.value)
    assert "whole symmetry group" in msg and "orbit checks" in msg
    assert "up to 7 values" in msg and "class of 8" in msg
    assert not msg.startswith("static-lex")


# --- mode applicability and compare_methods ----------------------------------


def test_applicable_modes_by_symmetry_shape():
    assert applicable_modes(_plain_model()) == []
    assert applicable_modes(build_all_interval(5)) == ["static-lex", "getree"]
    assert applicable_modes(build_coloring(3, TRIANGLE, 3)) == [
        "static-lex",
        "precedence",
        "channel",
        "getree",
    ]
    assert applicable_modes(_both_sources_model()) == [
        "static-lex",
        "precedence",
        "channel",
        "getree",
    ]
    # a class of 8 values is past the enumerated group's cap: static-lex is
    # left out, and getree over the class needs no enumerated group
    assert applicable_modes(build_pigeonhole(7)) == ["precedence", "channel", "getree"]


def test_unsupported_modes_raise():
    plain = _plain_model()
    for mode in ("static-lex", "getree"):
        with pytest.raises(UnsupportedModeError):
            solve(plain, SearchConfig(symmetry_mode=mode))
    explicit_only = build_all_interval(5)
    for mode in ("precedence", "channel"):
        with pytest.raises(UnsupportedModeError):
            solve(explicit_only, SearchConfig(symmetry_mode=mode))


SPEC_SHAPES = {
    "no-symmetry": _plain_model,
    "classes-only": lambda: build_coloring(3, TRIANGLE, 3),
    "explicit-only": lambda: build_all_interval(5),
    "both": _both_sources_model,
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("shape", sorted(SPEC_SHAPES))
def test_mode_rules_agree(shape, mode):
    # solve, break_group and applicable_modes read one precondition per mode
    model = SPEC_SHAPES[shape]()
    supported = mode == "none" or mode in applicable_modes(model)
    config = SearchConfig(symmetry_mode=mode, solution_limit=1)
    if supported:
        solve(model, config)
        break_group(model, mode)
    else:
        with pytest.raises(UnsupportedModeError):
            solve(model, config)
        with pytest.raises(UnsupportedModeError):
            break_group(model, mode)


def test_model_rejects_a_domain_holding_part_of_a_class():
    # class (0, 1, 2) with x0 in {1}: the class's permutations do not map the
    # domains onto each other, so the class-based modes would lose solutions
    m = _plain_model(2, 3, [Constraint(ConstraintKind.NOT_EQUAL, (0, 1))])
    spec = SymmetrySpec(scope_len=2, universe_size=3, interchangeable_classes=((0, 1, 2),))
    with pytest.raises(ModelError, match="var 0 holds part of interchangeable class"):
        replace(m, domains=(0b010, 0b111), symmetry=spec)
    # a domain may hold a class wholly or not at all
    spec = SymmetrySpec(scope_len=2, universe_size=3, interchangeable_classes=((1, 2),))
    assert replace(m, domains=(0b001, 0b110), symmetry=spec).domains == (0b001, 0b110)


def test_model_rejects_a_symmetry_scope_that_repeats_a_variable():
    # accepted, scope (0, 0) made verify report every breaking mode as FAIL:
    # 2 solutions over 1 orbit
    m = _plain_model(2, 2)
    spec = SymmetrySpec(scope_len=2, universe_size=2, interchangeable_classes=((0, 1),))
    with pytest.raises(ModelError, match="symmetry scope repeats a variable"):
        replace(m, symmetry=spec, symmetry_scope=(0, 0))


@pytest.mark.parametrize("bad", [{0, 1}, 0, -1, 1 << 3], ids=["set", "empty", "negative", "above"])
def test_model_rejects_bad_domain_masks(bad):
    # universe_size 3: a valid mask is a non-zero int below 1 << 3
    m = _plain_model(2, 3)
    with pytest.raises(ModelError):
        replace(m, domains=(0b111, bad))
    assert replace(m, domains=(0b111, 0b010)).domains == (0b111, 0b010)


def test_compare_methods_needs_two_distinct_modes():
    m = build_coloring(3, TRIANGLE, 3)
    with pytest.raises(ValueError):
        compare_methods(m, ["none"])
    with pytest.raises(ValueError):
        compare_methods(m, ["none", "none"])


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(var_order="static")
    with pytest.raises(ValueError):
        SearchConfig(val_order="up")
    with pytest.raises(ValueError):
        SearchConfig(symmetry_mode="lex")
    with pytest.raises(ValueError):
        SearchConfig(solution_limit=0)


@pytest.mark.parametrize("budget", [0, -5])
def test_config_rejects_a_non_positive_budget(budget):
    with pytest.raises(ValueError, match="enumeration_budget must be positive"):
        SearchConfig(enumeration_budget=budget)
    assert SearchConfig(enumeration_budget=1).enumeration_budget == 1
    assert SearchConfig().enumeration_budget is None


def test_compare_methods_hands_up_the_completed_modes_with_the_budget_error():
    model = build_all_interval(8)
    with pytest.raises(BudgetExceeded) as exc:
        compare_methods(model, ["static-lex", "none"], SearchConfig(enumeration_budget=300))
    (done,) = exc.value.completed
    assert (done.mode, done.stats.nodes, exc.value.mode) == ("static-lex", 139, "none")
    want, _ = solve(model, SearchConfig(symmetry_mode="static-lex"))
    assert done.solutions == want


def test_min_domain_picks_smallest_open_domain():
    # two-var model where min-domain must branch the second variable first:
    # with descending values its solutions come out ordered by var 1
    m = _plain_model(2, 3, [Constraint(ConstraintKind.NOT_EQUAL, (0, 1))])
    doms = list(m.domains)
    doms[1] = mask_of([0, 1])
    m = Model(
        name="uneven",
        universe_size=3,
        domains=tuple(doms),
        constraints=m.constraints,
        symmetry=m.symmetry,
        symmetry_scope=m.symmetry_scope,
    )
    input_first, _ = solve(m)
    min_dom_first, _ = solve(m, SearchConfig(var_order="min-domain"))
    assert sorted(input_first) == sorted(min_dom_first)
    assert input_first[0] == (0, 1)   # var 0 enumerated first
    assert min_dom_first[0] == (1, 0)  # var 1 enumerated first


# the attributes bench/tracer.py patches on valsym.search to count work
TRACED_ENTRY_POINTS = (
    "getree_allowed_values",
    "propagate_to_fixpoint",
    "copy_domains",
    "check_all",
    "orbit_partition",
)


def test_search_calls_the_traced_entry_points_through_the_module(monkeypatch):
    # a call through a bound reference would bypass the tracer's patch and
    # read as zero work, which its integrity check cannot see
    calls = dict.fromkeys(TRACED_ENTRY_POINTS, 0)
    for name in TRACED_ENTRY_POINTS:
        def counting(*args, _name=name, _fn=getattr(search, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(search, name, counting)
    model = build_all_interval(6)
    solve(model, SearchConfig(symmetry_mode="getree"))
    assert all(calls[name] > 0 for name in TRACED_ENTRY_POINTS if name != "orbit_partition"), calls
    before = dict(calls)
    verify_symmetry_breaking(model, ["getree"])
    assert all(calls[name] > before[name] for name in TRACED_ENTRY_POINTS), calls
