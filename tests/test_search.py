import inspect
import itertools
import random
from collections import Counter
from dataclasses import asdict, fields, replace

import pytest

from oracles import getree_allowed_values_by_path, model_solutions, naive_all_interval, verify_per_mode
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
from valsym.propagators import NotEqualProp, build_propagators
from valsym.search import (
    MODES,
    SearchConfig,
    SearchStats,
    applicable_modes,
    break_group,
    compare_methods,
    default_budget,
    getree_allowed_values,
    solve,
    verify_symmetry_breaking,
)
from valsym.symmetry import (
    VALUE_MAP_CAP,
    ClassProduct,
    SymmetrySpec,
    ValuePermutation,
    VarValueSymmetry,
    close_group,
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


def test_verify_fails_a_mode_that_returns_a_solution_outside_the_none_set(monkeypatch):
    m = build_all_interval(5)
    stray = (0,) * m.num_vars  # a repeated series value: no solution
    real_solve = search.solve

    def unsound_solve(model, config=None):
        sols, stats = real_solve(model, config)
        if config is not None and config.symmetry_mode == "static-lex":
            sols = sols + [stray]
        return sols, stats

    monkeypatch.setattr(search, "solve", unsound_solve)
    passed, reports, _ = verify_symmetry_breaking(m, ["static-lex", "getree"])
    by_mode = {r.mode: r for r in reports}
    lex = by_mode["static-lex"]
    assert not passed and not lex.passed and by_mode["getree"].passed
    assert lex.solution_count == 3  # the two canonical solutions and the stray one
    assert lex.duplicate_orbits == [] and lex.missed_orbits == [] and lex.non_canonical == []


CLASS_MODES = ["static-lex", "precedence", "channel", "getree"]


@pytest.mark.parametrize("n", range(3, 8))
def test_verify_matches_a_partition_per_mode_on_all_interval(n):
    m = build_all_interval(n)
    modes = ["none", "static-lex", "getree"]
    passed, reports, _ = verify_symmetry_breaking(m, modes)
    assert reports == verify_per_mode(m, modes)
    assert passed == all(r.passed for r in reports)


def test_verify_matches_a_partition_per_mode_on_random_models():
    rng = random.Random(25)
    for _ in range(12):
        m = random_interchangeable_model(rng, max_vars=5, max_values=3)
        modes = ["none", *CLASS_MODES]
        for config in (None, SearchConfig(var_order="min-domain")):
            _, reports, _ = verify_symmetry_breaking(m, modes, config)
            assert reports == verify_per_mode(m, modes, config), m.describe()


def test_an_unsound_mode_does_not_spoil_the_sibling_sharing_its_orbits(monkeypatch):
    # precedence and channel break the same class product, so they read one
    # orbit partition; only precedence returns a stray and a repeated orbit
    m = build_coloring(4, [(0, 1), (1, 2), (2, 3)], 3)
    stray = (0,) * m.num_vars  # adjacent vertices share a colour: no solution
    real_solve = search.solve

    def unsound_solve(model, config=None):
        sols, stats = real_solve(model, config)
        if config is not None and config.symmetry_mode == "precedence":
            sols = sols + [stray, (1, 0, 1, 0)]
        return sols, stats

    monkeypatch.setattr(search, "solve", unsound_solve)
    modes = ["precedence", "channel"]
    passed, reports, _ = verify_symmetry_breaking(m, modes)
    assert reports == verify_per_mode(m, modes)
    prec, chan = reports
    assert not passed and not prec.passed and chan.passed
    assert prec.solution_count == chan.solution_count + 2 == prec.orbit_count + 2
    # the two-colour orbit: precedence found its canonical member and the extra one
    assert prec.duplicate_orbits == [[(0, 1, 0, 1), (0, 2, 0, 2), (1, 0, 1, 0),
                                      (1, 2, 1, 2), (2, 0, 2, 0), (2, 1, 2, 1)]]
    assert prec.non_canonical == [(1, 0, 1, 0)] and prec.missed_orbits == []
    assert chan.solution_count == chan.orbit_count
    assert chan.duplicate_orbits == [] and chan.missed_orbits == [] and chan.non_canonical == []


def test_verify_partitions_each_distinct_group_once(monkeypatch):
    # bench/tracer.py times orbit work by patching search.orbit_partition
    calls = []
    real = search.orbit_partition
    monkeypatch.setattr(search, "orbit_partition", lambda *args: calls.append(1) or real(*args))
    # static-lex breaks the whole group of 4 elements, getree its value subgroup
    verify_symmetry_breaking(build_all_interval(6), ["static-lex", "getree"])
    assert len(calls) == 2
    calls.clear()
    # none and static-lex both break the whole group, given by its generators
    verify_symmetry_breaking(build_all_interval(6), ["none", "static-lex"])
    assert len(calls) == 1
    calls.clear()
    # every class mode breaks the one class product
    verify_symmetry_breaking(build_coloring(4, [(0, 1), (1, 2), (2, 3)], 3), CLASS_MODES)
    assert len(calls) == 1


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


def test_a_leaf_that_only_the_leaf_check_rejects_is_a_failure(monkeypatch):
    # with not-equal pruning nothing, every one of the 27 full assignments of
    # a triangle in 3 colours is a leaf; the exact leaf check keeps the 6
    # proper colourings and each of the other 21 leaves counts as a failure
    m = build_coloring(3, TRIANGLE, 3)
    want, stats = solve(m)
    assert (stats.nodes, stats.failures) == (10, 0)
    monkeypatch.setattr(NotEqualProp, "propagate", lambda self, domains: (False, []))
    got, stats = solve(m)
    assert got == want and len(got) == 6
    assert (stats.nodes, stats.failures, stats.solutions) == (40, 21, 6)


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
    ("all-interval-7", "static-lex", (46, 45, 27, 8, 703)),
    ("all-interval-7", "getree", (76, 75, 39, 16, 947)),
    ("graph-12", "none", (151, 150, 48, 48, 606)),
    ("graph-12", "static-lex", (26, 25, 8, 8, 123)),
    ("graph-12", "precedence", (26, 25, 8, 8, 123)),
    ("graph-12", "channel", (26, 25, 8, 8, 145)),
    ("graph-12", "getree", (28, 27, 8, 8, 103)),
    ("pigeonhole-6", "precedence", (1, 0, 1, 0, 7)),
    ("pigeonhole-6", "channel", (1, 0, 1, 0, 9)),
    ("pigeonhole-6", "getree", (33, 32, 13, 0, 84)),
    ("graph-40", "precedence", (53, 52, 15, 12, 236)),
    ("graph-40", "channel", (53, 52, 15, 12, 246)),
    ("all-interval-8", "none", (449, 448, 284, 40, 6043)),
    ("all-interval-8", "static-lex", (139, 138, 95, 10, 2251)),
    ("k4-6", "static-lex", (1, 0, 0, 1, 6)),
    ("path-5", "static-lex", (23, 22, 0, 15, 48)),
]

_PINNED_MODELS = {
    "all-interval-7": lambda: build_all_interval(7),
    "all-interval-8": lambda: build_all_interval(8),
    "graph-12": lambda: build_coloring(12, PINNED_GRAPH, 3),
    "graph-40": lambda: build_coloring(40, PINNED_GRAPH_40, 3),
    "pigeonhole-6": lambda: build_pigeonhole(6),
    # one class of 6 and of 5 colours: 719 and 119 lex-leader elements
    "k4-6": lambda: build_coloring(4, list(itertools.combinations(range(4), 2)), 6),
    "path-5": lambda: build_coloring(5, [(i, i + 1) for i in range(4)], 5),
}


@pytest.mark.parametrize("model,mode,want", PINNED_COUNTS)
def test_search_counters_are_pinned(model, mode, want):
    _, stats = solve(_PINNED_MODELS[model](), SearchConfig(symmetry_mode=mode))
    got = (stats.nodes, stats.branches, stats.failures, stats.solutions, stats.propagation_calls)
    assert got == want


# The all-interval n = 10 table of the ROADMAP baseline, all solutions, in
# the same counts as PINNED_COUNTS. "full" declares reversal and inversion,
# "value-only" inversion alone. Mode none ignores the group, so it runs once;
# getree breaks the value subgroup, which both groups share.
ALL_INTERVAL_10_COUNTS = [
    ("full", "input", "none", (4369, 4368, 2858, 296, 70331)),
    ("full", "input", "static-lex", (1462, 1461, 1011, 74, 27294)),
    ("full", "input", "getree", (2185, 2184, 1429, 148, 35171)),
    ("value-only", "input", "static-lex", (2185, 2184, 1429, 148, 39482)),
    ("value-only", "input", "getree", (2185, 2184, 1429, 148, 35171)),
    ("full", "min-domain", "none", (26427, 26426, 15569, 296, 327977)),
    ("full", "min-domain", "static-lex", (2800, 2799, 1720, 74, 45702)),
    ("full", "min-domain", "getree", (19544, 19543, 9491, 148, 244258)),
    ("value-only", "min-domain", "static-lex", (2476, 2475, 1399, 148, 39985)),
    ("value-only", "min-domain", "getree", (19544, 19543, 9491, 148, 244258)),
]


@pytest.mark.parametrize("group,order,mode,want", ALL_INTERVAL_10_COUNTS)
def test_all_interval_10_table_is_pinned(group, order, mode, want):
    model = build_all_interval(10)
    if group == "value-only":
        inversion = model.symmetry.explicit[1]
        model = replace(model, symmetry=replace(model.symmetry, explicit=(inversion,)))
    _, stats = solve(model, SearchConfig(var_order=order, symmetry_mode=mode))
    got = (stats.nodes, stats.branches, stats.failures, stats.solutions, stats.propagation_calls)
    assert got == want


# A model builds its own propagators on its first solve and keeps them for
# every later one; each builder here makes a fresh, equal twin.
_CACHE_MODELS = {
    name: _PINNED_MODELS[name] for name in ("graph-12", "pigeonhole-6", "all-interval-8")
} | {"random": lambda: random_interchangeable_model(random.Random(9), 8, 4)}


def _run(model, mode):
    sols, stats = solve(model, SearchConfig(symmetry_mode=mode))
    counts = stats.as_dict()
    del counts["elapsed"]
    return sols, counts


@pytest.mark.parametrize("name", _CACHE_MODELS)
def test_solving_a_model_again_in_any_mode_matches_a_fresh_twin(name):
    build = _CACHE_MODELS[name]
    model = build()
    runs = ["none", *applicable_modes(model)] * 2
    random.Random(name).shuffle(runs)
    for mode in runs:
        assert _run(model, mode) == _run(build(), mode), (name, mode)
    assert model == build()
    assert repr(model) == repr(build())


@pytest.mark.parametrize("name", ["graph-12", "all-interval-8"])
def test_a_static_lex_solve_leaves_nothing_behind_for_none(name):
    model = _CACHE_MODELS[name]()
    solve(model, SearchConfig(symmetry_mode="static-lex"))
    _, stats = solve(model, SearchConfig())
    _, fresh = solve(_CACHE_MODELS[name](), SearchConfig())
    assert stats.propagation_calls == fresh.propagation_calls


# one model of each built-in family whose group closes
_FAMILY_MODELS = {
    "all-interval-6": lambda: build_all_interval(6),
    "coloring": lambda: build_coloring(12, PINNED_GRAPH, 4),
    "pigeonhole-4": lambda: build_pigeonhole(4),
    "random": lambda: random_interchangeable_model(random.Random(3), 6, 4),
}


@pytest.mark.parametrize("name", _FAMILY_MODELS)
def test_static_lex_posts_one_lex_leader_over_every_non_ordering_element(name):
    model = _FAMILY_MODELS[name]()
    own, _ = search._own_propagators(model)
    _, props, _ = search._prepare(model, "static-lex")
    extra = props[len(own):]
    lex = [p for p in extra if p.kind == "lex-leader"]
    orderings = [p for p in extra if p.kind == "ordering-chain"]
    assert len(lex) == 1 and len(lex) + len(orderings) == len(extra)
    spec = model.symmetry
    if spec.explicit:
        want = len(search._closed_group(spec)) - 1
    else:  # the transpositions of adjacent values of each class
        want = sum(len(cls) - 1 for cls in spec.interchangeable_classes)
    assert len(lex[0].elements) + len(orderings) == want


def test_static_lex_posts_no_lex_leader_when_every_element_is_an_ordering():
    # reversal alone, under the series all-different, posts first < last
    model = build_all_interval(8)
    reversal = model.symmetry.explicit[0]
    assert reversal.sigma.is_identity
    model = replace(model, symmetry=replace(model.symmetry, explicit=(reversal,)))
    own, _ = search._own_propagators(model)
    _, props, _ = search._prepare(model, "static-lex")
    assert [p.kind for p in props[len(own):]] == ["ordering-chain"]


def test_a_replaced_model_builds_its_own_propagators():
    model = _CACHE_MODELS["graph-12"]()
    solve(model, SearchConfig())
    fewer = model.constraints[:-3]
    solved_twin = replace(model, constraints=fewer)
    fresh_twin = replace(_CACHE_MODELS["graph-12"](), constraints=fewer)
    assert _run(solved_twin, "none") == _run(fresh_twin, "none")
    assert _run(solved_twin, "none")[0] != _run(model, "none")[0]


def test_repeated_not_equals_solve_as_their_deduplicated_twin():
    # the public Model API may list an edge twice, either way round
    edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (0, 4)]
    repeated = [(1, 0)] + edges + [(2, 1), (0, 1), (4, 0)]
    twin = build_coloring(5, edges, 3)
    model = replace(
        twin, constraints=tuple(Constraint(ConstraintKind.NOT_EQUAL, e) for e in repeated)
    )
    stars = {p.x: p.others for p in build_propagators(model)}
    assert all(len(set(others)) == len(others) for others in stars.values())
    assert {x: set(o) for x, o in stars.items()} == {
        p.x: set(p.others) for p in build_propagators(twin)
    }
    for mode in applicable_modes(twin):
        config = SearchConfig(symmetry_mode=mode)
        sols, stats = solve(model, config)
        want_sols, want = solve(twin, config)
        assert sols == want_sols and sols
        assert replace(stats, elapsed=0) == replace(want, elapsed=0), mode


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
    # all-interval symmetries: the value subgroup is {id, v -> 10 - v}, so
    # with nothing decided getree allows only the lower half (plus the fixed point 5)
    m = build_all_interval(11)
    doms = m.initial_domains()
    group, scope = break_group(m, "getree"), set(m.symmetry_scope)
    assert getree_allowed_values(0, 0, group, doms, scope) == [0, 1, 2, 3, 4, 5]


def test_getree_explicit_stabilizer_relaxes_after_moving_value():
    m = build_all_interval(11)
    doms = m.initial_domains()
    group, scope = break_group(m, "getree"), set(m.symmetry_scope)
    # deciding 4 kills the inversion (4 is not fixed by v -> 10 - v)
    assert getree_allowed_values(mask_of([4]), 1, group, doms, scope) == list(range(11))
    # deciding the fixed point 5 keeps the inversion in the stabilizer
    assert getree_allowed_values(mask_of([5]), 1, group, doms, scope) == [0, 1, 2, 3, 4, 5]


def test_getree_classes_allow_used_plus_one_fresh():
    spec = SymmetrySpec(
        scope_len=4, universe_size=4, interchangeable_classes=((0, 1, 2, 3),)
    )
    group, scope = spec.class_product(), set(range(4))
    doms = [mask_of(range(4)) for _ in range(4)]
    assert getree_allowed_values(0, 0, group, doms, scope) == [0]
    assert getree_allowed_values(mask_of([0, 1]), 2, group, doms, scope) == [0, 1, 2]
    # a hole in the domain shifts the fresh representative
    doms[3] = mask_of([1, 3])
    assert getree_allowed_values(mask_of([0]), 3, group, doms, scope) == [1]


def test_getree_classes_pass_through_non_class_values():
    spec = SymmetrySpec(
        scope_len=2, universe_size=4, interchangeable_classes=((1, 2),)
    )
    doms = [mask_of(range(4)), mask_of(range(4))]
    assert getree_allowed_values(0, 0, spec.class_product(), doms, {0, 1}) == [0, 1, 3]


def test_getree_ignores_vars_outside_scope():
    m = build_all_interval(11)
    doms = m.initial_domains()
    diff_var = 11  # first difference variable
    group, scope = break_group(m, "getree"), set(m.symmetry_scope)
    vals = getree_allowed_values(0, diff_var, group, doms, scope)
    assert vals == list(values_of(doms[diff_var]))


def _random_class_product(rng):
    # one to three disjoint classes, with values outside every class
    u = rng.randint(2, 10)
    values = list(range(u))
    rng.shuffle(values)
    classes, rest = [], values
    for _ in range(rng.randint(1, 3)):
        if len(rest) < 2:
            break
        k = rng.randint(2, min(4, len(rest)))
        classes.append(tuple(rest[:k]))
        rest = rest[k:]
    return ClassProduct(tuple(classes), u), u


def _random_value_group(rng):
    # the closure of one or two random value permutations
    n, u = rng.randint(1, 5), rng.randint(2, 6)
    gens = []
    for _ in range(rng.randint(1, 2)):
        image = list(range(u))
        rng.shuffle(image)
        gens.append(VarValueSymmetry.value_only(n, ValuePermutation(tuple(image))))
    return close_group(gens), u


def _random_getree_nodes(rng, u, count):
    """(partial, next_var, domains, scope) draws: decisions on scope variables
    and on others, and domains with holes."""
    num_vars = rng.randint(2, 8)
    scope = set(rng.sample(range(num_vars), rng.randint(1, num_vars)))
    for _ in range(count):
        partial = [(rng.randrange(num_vars), rng.randrange(u)) for _ in range(rng.randint(0, 4))]
        domains = [rng.randrange(1, 1 << u) for _ in range(num_vars)]
        yield partial, rng.randrange(num_vars), domains, scope


def test_getree_mask_filter_matches_the_path_filter():
    rng = random.Random(2626)
    groups = [_random_class_product(rng) for _ in range(60)]
    groups += [_random_value_group(rng) for _ in range(60)]
    for n in range(3, 9):
        m = build_all_interval(n)
        groups.append((break_group(m, "getree"), m.universe_size))
    for _ in range(20):
        m = _value_permutation_beside_a_class(rng)
        groups.append((break_group(m, "getree"), m.universe_size))
    pruned = Counter()
    for group, u in groups:
        for partial, var, domains, scope in _random_getree_nodes(rng, u, 25):
            decided = 0
            for v, val in partial:
                if v in scope:
                    decided |= 1 << val
            want = getree_allowed_values_by_path(partial, var, group, domains, scope)
            assert getree_allowed_values(decided, var, group, domains, scope) == want, (
                group, partial, var, domains, scope)
            pruned[type(group) is ClassProduct, want != list(values_of(domains[var]))] += 1
    # both kinds of group prune often, and often keep the whole domain
    assert len(pruned) == 4 and min(pruned.values()) > 100, pruned


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
    # none and static-lex break the whole group, returned as its generating set
    spec = mixed.symmetry
    assert break_group(mixed, "static-lex") == [*spec.explicit, *spec.class_swaps()]
    explicit_only = build_all_interval(5)
    assert break_group(explicit_only, "none") == list(explicit_only.symmetry.explicit)
    assert break_group(explicit_only, "getree") == [
        g for g in explicit_only.symmetry.closed_group() if g.theta_is_identity
    ]
    assert break_group(_plain_model(), "none") == []
    with pytest.raises(UnsupportedModeError):
        break_group(explicit_only, "channel")


def test_verify_none_names_what_needs_the_whole_group():
    # an explicit swap beside a class of 8 values: mode none's orbits come
    # from the generators, while static-lex and getree enumerate the whole
    # group, whose class part is past the cap
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
    passed, (report,), _ = verify_symmetry_breaking(model, ["none"])
    # class-class equal or not, class-swapped, swapped-class, swapped-swapped equal or not
    assert (report.solution_count, report.orbit_count) == (100, 6)
    assert not passed and len(report.duplicate_orbits) == 6
    for mode in ("static-lex", "getree"):
        with pytest.raises(GroupTooLarge) as exc:
            verify_symmetry_breaking(model, [mode])
        msg = str(exc.value)
        assert "whole symmetry group" in msg and "orbit checks" not in msg, mode
        assert f"up to {VALUE_MAP_CAP} entries, got {40_320 * 10}" in msg, mode


def test_verify_none_refuses_wide_class_swaps_before_building_a_value_map(monkeypatch):
    # a variable swap beside a class of 1 000 values: mode none's generators
    # are the swap and 999 class transpositions of 1 000 entries each
    size = 1_000
    swap = VarValueSymmetry.variable_only((1, 0), size)
    model = Model(
        name="swap-beside-a-wide-class",
        universe_size=size,
        domains=((1 << size) - 1,) * 2,
        constraints=(),
        symmetry=SymmetrySpec(2, size, (swap,), (tuple(range(size)),)),
        symmetry_scope=(0, 1),
    )

    def refuse(self):
        raise AssertionError("a value map was built")

    monkeypatch.setattr(ValuePermutation, "__post_init__", refuse)
    for check in (lambda: break_group(model, "none"), lambda: verify_symmetry_breaking(model, ["none"])):
        with pytest.raises(GroupTooLarge) as exc:
            check()
        assert (exc.value.size, exc.value.cap) == (999 * size, VALUE_MAP_CAP)
        assert f"up to {VALUE_MAP_CAP} entries, got {999 * size}" in str(exc.value)
    assert applicable_modes(model) == ["precedence", "channel"]


def test_verify_none_closes_no_group(monkeypatch):
    def refuse(spec):
        raise AssertionError("closed_group called")

    search._closed_group.cache_clear()  # a cached closure would hide the call
    monkeypatch.setattr(SymmetrySpec, "closed_group", refuse)
    passed, (report,), _ = verify_symmetry_breaking(build_all_interval(8), ["none"])
    # 40 solutions in 10 orbits of the group of 4
    assert (report.solution_count, report.orbit_count) == (40, 10) and not passed
    with pytest.raises(AssertionError, match="closed_group called"):
        verify_symmetry_breaking(build_all_interval(8), ["getree"])


def _latin_square(n):
    """Order-n Latin squares: row and column all-different over n * n cells,
    declaring the adjacent row and column swaps and one class of all values."""
    cells = [[r * n + c for c in range(n)] for r in range(n)]
    lines = cells + [list(col) for col in zip(*cells)]

    def swap(a, b, rows):
        theta = list(range(n * n))
        for k in range(n):
            i, j = (cells[a][k], cells[b][k]) if rows else (cells[k][a], cells[k][b])
            theta[i], theta[j] = j, i
        return VarValueSymmetry.variable_only(theta, n)

    swaps = [swap(a, a + 1, rows) for rows in (True, False) for a in range(n - 1)]
    return Model(
        name=f"latin-{n}",
        universe_size=n,
        domains=((1 << n) - 1,) * (n * n),
        constraints=tuple(Constraint(ConstraintKind.ALL_DIFFERENT, tuple(line)) for line in lines),
        symmetry=SymmetrySpec(n * n, n, tuple(swaps), (tuple(range(n)),)),
        symmetry_scope=tuple(range(n * n)),
    )


@pytest.mark.parametrize("n, squares, orbits", [(3, 12, 1), (4, 576, 2)])
def test_latin_squares_fall_into_their_isotopy_classes(n, squares, orbits):
    # isotopy classes of Latin squares (OEIS A040082): 1 of order 3, 2 of
    # order 4; at order 4 the group of 4!^3 elements is past GROUP_CAP
    passed, (report,), _ = verify_symmetry_breaking(_latin_square(n), ["none"])
    assert (report.solution_count, report.orbit_count) == (squares, orbits)
    assert not passed


def test_verify_raises_on_a_declared_element_that_is_no_symmetry():
    # swapping vertices 0 and 3 is not an automorphism of edges 0-1, 1-2,
    # 2-3, 0-2: it maps the colouring (0, 1, 2, 1) to (1, 1, 2, 0), where
    # vertices 0 and 1 share a colour
    swap = VarValueSymmetry.variable_only((3, 1, 2, 0), 3)
    model = build_coloring(4, [(0, 1), (1, 2), (2, 3), (0, 2)], 3)
    model = replace(model, symmetry=replace(model.symmetry, explicit=(swap,)))
    with pytest.raises(ModelError) as exc:
        verify_symmetry_breaking(model, ["none"])
    msg = str(exc.value)
    assert repr(swap) in msg and "(0, 1, 2, 1) to (1, 1, 2, 0)" in msg, msg


# --- mode applicability and compare_methods ----------------------------------


def _declared_model(n, m, explicit=(), classes=()):
    spec = SymmetrySpec(n, m, tuple(explicit), tuple(map(tuple, classes)))
    return replace(_plain_model(n, m), symmetry=spec)


def test_applicable_modes_by_symmetry_shape():
    reversal = [VarValueSymmetry.variable_only((2, 1, 0), 11)]
    shapes = {
        "trivial": (_plain_model(), []),
        "all-interval": (build_all_interval(5), ["static-lex", "getree"]),
        "classes": (build_coloring(3, TRIANGLE, 3), ["static-lex", "precedence", "channel", "getree"]),
        "both": (_both_sources_model(), ["static-lex", "precedence", "channel", "getree"]),
        "reversal": (_declared_model(3, 11, reversal), ["static-lex", "getree"]),
        # static-lex on a class of 8 values posts 7 transpositions, so it
        # runs; on c colours it holds c - 1 value maps of c entries, and past
        # 266 colours it is left out, while getree over the class needs no
        # element list
        "pigeonhole-7": (build_pigeonhole(7), ["static-lex", "precedence", "channel", "getree"]),
        **{
            f"edge-{c}": (build_coloring(2, [(0, 1)], c),
                          (["static-lex"] if c == 266 else []) + ["precedence", "channel", "getree"])
            for c in (266, 267, 300)
        },
        # a variable swap and an 8-cycle close to all 8! orders of 8 variables
        "variable-swaps": (_declared_model(8, 2, [
            VarValueSymmetry.variable_only((1, 0, 2, 3, 4, 5, 6, 7), 2),
            VarValueSymmetry.variable_only((1, 2, 3, 4, 5, 6, 7, 0), 2),
        ]), []),
        # reversal beside classes: 2 * 4! * 5! elements fit GROUP_CAP, 2 * 8!
        # do not, and neither do 2 * 6! * 5!
        "mixed-below": (_declared_model(3, 11, reversal, [range(4), range(6, 11)]),
                        ["static-lex", "precedence", "channel", "getree"]),
        "mixed-past": (_declared_model(3, 11, reversal, [range(8)]), ["precedence", "channel"]),
        "mixed-product-past": (_declared_model(3, 11, reversal, [range(6), range(6, 11)]),
                               ["precedence", "channel"]),
    }
    for shape, (model, expected) in shapes.items():
        assert applicable_modes(model) == expected, shape
        # they are exactly the modes solve runs, and break_group refuses the
        # others as solve does: same type, same message
        for mode in MODES[1:]:
            config = SearchConfig(symmetry_mode=mode, solution_limit=1)
            if mode in expected:
                solve(model, config)
                break_group(model, mode)
                continue
            with pytest.raises((UnsupportedModeError, GroupTooLarge)) as solved:
                solve(model, config)
            with pytest.raises((UnsupportedModeError, GroupTooLarge)) as broken:
                break_group(model, mode)
            assert (type(broken.value), str(broken.value)) == (type(solved.value), str(solved.value)), (
                shape, mode)


def test_stats_as_dict_matches_dataclasses_asdict():
    stats = SearchStats(**{f.name: i + 1 for i, f in enumerate(fields(SearchStats))})
    stats.elapsed = 0.25
    assert list(stats.as_dict().items()) == list(asdict(stats).items())


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


BAD_MODEL_FIELDS = {
    "constraint-var": ({"constraints": (Constraint(ConstraintKind.NOT_EQUAL, (0, 5)),)},
                       "constraint not-equal names unknown var 5"),
    "scope-var": ({"symmetry_scope": (0, 7)}, "symmetry scope names unknown var 7"),
    "scope-length": ({"symmetry_scope": (0,)}, "symmetry scope length mismatch"),
    "universe": ({"symmetry": SymmetrySpec(scope_len=2, universe_size=4)}, "symmetry universe mismatch"),
    # swapping x0 in {0} with x1 in {0, 1, 2} does not map domains onto domains
    "unpreserved-domains": (
        {"domains": (0b001, 0b111),
         "symmetry": SymmetrySpec(2, 3, (VarValueSymmetry.variable_only((1, 0), 3),))},
        r"declared symmetry does not preserve domains \(var 0 -> var 1\)",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_MODEL_FIELDS))
def test_model_rejects_an_inconsistent_field(case):
    fields, message = BAD_MODEL_FIELDS[case]
    with pytest.raises(ModelError, match=message):
        replace(_plain_model(2, 3), **fields)


def test_an_unknown_mode_is_refused():
    with pytest.raises(UnsupportedModeError, match="unknown mode 'bogus'"):
        break_group(build_coloring(3, TRIANGLE, 3), "bogus")


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


def test_getree_arguments_sit_where_the_tracer_reads_them(monkeypatch):
    # bench/tracer.py reads next_var as the 2nd and domains as the 4th
    # positional argument of getree_allowed_values
    params = list(inspect.signature(getree_allowed_values).parameters)
    assert params[1] == "next_var" and params[3] == "domains"
    seen = []

    def recording(*args, _fn=search.getree_allowed_values):
        allowed = _fn(*args)
        seen.append((args[3][args[1]], allowed))
        return allowed

    monkeypatch.setattr(search, "getree_allowed_values", recording)
    solve(build_all_interval(6), SearchConfig(symmetry_mode="getree"))
    assert seen
    for dom, allowed in seen:
        assert dom & (dom - 1) and allowed and mask_of(allowed) & ~dom == 0


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
