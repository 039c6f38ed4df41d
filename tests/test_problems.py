import random

import pytest

from oracles import constraint_holds, model_solutions
from valsym.errors import DimacsParseError, GroupTooLarge, ModelError
from valsym.model import ConstraintKind
from valsym.problems import (
    build_all_interval,
    build_coloring,
    build_coloring_from_dimacs,
    build_pigeonhole,
    parse_dimacs,
    random_interchangeable_model,
)
from valsym.search import SearchConfig, applicable_modes, solve
from valsym.symmetry import SymmetrySpec

TRIANGLE_DIMACS = """c triangle
p edge 3 3
e 1 2
e 2 3
e 1 3
"""

# measured once with input-order branching and frozen; any drift in these
# counts means the dynamic filtering or the family definition changed
GETREE_BRANCHES = {
    4: 11, 5: 19, 6: 32, 7: 53, 8: 87, 9: 142, 10: 231, 11: 375, 12: 608,
}


def test_all_interval_shape():
    m = build_all_interval(7)
    assert m.num_vars == 13
    assert m.symmetry_scope == tuple(range(7))
    kinds = [c.kind for c in m.constraints]
    assert kinds.count(ConstraintKind.ALL_DIFFERENT) == 2
    assert kinds.count(ConstraintKind.ABS_DIFF) == 6
    assert len(m.symmetry.explicit) == 2


def test_all_interval_range_validation():
    with pytest.raises(ModelError):
        build_all_interval(2)
    with pytest.raises(ModelError):
        build_all_interval(15)


def test_all_interval_diffs_recorded_per_solution():
    m = build_all_interval(4)
    sols = model_solutions(m)
    assert sols
    for sol in sols:
        series, diffs = sol[:4], sol[4:]
        assert sorted(series) == [0, 1, 2, 3]
        assert sorted(diffs) == [1, 2, 3]
        assert all(abs(series[i] - series[i + 1]) == diffs[i] for i in range(3))


def test_coloring_counts_and_dedup():
    m = build_coloring(3, [(0, 1), (1, 0), (1, 2), (0, 2)], 3)
    assert m.params["edges"] == 3  # (0,1) listed twice
    sols, _ = solve(m)
    assert len(sols) == 6


def test_coloring_validation():
    with pytest.raises(ModelError):
        build_coloring(3, [(0, 3)], 2)
    with pytest.raises(ModelError):
        build_coloring(3, [(1, 1)], 2)
    with pytest.raises(ModelError):
        build_coloring(0, [], 2)
    with pytest.raises(ModelError):
        build_coloring(3, [], 0)


def test_parse_dimacs_reads_triangle():
    n, edges = parse_dimacs(TRIANGLE_DIMACS)
    assert n == 3
    assert edges == [(0, 1), (1, 2), (0, 2)]


def test_dimacs_round_trip_to_model():
    m = build_coloring_from_dimacs(TRIANGLE_DIMACS, 3)
    sols, _ = solve(m, SearchConfig(symmetry_mode="precedence"))
    assert sols == [(0, 1, 2)]


@pytest.mark.parametrize(
    "text,line_no,fragment",
    [
        ("e 1 2\n", 1, "before problem line"),
        ("p edge 3 0\np edge 3 0\n", 2, "second problem line"),
        ("p graph 3 0\n", 1, "expected 'p edge V E'"),
        ("p edge x 0\n", 1, "bad counts"),
        ("p edge 0 0\n", 1, "positive"),
        ("p edge 3 1\ne 1\n", 2, "expected 'e u v'"),
        ("p edge 3 1\ne 1 x\n", 2, "bad vertex"),
        ("p edge 3 1\ne 1 4\n", 2, "out of range"),
        ("p edge 3 1\ne 2 2\n", 2, "self-loop"),
        ("p edge 3 1\nq 1 2\n", 2, "unrecognized"),
        ("c nothing here\n", 1, "missing problem line"),
        ("p edge 3 2\ne 1 2\n", 1, "declares 2 edges, found 1"),
    ],
)
def test_dimacs_errors_carry_line_numbers(text, line_no, fragment):
    with pytest.raises(DimacsParseError) as exc:
        parse_dimacs(text)
    assert exc.value.line_no == line_no
    assert fragment in str(exc.value)
    assert f"line {line_no}:" in str(exc.value)


def test_dimacs_skips_comments_and_blanks():
    n, edges = parse_dimacs("c a\n\nc b\np edge 2 1\n\ne 1 2\n")
    assert n == 2 and edges == [(0, 1)]


# --- pigeonhole family --------------------------------------------------------


def test_pigeonhole_range_validation():
    with pytest.raises(ModelError):
        build_pigeonhole(1)
    with pytest.raises(ModelError):
        build_pigeonhole(21)


def test_pigeonhole_is_unsat_in_every_mode():
    for n in (2, 3, 4, 5):
        m = build_pigeonhole(n)
        for mode in ["none"] + applicable_modes(m):
            sols, _ = solve(m, SearchConfig(symmetry_mode=mode))
            assert sols == [], (n, mode)


def test_pigeonhole_static_lex_group_grows_past_cap():
    m = build_pigeonhole(8)  # 9 interchangeable values
    with pytest.raises(GroupTooLarge):
        solve(m, SearchConfig(symmetry_mode="static-lex"))


def test_pigeonhole_precedence_fails_at_the_root():
    for n in range(4, 13):
        _, stats = solve(build_pigeonhole(n), SearchConfig(symmetry_mode="precedence"))
        assert stats.nodes == 1 and stats.failures == 1, n


def test_pigeonhole_getree_branch_counts_frozen():
    for n, want in GETREE_BRANCHES.items():
        _, stats = solve(build_pigeonhole(n), SearchConfig(symmetry_mode="getree"))
        assert stats.branches == want, n


def test_pigeonhole_getree_growth_is_exponential():
    ratios = [
        GETREE_BRANCHES[n + 1] / GETREE_BRANCHES[n] for n in range(4, 12)
    ]
    assert all(r >= 1.5 for r in ratios)


def test_pigeonhole_unsat_core_is_value_independent():
    # permuting values cannot make the family satisfiable: spot-check by
    # enumerating n=3 fully
    m = build_pigeonhole(3)
    assert model_solutions(m) == []


# --- random model generator ---------------------------------------------------


def test_random_models_respect_bounds_and_solutions_permute():
    rng = random.Random(11)
    for _ in range(30):
        m = random_interchangeable_model(rng, max_vars=5, max_values=4)
        n, u = m.num_vars, m.universe_size
        assert 2 <= n <= 5 and 2 <= u <= 4
        assert m.symmetry.interchangeable_classes == (tuple(range(u)),)
        sols = set(model_solutions(m))
        perm = list(range(u))
        rng.shuffle(perm)
        for s in sols:
            image = tuple(perm[v] for v in s)
            assert image in sols  # full value interchangeability is genuine


def test_random_model_constraints_hold_on_enumeration():
    rng = random.Random(3)
    m = random_interchangeable_model(rng, max_vars=4, max_values=3)
    for s in model_solutions(m):
        assert all(constraint_holds(c, s) for c in m.constraints)


# --- one-class layout ---------------------------------------------------------


@pytest.mark.parametrize(
    "build, n, m",
    [
        (lambda: build_coloring(4, [(0, 1), (2, 3)], 3), 4, 3),
        (lambda: build_pigeonhole(5), 5, 6),
        (lambda: random_interchangeable_model(random.Random(9), 6, 4), 5, 4),
    ],
    ids=["coloring", "pigeonhole", "random-interchangeable"],
)
def test_one_class_families_share_the_layout(build, n, m):
    model = build()
    assert model.domains == ((1 << m) - 1,) * n
    assert model.symmetry_scope == tuple(range(n))
    assert model.symmetry == SymmetrySpec(n, m, interchangeable_classes=(tuple(range(m)),))
