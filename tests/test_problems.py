import copy
import pickle
import random
from collections import Counter
from dataclasses import replace

import pytest

from oracles import (
    coloring_constraints_with_seen_set,
    constraint_holds,
    model_solutions,
    parse_dimacs_per_line_kind,
)
from valsym.errors import DimacsParseError, ModelError
from valsym.model import Constraint, ConstraintKind, Model
from valsym.problems import (
    build_all_interval,
    build_coloring,
    build_coloring_from_dimacs,
    build_pigeonhole,
    parse_dimacs,
    random_interchangeable_model,
)
from valsym.search import SearchConfig, applicable_modes, solve, verify_symmetry_breaking
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
        ("c a\nc b\np edge 3 2\ne 1 2\n", 3, "declares 2 edges, found 1"),
        ("c a\np edge 3 -1\ne 1 2\n", 2, "edge count must not be negative"),
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


_GAPS = (" ", "  ", "\t", " \t ", "\u00a0")
# each replaces one line of a well-formed text; {n} is the vertex count, {m} one more
_CORRUPT_LINES = (
    "e 1", "e 1 2 3", "e", "e x 2", "e 1 2.0", "e 0 1", "e 1 {m}", "e -1 2", "e 2 2", "e +1 ١",
    "e1 2", "E 1 2", "q 1 2", "pedge {n} 1", "p edge {n} 1", "p graph {n} 1", "p edge",
    "p edge x 1", "p edge {n} y", "p edge 0 0", "p edge -2 1", "p edge {n} -1", "comment",
    "c", "  c indented", "%",
)


def _dimacs_text(rng: random.Random) -> str:
    """A small DIMACS text: comments, blank and blank-looking lines, tabs and
    extra spaces anywhere, duplicate and reversed edges, and in about half of
    the texts one or two corrupted lines, a wrong edge count or no header."""
    n = rng.randint(1, 7)
    edges = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    picked = [rng.choice(edges) for _ in range(rng.randint(0, 10))] if edges else []
    gap = lambda: rng.choice(_GAPS)  # noqa: E731
    lead = lambda: rng.choice(("", "", " ", "\t"))  # noqa: E731
    count = len(picked) + (rng.choice((-1, 1)) if rng.random() < 0.1 else 0)
    lines = [f"{lead()}p{gap()}edge{gap()}{n}{gap()}{count}{lead()}"]
    lines += [f"{lead()}e{gap()}{u}{gap()}{v}{lead()}" for u, v in picked]
    for _ in range(rng.randint(0, 4)):
        filler = rng.choice(("c note", "c", "cc 1 2", "", "   ", "\t", f"c{gap()}p edge 1 1"))
        lines.insert(rng.randint(0, len(lines)), filler)
    if rng.random() < 0.5:
        for _ in range(rng.randint(1, 2)):
            bad = rng.choice(_CORRUPT_LINES).format(n=n, m=n + 1)
            lines[rng.randrange(len(lines))] = f"{lead()}{bad}{lead()}"
    if rng.random() < 0.05:  # no header, or an edge before it
        lines = [line for line in lines if "p" not in line]
    return rng.choice(("\n", "\r\n")).join(lines) + rng.choice(("\n", ""))


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (DimacsParseError, ModelError) as exc:
        return type(exc), getattr(exc, "line_no", None), str(exc)


def test_dimacs_parse_and_build_match_the_per_line_reference():
    """The parser that tests `e u v` lines first gives the reference's result
    or first error (type, line and message) on every text, and the builder
    the reference's constraints in the same order."""
    rng = random.Random(3232)
    outcomes = Counter()
    for _ in range(3000):
        text = _dimacs_text(rng)
        got = _outcome(parse_dimacs, text)
        assert got == _outcome(parse_dimacs_per_line_kind, text), text
        outcomes[got[0] == "ok"] += 1
        if got[0] == "ok":
            n, edges = got[1]
            model = build_coloring(n, edges, 3)
            want = tuple(coloring_constraints_with_seen_set(n, edges))
            assert model.constraints == want, text
            assert model.params["edges"] == len(want)
            assert build_coloring_from_dimacs(text, 3) == model
    assert min(outcomes.values()) > 1000, outcomes


def test_build_coloring_matches_the_seen_set_reference_on_raw_edges():
    """Edge lists straight from a caller, with reversed and repeated edges,
    self-loops and unknown vertices: the same constraints in the same order,
    or the same first ModelError."""
    rng = random.Random(3233)
    outcomes = Counter()
    for _ in range(3000):
        n = rng.randint(1, 6)
        edges = [(rng.randint(-1, n), rng.randint(-1, n)) for _ in range(rng.randint(0, 12))]
        if rng.random() < 0.7:  # mostly legal lists, so the orders get compared
            edges = [(u % n, v % n) for u, v in edges if u % n != v % n]
        got = _outcome(lambda: build_coloring(n, edges, 2).constraints)
        want = _outcome(lambda: tuple(coloring_constraints_with_seen_set(n, edges)))
        assert got == want, (n, edges)
        outcomes[got[0] == "ok"] += 1
    assert min(outcomes.values()) > 500, outcomes


def test_an_unknown_constraint_variable_names_the_first_offender():
    rng = random.Random(3234)
    kinds = [(ConstraintKind.NOT_EQUAL, 2), (ConstraintKind.ABS_DIFF, 3), (ConstraintKind.ALL_DIFFERENT, 4)]
    outcomes = Counter()
    for _ in range(500):
        n = rng.randint(4, 8)
        constraints = []
        for _ in range(rng.randint(1, 6)):
            kind, arity = rng.choice(kinds)
            scope = rng.sample(range(n), arity)
            if rng.random() < 0.2:
                scope[rng.randrange(arity)] = rng.choice((-1, n, n + 2))
            constraints.append(Constraint(kind, tuple(scope)))
        spec = SymmetrySpec(scope_len=0, universe_size=2)
        got = _outcome(Model, "m", 2, (0b11,) * n, tuple(constraints), spec, ())
        bad = [(c, v) for c in constraints for v in c.scope if not 0 <= v < n]
        if bad:
            c, v = bad[0]
            assert got == (ModelError, None, f"constraint {c.kind.value} names unknown var {v}")
        else:
            assert got[0] == "ok"
        outcomes[bool(bad)] += 1
    assert min(outcomes.values()) > 50, outcomes


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


def test_pigeonhole_precedence_fails_at_the_root():
    # static-lex posts the lex-leaders of the adjacent transpositions of the
    # n + 1 holes, whose conjunction is precedence: both fail at the root
    for n in range(4, 21):
        for mode in ("precedence", "static-lex"):
            _, stats = solve(build_pigeonhole(n), SearchConfig(symmetry_mode=mode))
            assert stats.nodes == 1 and stats.failures == 1, (n, mode)


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


# one model per built-in family; the one-vertex colouring has a one-variable
# symmetry scope, whose kept `project_scope` is a lambda
COPIED_MODELS = {
    "all-interval-6": lambda: build_all_interval(6),
    "pigeonhole-4": lambda: build_pigeonhole(4),
    "coloring-triangle": lambda: build_coloring_from_dimacs(TRIANGLE_DIMACS, 3),
    "coloring-one-vertex": lambda: build_coloring(1, [], 2),
    "random-interchangeable": lambda: random_interchangeable_model(random.Random(5)),
}


@pytest.mark.parametrize("used", [False, True], ids=["fresh", "after-verify"])
@pytest.mark.parametrize("name", list(COPIED_MODELS))
def test_a_model_pickles_and_deep_copies_to_an_equal_model(name, used):
    model = COPIED_MODELS[name]()
    modes = ["none"] + applicable_modes(model)
    if used:
        verify_symmetry_breaking(model, modes)
        assert "project_scope" in vars(model) and "_own_propagators" in vars(model)
    for copied in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
        assert copied == model and copied is not model
        for mode in modes:
            config = SearchConfig(symmetry_mode=mode)
            (got, got_stats), (want, want_stats) = solve(copied, config), solve(model, config)
            assert got == want
            assert replace(got_stats, elapsed=0) == replace(want_stats, elapsed=0)
