"""Built-in model families and the DIMACS graph reader."""

from __future__ import annotations

import random
from typing import Iterable

from .domains import mask_of
from .errors import DimacsParseError, ModelError
from .model import Constraint, ConstraintKind, Model
from .symmetry import SymmetrySpec, VarValueSymmetry, inversion_permutation

ALL_INTERVAL_MIN, ALL_INTERVAL_MAX = 3, 14
PIGEONHOLE_MIN, PIGEONHOLE_MAX = 2, 20
_NOT_EQUAL = ConstraintKind.NOT_EQUAL  # bound once: enum member lookup is slow


def build_all_interval(n: int) -> Model:
    """All-interval series: a permutation of 0..n-1 whose n-1 adjacent
    differences are all distinct.

    Variables 0..n-1 are the series, n..2n-2 the absolute differences. The
    declared symmetries are reversal of the series and value inversion
    v -> n-1-v; under the series' all-different, `static-lex` posts the
    ordering X_0 < X_{n-1} for reversal and one lex-leader that holds
    inversion and the composed element.
    """
    if not ALL_INTERVAL_MIN <= n <= ALL_INTERVAL_MAX:
        raise ModelError(f"all-interval n must be in [{ALL_INTERVAL_MIN}, {ALL_INTERVAL_MAX}]")
    series = tuple(range(n))
    diffs = tuple(range(n, 2 * n - 1))
    domains = [(1 << n) - 1] * n + [mask_of(range(1, n))] * (n - 1)
    constraints = [
        Constraint(ConstraintKind.ALL_DIFFERENT, series),
        Constraint(ConstraintKind.ALL_DIFFERENT, diffs),
    ]
    for i in range(n - 1):
        constraints.append(
            Constraint(ConstraintKind.ABS_DIFF, (series[i], series[i + 1], diffs[i]))
        )
    reversal = VarValueSymmetry.variable_only(tuple(range(n - 1, -1, -1)), n)
    inversion = VarValueSymmetry.value_only(n, inversion_permutation(n))
    spec = SymmetrySpec(
        scope_len=n, universe_size=n, explicit=(reversal, inversion)
    )
    return Model(
        name="all-interval",
        universe_size=n,
        domains=tuple(domains),
        constraints=tuple(constraints),
        symmetry=spec,
        symmetry_scope=series,
        params={"n": n},
    )


def parse_dimacs(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Read a DIMACS graph: one `p edge V E` line (V > 0, E >= 0), then E `e u v` lines,
    u != v in 1..V, repeats kept; `c` and blank lines skipped. Returns (V, 0-based edges)."""
    num_vertices = 0  # until the problem line, which declares at least one vertex
    edges: list[tuple[int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if len(parts) == 3 and parts[0] == "e" and num_vertices:
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise DimacsParseError(line_no, f"bad vertex in {raw.strip()!r}") from None
            if not (0 < u <= num_vertices and 0 < v <= num_vertices):
                raise DimacsParseError(line_no, f"vertex out of range in {raw.strip()!r}")
            if u == v:
                raise DimacsParseError(line_no, f"self-loop {raw.strip()!r}")
            edges.append((u - 1, v - 1))
        elif not parts or parts[0][0] == "c":
            continue
        elif parts[0] == "e":
            raise DimacsParseError(line_no, f"expected 'e u v', got {raw.strip()!r}"
                                   if num_vertices else "edge before problem line")
        elif parts[0] != "p":
            raise DimacsParseError(line_no, f"unrecognized line {raw.strip()!r}")
        elif num_vertices:
            raise DimacsParseError(line_no, "second problem line")
        elif len(parts) != 4 or parts[1] != "edge":
            raise DimacsParseError(line_no, f"expected 'p edge V E', got {raw.strip()!r}")
        else:
            try:
                num_vertices, declared_edges = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsParseError(line_no, f"bad counts in {raw.strip()!r}") from None
            if num_vertices <= 0:
                raise DimacsParseError(line_no, "vertex count must be positive")
            if declared_edges < 0:
                raise DimacsParseError(line_no, "edge count must not be negative")
            header_line = line_no
    if not num_vertices:
        raise DimacsParseError(1, "missing problem line")
    if declared_edges != len(edges):
        raise DimacsParseError(
            header_line, f"problem line declares {declared_edges} edges, found {len(edges)}"
        )
    return num_vertices, edges


def _one_class_model(
    name: str, num_vars: int, num_values: int, constraints: list[Constraint], params: dict
) -> Model:
    """num_vars variables, each over all of 0..num_values-1, every one in the
    symmetry scope, and all values forming one interchangeable class."""
    spec = SymmetrySpec(
        scope_len=num_vars,
        universe_size=num_values,
        interchangeable_classes=(tuple(range(num_values)),),
    )
    return Model(
        name=name,
        universe_size=num_values,
        domains=((1 << num_values) - 1,) * num_vars,
        constraints=tuple(constraints),
        symmetry=spec,
        symmetry_scope=tuple(range(num_vars)),
        params=params,
    )


def build_coloring(num_vertices: int, edges: Iterable[tuple[int, int]], num_colors: int) -> Model:
    """Graph coloring: adjacent vertices get different colors; all colors
    form one interchangeable class."""
    if num_colors <= 0:
        raise ModelError("need at least one color")
    if num_vertices <= 0:
        raise ModelError("need at least one vertex")
    distinct = {}  # (min, max) of each edge, in order of first appearance
    for u, v in edges:
        if not (0 <= u < num_vertices and 0 <= v < num_vertices):
            raise ModelError(f"edge ({u}, {v}) names unknown vertex")
        if u == v:
            raise ModelError(f"self-loop on vertex {u}")
        distinct[(u, v) if u < v else (v, u)] = None
    constraints = [Constraint(_NOT_EQUAL, key) for key in distinct]
    params = {"vertices": num_vertices, "edges": len(constraints), "colors": num_colors}
    return _one_class_model("coloring", num_vertices, num_colors, constraints, params)


def build_coloring_from_dimacs(text: str, num_colors: int) -> Model:
    num_vertices, edges = parse_dimacs(text)
    return build_coloring(num_vertices, edges, num_colors)


def build_pigeonhole(n: int) -> Model:
    """Unsatisfiable benchmark separating dynamic from static value-symmetry
    breaking.

    n variables range over n+1 fully interchangeable values. Non-adjacent
    variables must differ (propagating binaries), one lazy all-different
    covers the whole line, and a lazily evaluated disjunction demands some
    non-adjacent pair be equal, contradicting the all-different. A value
    precedence constraint collapses the whole model at the root; dynamic
    least-in-orbit branching still walks an exponential tree of adjacent
    repeats versus fresh values.
    """
    if not PIGEONHOLE_MIN <= n <= PIGEONHOLE_MAX:
        raise ModelError(f"pigeonhole n must be in [{PIGEONHOLE_MIN}, {PIGEONHOLE_MAX}]")
    scope = tuple(range(n))
    nonadjacent = [(i, j) for i in range(n) for j in range(i + 2, n)]
    constraints = [Constraint(_NOT_EQUAL, pair) for pair in nonadjacent]
    constraints.append(Constraint(ConstraintKind.LAZY_ALL_DIFFERENT, scope))
    constraints.append(
        Constraint(ConstraintKind.EQUALITY_DISJUNCTION, scope, {"pairs": tuple(nonadjacent)})
    )
    return _one_class_model("pigeonhole", n, n + 1, constraints, {"n": n})


def random_interchangeable_model(
    rng: random.Random,
    max_vars: int = 6,
    max_values: int = 4,
) -> Model:
    """Small random model whose only structure is variable patterns, so the
    declared full interchangeability of the values is genuine."""
    n = rng.randint(2, max_vars)
    m = rng.randint(2, max_values)
    constraints = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.35:
                constraints.append(Constraint(_NOT_EQUAL, (i, j)))
    if n >= 3 and rng.random() < 0.4:
        k = rng.randint(2, min(3, n, m))
        scope = tuple(sorted(rng.sample(range(n), k)))
        constraints.append(Constraint(ConstraintKind.ALL_DIFFERENT, scope))
    params = {"n": n, "m": m, "constraints": len(constraints)}
    return _one_class_model("random-interchangeable", n, m, constraints, params)
