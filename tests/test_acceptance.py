"""Acceptance gate: every release-blocking behaviour, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines;
each test enforces its stated runtime limit as part of the pass condition.
"""

import itertools
import math
import random
import statistics
import time

from oracles import (
    brute_support,
    class_permutations,
    lex_leader_support,
    naive_all_interval,
    precedence_accepts,
)
from valsym.domains import mask_of, values_of
from valsym.engine import build_watchers, propagate_to_fixpoint
from valsym.problems import (
    build_all_interval,
    build_pigeonhole,
    random_interchangeable_model,
)
from valsym.propagators import LexLeaderProp, PrecedenceProp, build_propagators, check_all
from valsym.search import (
    SearchConfig,
    _prepare,
    break_group,
    solve,
    verify_symmetry_breaking,
)
from valsym.symmetry import (
    ValuePermutation,
    VarValueSymmetry,
    inversion_permutation,
    orbit_partition,
)
from witnesses import FROZEN_CHANNEL_WITNESS, FROZEN_DECOMPOSITION_WITNESS

SERIES_11 = (3, 7, 4, 6, 5, 0, 10, 1, 9, 2, 8)
REVERSED_11 = (8, 2, 9, 1, 10, 0, 5, 6, 4, 7, 3)
INVERTED_11 = (7, 3, 6, 4, 5, 10, 0, 9, 1, 8, 2)
COMPOSED_11 = (2, 8, 1, 9, 0, 10, 5, 4, 6, 3, 7)


def _report(num: int, name: str, ok: bool, detail: str = ""):
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nCRITERION {num} ({name}): {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {num} ({name}) failed {detail}"


def _with_diffs(series):
    return tuple(series) + tuple(
        abs(series[i] - series[i + 1]) for i in range(len(series) - 1)
    )


def test_criterion_1_reference_vectors():
    t0 = time.perf_counter()
    problems = []
    rev = VarValueSymmetry.variable_only(tuple(reversed(range(11))), 11)
    inv = VarValueSymmetry.value_only(11, inversion_permutation(11))
    if rev.apply(SERIES_11) != REVERSED_11:
        problems.append("reversal image mismatch")
    if inv.apply(SERIES_11) != INVERTED_11:
        problems.append("inversion image mismatch")
    if rev.compose(inv).apply(SERIES_11) != COMPOSED_11:
        problems.append("composed image mismatch")

    model = build_all_interval(11)
    stars, base_props = build_propagators(model)
    vectors = (SERIES_11, REVERSED_11, INVERTED_11, COMPOSED_11)
    for vec in vectors:
        if not check_all(stars + base_props, _with_diffs(vec)):
            problems.append(f"{vec[:3]}... violates the base model")

    # static-lex posts first < last for reversal (the series is all-different)
    # and one lex-leader over inversion and the composed element
    _, broken_props, broken_checks, _ = _prepare(model, "static-lex")
    posted = sorted(p.kind for p in broken_props[len(base_props):])
    if posted != ["lex-leader", "ordering-chain"]:
        problems.append(f"static-lex posted {posted}")
    lex = [p for p in broken_props if p.kind == "lex-leader"]
    want = LexLeaderProp(model.symmetry_scope, inv, rev.compose(inv)).elements
    if len(lex) != 1 or set(lex[0].elements) != set(want):
        problems.append("static-lex lex-leader elements are not inversion and composed")
    survivors = [
        vec for vec in vectors if check_all(broken_checks, _with_diffs(vec))
    ]
    if survivors != [COMPOSED_11]:
        problems.append(f"survivors {survivors}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"too slow: {elapsed:.2f}s")
    _report(
        1, "reference vectors", not problems,
        "; ".join(problems) or f"{elapsed:.2f}s",
    )


def test_criterion_2_lex_fixpoints():
    t0 = time.perf_counter()
    problems = []
    m = build_all_interval(11)
    inversion = VarValueSymmetry.value_only(11, inversion_permutation(11))
    stars, props = build_propagators(m)
    props.append(LexLeaderProp(m.symmetry_scope, inversion))
    watchers = build_watchers(props, m.num_vars, stars=stars)
    doms = m.initial_domains()
    out = propagate_to_fixpoint(props, doms, watchers=watchers)
    if out.failed or set(values_of(doms[0])) != set(range(6)):
        problems.append(f"root domain {sorted(values_of(doms[0]))}")
    doms[0] = 1 << 5
    out = propagate_to_fixpoint(props, doms, [0], watchers)
    if out.failed or set(values_of(doms[1])) != set(range(5)):
        problems.append(f"post-assignment domain {sorted(values_of(doms[1]))}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        problems.append(f"too slow: {elapsed:.2f}s")
    _report(
        2, "lex-leader fixpoints", not problems,
        "; ".join(problems) or f"{elapsed:.2f}s",
    )


def test_criterion_3_one_per_orbit():
    t0 = time.perf_counter()
    violations = []
    for n in (5, 6, 7, 8):
        passed, reports, _ = verify_symmetry_breaking(
            build_all_interval(n), ["static-lex", "getree"]
        )
        if not passed:
            violations += [
                f"all-interval n={n} {r.mode}" for r in reports if not r.passed
            ]
    rng = random.Random(20260815)
    for i in range(50):
        m = random_interchangeable_model(rng, max_vars=6, max_values=4)
        passed, reports, _ = verify_symmetry_breaking(
            m, ["static-lex", "precedence", "channel", "getree"]
        )
        if not passed:
            violations += [
                f"random #{i} ({m.params}) {r.mode}"
                for r in reports
                if not r.passed
            ]
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        violations.append(f"too slow: {elapsed:.1f}s")
    _report(
        3, "one solution per orbit", not violations,
        "; ".join(violations[:4]) or f"{elapsed:.1f}s",
    )


def test_criterion_4_precedence_equals_lex_conjunction():
    t0 = time.perf_counter()
    mismatches = 0
    for n in range(1, 6):
        for m in range(1, 5):
            order = tuple(range(m))
            group = class_permutations(order, n, m)
            prop = PrecedenceProp(tuple(range(n)), order)
            for a in itertools.product(range(m), repeat=n):
                lex_ok = all(a <= g.apply(a) for g in group)
                if prop.check(a) != lex_ok:
                    mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 30.0
    _report(
        4, "precedence equals lex conjunction", ok,
        f"{mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_5_precedence_gac_exactness():
    t0 = time.perf_counter()
    rng = random.Random(424242)
    mismatches = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        m = rng.randint(1, 4)
        u = rng.randint(m, m + 2)
        order = tuple(range(m))
        doms = [rng.randrange(1, 1 << u) for _ in range(n)]
        snapshot = list(doms)
        out = propagate_to_fixpoint([PrecedenceProp(tuple(range(n)), order)], doms)
        want = brute_support(snapshot, lambda c: precedence_accepts(c, order))
        if want is None:
            if not out.failed:
                mismatches += 1
        elif out.failed or [set(values_of(d)) for d in doms] != want:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 30.0
    _report(
        5, "precedence propagator is exactly GAC", ok,
        f"{mismatches} mismatches over 200 configs, {elapsed:.1f}s",
    )


def test_criterion_6_propagation_hierarchy_witnesses():
    t0 = time.perf_counter()
    problems = []

    w = FROZEN_DECOMPOSITION_WITNESS
    failed, decomp = w.decomposition_fixpoint()
    oracle = w.oracle_fixpoint()
    if failed or oracle is None:
        problems.append("decomposition witness wiped out")
    else:
        decomp_sets = [set(values_of(d)) for d in decomp]
        if not (all(o <= d for o, d in zip(oracle, decomp_sets)) and decomp_sets != oracle):
            problems.append(f"no decomposition gap: {decomp_sets} vs oracle {oracle}")

    c = FROZEN_CHANNEL_WITNESS
    cfailed, cdoms = c.channel_fixpoint()
    swap = VarValueSymmetry.value_only(
        len(c.domains),
        ValuePermutation.from_cycle(c.universe_size, c.class_values),
    )
    coracle = lex_leader_support([mask_of(d) for d in c.domains], [swap])
    if cfailed or coracle is None:
        problems.append("channel witness wiped out")
    else:
        chan_sets = [set(values_of(d)) for d in cdoms]
        if not (all(o <= ch for o, ch in zip(coracle, chan_sets)) and chan_sets != coracle):
            problems.append(f"no channel gap: {chan_sets} vs oracle {coracle}")
        pfailed, pdoms = c.precedence_fixpoint()
        if pfailed or [set(values_of(d)) for d in pdoms] != coracle:
            problems.append("precedence disagrees with exact oracle on witness")

    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        problems.append(f"too slow: {elapsed:.2f}s")
    _report(
        6, "propagation hierarchy witnesses", not problems,
        "; ".join(problems) or f"{elapsed:.2f}s",
    )


def test_criterion_7_static_dynamic_separation():
    t0 = time.perf_counter()
    problems = []
    ns = range(4, 13)
    getree_branches = {}
    precedence_nodes = {}
    static_lex_nodes = {}
    for n in ns:
        m = build_pigeonhole(n)
        _, g_stats = solve(m, SearchConfig(symmetry_mode="getree"))
        _, p_stats = solve(m, SearchConfig(symmetry_mode="precedence"))
        _, s_stats = solve(m, SearchConfig(symmetry_mode="static-lex"))
        getree_branches[n] = g_stats.branches
        precedence_nodes[n] = p_stats.nodes
        static_lex_nodes[n] = s_stats.nodes
    for n in range(8, 12):
        ratio = getree_branches[n + 1] / getree_branches[n]
        if ratio < 1.5:
            problems.append(f"getree ratio at n={n}: {ratio:.3f}")
    slope, _ = statistics.linear_regression(
        [math.log(n) for n in ns],
        [math.log(precedence_nodes[n]) for n in ns],
    )
    if slope > 2.3:
        problems.append(f"precedence growth exponent {slope:.2f}")
    # static-lex's adjacent transpositions fail at the root, as precedence does
    grown = {n: k for n, k in static_lex_nodes.items() if k != 1}
    if grown:
        problems.append(f"static-lex nodes past the root: {grown}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        problems.append(f"too slow: {elapsed:.1f}s")
    _report(
        7, "static vs dynamic separation", not problems,
        "; ".join(problems)
        or f"getree x{getree_branches[12] / getree_branches[11]:.2f}/step, "
        f"precedence exponent {slope:.2f}, static-lex nodes "
        f"{sorted(set(static_lex_nodes.values()))}, {elapsed:.1f}s",
    )


def test_criterion_8_solution_count_sanity():
    t0 = time.perf_counter()
    problems = []
    for n in range(3, 9):
        m = build_all_interval(n)
        sols, _ = solve(m)
        naive = naive_all_interval(n)
        if sorted(sols) != sorted(naive):
            problems.append(f"n={n}: solver {len(sols)} vs naive {len(naive)}")
            continue
        proj = [m.project_scope(s) for s in sols]
        for mode in ("static-lex", "getree"):
            broken, _ = solve(m, SearchConfig(symmetry_mode=mode))
            orbits = orbit_partition(proj, break_group(m, mode))
            if len(broken) != len(orbits):
                problems.append(
                    f"n={n} {mode}: {len(broken)} solutions vs {len(orbits)} orbits"
                )
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        problems.append(f"too slow: {elapsed:.1f}s")
    _report(
        8, "solution count sanity", not problems,
        "; ".join(problems) or f"{elapsed:.1f}s",
    )
