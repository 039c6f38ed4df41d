"""Seeded inputs and job lists for the benchmark workloads.

Nothing here imports valsym. Inputs are plain data (DIMACS text, edge lists,
sizes), so the set-up probe can time the import of valsym and the model builds
on their own, and the oracle can check answers without the solver's help.

A workload is a list of model specs and a list of jobs over them. One pass of
a workload runs every job once, in an order drawn from the seed.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Optional

WORKLOADS = ("interval", "coloring", "verify")
MODES = ("none", "static-lex", "precedence", "channel", "getree")

# Every job passes this node budget explicitly, so VALSYM_BUDGET in the
# environment cannot change what is measured. The largest job today needs
# 4 369 nodes.
BUDGET = 200_000

# coloring: GRAPHS graphs per pass, each BLOCKS disjoint planted blocks of
# BLOCK_SIZE vertices at AVG_DEGREE, COLORS colours. See planted_graph().
GRAPHS, BLOCKS, BLOCK_SIZE, AVG_DEGREE, COLORS = 80, 5, 20, 4.5, 3
PIGEONHOLE_N = 14
PIGEONHOLE_MODES = ("precedence", "channel", "getree")

# verify: (vertices, colours, k, graphs) strata of random k-trees. Every
# k-tree with the same (vertices, k) has the same chromatic polynomial, so the
# seed moves the structure but not the number of solutions the verifier must
# canonicalise. The cheap strata hold two graphs each, so the median job is
# one of many of similar cost rather than a single job.
KTREE_STRATA = (
    (4, 5, 1, 2), (4, 5, 2, 2), (4, 5, 3, 2), (5, 5, 3, 2), (5, 5, 4, 2), (6, 5, 4, 2),
    (5, 5, 2, 1), (6, 5, 3, 1), (4, 6, 3, 1),
)
# Few and small enough (at most 6 variables over 3 values) that these cheap,
# size-varying models stay below the median job on every seed.
RANDOM_MODELS, RANDOM_MAX_VARS, RANDOM_MAX_VALUES = 4, 6, 3
VERIFY_ALL_INTERVAL = (7, 8)
VERIFY_INTERCHANGEABLE_MODES = ("static-lex", "precedence", "channel", "getree")
VERIFY_EXPLICIT_MODES = ("static-lex", "getree")


@dataclass(frozen=True)
class Job:
    """One call into the library: solve a model in one mode, or verify it
    over several modes."""

    name: str
    model: str
    command: str  # "solve" or "verify"
    modes: tuple[str, ...]
    limit: Optional[int]


@dataclass
class Workload:
    specs: dict  # model key -> spec tuple, see build_model()
    jobs: list


def planted_graph(rng: random.Random, blocks: int, block_size: int, avg_degree: float, colors: int):
    """A planted `colors`-colourable graph made of `blocks` disjoint random
    blocks. Returns (num_vertices, sorted 0-based edges).

    Each block gets a balanced hidden colouring and round(avg_degree *
    block_size / 2) distinct edges drawn uniformly between differently
    coloured vertices; its vertices are numbered in breadth-first order.
    Depth-first search in input order then only backtracks within a block, so
    the search cost of a graph is a sum of independent, bounded block costs
    instead of one heavy-tailed draw.
    """
    edges = []
    per_block = round(avg_degree * block_size / 2)
    for b in range(blocks):
        hidden = [i % colors for i in range(block_size)]
        rng.shuffle(hidden)
        block = set()
        while len(block) < per_block:
            u, v = rng.randrange(block_size), rng.randrange(block_size)
            if hidden[u] != hidden[v]:
                block.add((min(u, v), max(u, v)))
        label = _bfs_labels(block_size, sorted(block))
        base = b * block_size
        for u, v in block:
            a, c = label[u] + base, label[v] + base
            edges.append((min(a, c), max(a, c)))
    return blocks * block_size, sorted(edges)


def _bfs_labels(n: int, edges) -> list[int]:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    label = [-1] * n
    nxt = 0
    for root in range(n):
        if label[root] >= 0:
            continue
        label[root] = nxt
        nxt += 1
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in sorted(adj[u]):
                if label[w] < 0:
                    label[w] = nxt
                    nxt += 1
                    queue.append(w)
    return label


def dimacs_text(num_vertices: int, edges) -> str:
    lines = [f"c planted {COLORS}-colourable benchmark graph", f"p edge {num_vertices} {len(edges)}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in edges]
    return "\n".join(lines) + "\n"


def random_ktree(rng: random.Random, vertices: int, k: int):
    """A random k-tree on `vertices` vertices with shuffled labels: a
    (k+1)-clique grown by vertices joined to every member of an existing
    k-clique. Returns sorted 0-based edges."""
    label = list(range(vertices))
    rng.shuffle(label)
    edges = set()
    cliques = []
    first = list(range(k + 1))
    for i in first:
        for j in first:
            if i < j:
                edges.add((i, j))
    for drop in first:
        cliques.append(tuple(x for x in first if x != drop))
    for new in range(k + 1, vertices):
        base = rng.choice(cliques)
        for x in base:
            edges.add((x, new))
        for drop in base:
            cliques.append(tuple(x for x in base if x != drop) + (new,))
    return sorted((min(label[u], label[v]), max(label[u], label[v])) for u, v in edges)


def make_workload(name: str, seed: int, smoke: bool = False) -> Workload:
    """The workload's model specs and jobs for this seed. `smoke` shrinks
    every size to a pass that takes well under a second."""
    rng = random.Random(f"{name}:{seed}")
    if name == "interval":
        wl = _interval(smoke)
    elif name == "coloring":
        wl = _coloring(rng, smoke)
    elif name == "verify":
        wl = _verify(rng, smoke)
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    rng.shuffle(wl.jobs)
    return wl


def _interval(smoke: bool) -> Workload:
    n = 7 if smoke else 10
    key = f"all-interval-{n}"
    jobs = [
        Job(f"{key}/{mode}", key, "solve", (mode,), None)
        for mode in ("none", "static-lex", "getree")
    ]
    return Workload({key: ("all-interval", n)}, jobs)


def _coloring(rng: random.Random, smoke: bool) -> Workload:
    graphs, blocks, block_size = (2, 2, 10) if smoke else (GRAPHS, BLOCKS, BLOCK_SIZE)
    hole = 8 if smoke else PIGEONHOLE_N
    specs, jobs = {}, []
    for g in range(graphs):
        key = f"graph-{g:02d}"
        n, edges = planted_graph(rng, blocks, block_size, AVG_DEGREE, COLORS)
        specs[key] = ("dimacs", dimacs_text(n, edges), COLORS, n, edges)
        jobs += [Job(f"{key}/{mode}", key, "solve", (mode,), 1) for mode in MODES]
    key = f"pigeonhole-{hole}"
    specs[key] = ("pigeonhole", hole)
    jobs += [Job(f"{key}/{mode}", key, "solve", (mode,), 1) for mode in PIGEONHOLE_MODES]
    return Workload(specs, jobs)


def _verify(rng: random.Random, smoke: bool) -> Workload:
    specs, jobs = {}, []
    for n in VERIFY_ALL_INTERVAL[:1] if smoke else VERIFY_ALL_INTERVAL:
        key = f"all-interval-{n}"
        specs[key] = ("all-interval", n)
        jobs.append(Job(f"{key}/verify", key, "verify", VERIFY_EXPLICIT_MODES, None))
    for vertices, colors, k, graphs in KTREE_STRATA[:1] if smoke else KTREE_STRATA:
        for g in range(1 if smoke else graphs):
            key = f"{k}-tree-{vertices}v-{colors}c-{g}"
            specs[key] = ("graph", vertices, random_ktree(rng, vertices, k), colors)
            jobs.append(Job(f"{key}/verify", key, "verify", VERIFY_INTERCHANGEABLE_MODES, None))
    for r in range(2 if smoke else RANDOM_MODELS):
        key = f"random-{r}"
        specs[key] = ("random-interchangeable", rng.getrandbits(32))
        jobs.append(Job(f"{key}/verify", key, "verify", VERIFY_INTERCHANGEABLE_MODES, None))
    return Workload(specs, jobs)


def build_model(problems, spec):
    """Build one model through valsym's `problems` module (passed in, so this
    module stays free of valsym imports)."""
    kind = spec[0]
    if kind == "all-interval":
        return problems.build_all_interval(spec[1])
    if kind == "dimacs":
        return problems.build_coloring_from_dimacs(spec[1], spec[2])
    if kind == "pigeonhole":
        return problems.build_pigeonhole(spec[1])
    if kind == "graph":
        return problems.build_coloring(spec[1], spec[2], spec[3])
    if kind == "random-interchangeable":
        return problems.random_interchangeable_model(
            random.Random(spec[1]), max_vars=RANDOM_MAX_VARS, max_values=RANDOM_MAX_VALUES
        )
    raise ValueError(f"unknown model spec {kind!r}")
