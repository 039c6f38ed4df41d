#!/usr/bin/env python3
"""Digest every benchmark job's search, to check that a change keeps the
same search trees.

    python3 tools/identity_gate.py 501 502
    python3 tools/identity_gate.py --smoke 501
    python3 tools/identity_gate.py 501 502 --against parent.txt

For each seed, workload of bench/workloads.py and variable order (`input`,
then `min-domain`) it runs every job once, on models built once per
workload as the benchmark builds them, and prints one line with two sha256
digests over the jobs in order. The tree digest covers each job's name, its
solution list (for `verify`, its per-mode reports) and its nodes, branches,
failures, solutions and max_depth; the work digest covers each job's name and
its propagation_calls. A `verify` job adds to both records the counts of
each listed mode's own solve, which its per-mode reports carry. A job past
its node budget counts its partial solutions and stats. Run it on two
commits and compare the lines: a change to the propagation schedule alone
keeps every tree digest and moves only work digests. valsym comes from
./src, the workloads from ./bench, which it only imports.

With `--against FILE`, a saved run's output, it then names each
seed/workload/order whose tree digest differs from FILE's, or that FILE
lacks, and exits 1 if there is one; it lists the moved work digests too,
which leave the exit status 0.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from valsym import BudgetExceeded, problems, search  # noqa: E402
from workloads import BUDGET, WORKLOADS, build_model, make_workload  # noqa: E402

VAR_ORDERS = ("input", "min-domain")
TREE_COUNTS = ("nodes", "branches", "failures", "solutions", "max_depth")


def job_records(job, model, var_order: str) -> tuple[str, str]:
    """(tree record, work record) of one job: its name with its solution list
    (per-mode reports for `verify`, and the solutions found so far past the
    budget) and TREE_COUNTS, and its name with its propagation_calls; for
    `verify`, each listed mode's TREE_COUNTS and propagation_calls follow."""
    config = search.SearchConfig(var_order=var_order, enumeration_budget=BUDGET)
    per_mode = []  # (mode, stats of its own solve) per mode `verify` listed
    try:
        if job.command == "solve":
            config = replace(config, symmetry_mode=job.modes[0], solution_limit=job.limit)
            outcome, stats = search.solve(model, config)
        else:
            _, outcome, stats = search.verify_symmetry_breaking(model, job.modes, config)
            per_mode = [(report.mode, report.stats) for report in outcome]
    except BudgetExceeded as exc:
        outcome, stats = ("budget-exceeded", exc.solutions), exc.stats
    tree = tuple(getattr(stats, key) for key in TREE_COUNTS)
    modes_tree = [(mode, tuple(getattr(s, key) for key in TREE_COUNTS)) for mode, s in per_mode]
    modes_work = [(mode, s.propagation_calls) for mode, s in per_mode]
    return (repr((job.name, outcome, tree, *modes_tree)),
            repr((job.name, stats.propagation_calls, *modes_work)))


def digests(seeds, smoke: bool = False) -> list[str]:
    lines = []
    for seed in seeds:
        for name in WORKLOADS:
            workload = make_workload(name, seed, smoke)
            models = {key: build_model(problems, spec) for key, spec in workload.specs.items()}
            for var_order in VAR_ORDERS:
                tree, work = hashlib.sha256(), hashlib.sha256()
                for job in workload.jobs:
                    tree_record, work_record = job_records(job, models[job.model], var_order)
                    tree.update(tree_record.encode())
                    work.update(work_record.encode())
                lines.append(f"seed={seed} workload={name} order={var_order} "
                             f"jobs={len(workload.jobs)} tree={tree.hexdigest()} "
                             f"work={work.hexdigest()}")
    return lines


def split_line(line: str) -> tuple[str, str, str]:
    """(seed/workload/order key, tree digest, work digest) of one output line."""
    key, _, rest = line.partition(" jobs=")
    fields = dict(item.split("=", 1) for item in rest.split()[1:])
    return key, fields["tree"], fields["work"]


def compare(lines, saved) -> int:
    """Print each key whose tree or work digest moved from the saved digest
    lines, which may come with other lines; 1 if a tree digest moved or a key
    is not saved, else 0."""
    old = {key: (tree, work) for key, tree, work in (split_line(s) for s in saved if " jobs=" in s)}
    status = 0
    for key, tree, work in map(split_line, lines):
        if key not in old or old[key][0] != tree:
            print(f"tree moved: {key}")
            status = 1
        elif old[key][1] != work:
            print(f"work moved: {key}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+", help="workload seeds")
    parser.add_argument("--smoke", action="store_true", help="the benchmark's smoke-sized workloads")
    parser.add_argument("--against", type=Path, metavar="FILE", help="a saved run to compare with")
    args = parser.parse_args(argv)
    saved = args.against.read_text().splitlines() if args.against else None
    lines = digests(args.seeds, args.smoke)
    for line in lines:
        print(line, flush=True)
    return 0 if saved is None else compare(lines, saved)


if __name__ == "__main__":
    sys.exit(main())
