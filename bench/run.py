#!/usr/bin/env python3
"""valsym benchmark: one workload per process, closed loop, one job at a time.

    python3 bench/run.py --workload interval --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload coloring --seed 1 --seconds 35 --trace 1
    python3 bench/run.py --workload verify --seed 1 --smoke

Run from the repository root. The solver is imported from ./src, never from
an installed copy; without ./src/valsym the command fails before any run.

A pass runs every job of the workload once, through valsym's public API, in
an order drawn from the seed. Each job's answer is checked by bench/oracle.py
and its JSON report against the report schema; a job that raises, exceeds
its explicit node budget, answers wrongly or emits a bad report fails.

--trace 0 runs one warm-up pass, then untraced passes for the rest of
--seconds, and prints the end-to-end metrics. --trace 1 runs one traced pass
(bench/tracer.py), then untraced passes for the rest of --seconds, and prints
the per-layer metrics, including the traced-over-untraced pass time.

The speed of a shared host swings by up to 2x, within a second and from one
minute to the next. So every end-to-end time is given at a fixed reference
speed. While jobs run, a SIGALRM timer samples the host's speed every
SAMPLE_PERIOD_S by timing a small fixed computation of the benchmark's own,
which shares no code with valsym (`reference_sample()`, see SpeedSampler).
A job's time, less the samples taken inside it, is scaled by REF_S over the
mean sample time from WINDOW_S before it starts to WINDOW_S after it ends; a
set-up probe scales itself the same way. A change to valsym moves the scaled
times as much as the wall times; a change in host speed moves the job and
the samples alike and largely cancels. Wall times are printed and saved
beside them.

Both modes print human-readable lines, then one JSON object as the last
line. Metric names and units come from BENCHMARK.json.
Full results go to bench/out/. The exit code is 0 only if every job passed.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from oracle import Expectation
from tracer import Tracer
from workloads import BUDGET, WORKLOADS, Job, build_model, make_workload

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_PROBES = 9
# Speed samples: one reference_sample(), about 0.2 ms, every SAMPLE_PERIOD_S
# (1% of the run). REF_S is its time on a calm 2-vCPU x86-64 host under
# CPython 3.11, so that scaled times read as seconds on that host. A job is
# scaled by the samples within WINDOW_S of it, at least ten even for a job of
# a few milliseconds.
REF_S = 0.00021
SAMPLE_PERIOD_S = 0.02
WINDOW_S = 0.1
# a set-up probe, a few tens of ms, also takes this many samples just before
# and just after it
SETUP_SAMPLES = 20
# set-up probes run between passes, so they sample the host's speed over the
# whole run rather than over its first seconds
PROBES_PER_PASS = 2
MIN_PASSES = 3
# stop starting passes after this long, so a much slower build still ends in time
HARD_STOP_S = 100.0
PROPAGATOR_KINDS = (
    "not-equal", "abs-diff", "all-different", "lazy-all-different", "ordering-chain",
    "precedence", "lex-leader", "first-occurrence-channel", "equality-disjunction",
)
SEARCH_COUNTS = ("nodes", "branches", "failures", "solutions", "propagation_calls", "max_depth")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, one pass")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_valsym():
    """Import valsym (and the report layer) from ./src of this checkout."""
    if not (SRC / "valsym" / "__init__.py").is_file():
        raise SystemExit(f"error: no valsym sources under {SRC}; run from a valsym checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import valsym
    import valsym.report

    if Path(valsym.__file__).resolve().parent != SRC / "valsym":
        raise SystemExit(f"error: valsym imported from {valsym.__file__}, not from {SRC}")
    return valsym


def setup_probe(args) -> int:
    """Child process: time importing valsym and building every model, and
    give that time at the reference speed too."""
    wl = make_workload(args.workload, args.seed, args.smoke)
    sampler = SpeedSampler()
    for _ in range(SETUP_SAMPLES):  # warm up the sample code, unrecorded
        reference_sample()
    sampler.burst(SETUP_SAMPLES)
    with sampler.running():
        t0 = time.perf_counter()
        valsym = import_valsym()
        for spec in wl.specs.values():
            build_model(valsym.problems, spec)
        t1 = time.perf_counter()
    sampler.burst(SETUP_SAMPLES)
    seconds = sampler.own_seconds(t0, t1)
    print(json.dumps({"setup_s": seconds * sampler.scale(t0, t1), "wall_s": seconds}))
    return 0


def measure_setup(args, probes: int, times: list[float]):
    """Run `probes` fresh set-up processes, one after another, appending each
    one's set-up seconds at the reference speed to `times`."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    for _ in range(probes):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])


def environment() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (git not available)"
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "commit": commit,
    }


def _queens(n: int) -> int:
    """Count the placements of n non-attacking queens, with sets and a
    closure, as plain Python search code does."""
    cols, sums, diffs = set(), set(), set()
    found = 0

    def place(row):
        nonlocal found
        if row == n:
            found += 1
            return
        for c in range(n):
            if c in cols or row + c in sums or row - c in diffs:
                continue
            cols.add(c)
            sums.add(row + c)
            diffs.add(row - c)
            place(row + 1)
            cols.discard(c)
            sums.discard(row + c)
            diffs.discard(row - c)

    place(0)
    return found


_PERMUTATIONS = tuple(itertools.permutations(range(5)))[:60]
_WORD = (0, 1, 2, 3, 4, 0, 1, 2)


def reference_sample():
    """A fixed piece of pure-Python work in the style of valsym's hot paths:
    n-queens 6 on sets and a closure, as search and propagation do, then the
    least image of a tuple under 60 value permutations, as canonical forms do."""
    if _queens(6) != 4:
        raise AssertionError("reference search miscounted")
    least = _WORD
    for p in _PERMUTATIONS:
        image = tuple(p[v] for v in _WORD)
        if image < least:
            least = image
    return least


class SpeedSampler:
    """Times one reference sample every SAMPLE_PERIOD_S while `running()`.

    The samples run in a signal handler, between two bytecodes of whatever
    job is running, so they see the host's speed during the job itself."""

    def __init__(self):
        self.at: list[float] = []  # start of each sample, in time order
        self.took: list[float] = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_sample()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def burst(self, n: int):
        for _ in range(n):
            self._sample(None, None)

    @contextmanager
    def running(self):
        """Sample on a timer; also once on entry and once on exit, so that
        even a block shorter than one period has samples around it."""
        self._sample(None, None)
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._sample(None, None)

    def own_seconds(self, start: float, end: float) -> float:
        """Wall seconds from start to end, less the samples taken in between."""
        lo, hi = bisect.bisect_left(self.at, start), bisect.bisect_left(self.at, end)
        return end - start - sum(self.took[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """Factor from wall seconds to seconds at the reference speed, for
        work done from start to end."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if lo == hi:  # the timer was held off; use the nearest samples
            lo, hi = max(lo - 1, 0), hi + 1
        return REF_S / statistics.fmean(self.took[lo:hi])


@dataclass
class JobResult:
    job: Job
    start: float
    end: float
    signature: tuple  # API-visible search counts, equal on every pass
    errors: list
    seconds: float = 0.0  # wall, less speed samples
    scaled: float = 0.0  # seconds at the reference speed


class Runner:
    def __init__(self, valsym, workload, seed: int):
        self.valsym = valsym
        self.workload = workload
        self.seed = seed
        self.models = {}
        self.expect = {}
        self.validate = _schema_validator(valsym)
        self.sampler = SpeedSampler()

    def build(self, tracer=None):
        """Build every model; with a tracer, one span per model build."""
        for key, spec in self.workload.specs.items():
            if tracer is None:
                self.models[key] = build_model(self.valsym.problems, spec)
            else:
                with tracer.span("problems.build"):
                    self.models[key] = build_model(self.valsym.problems, spec)
                tracer.counts["problems.models"] += 1
        for key, spec in self.workload.specs.items():
            self.expect[key] = Expectation(spec, self.models[key])
        # Keep the collector from rescanning every model of the workload
        # during each job, as it would not in a process holding one model.
        gc.collect()
        gc.freeze()

    def run_pass(self, tracer=None) -> list[JobResult]:
        """Run every job once, sampling the host's speed, and give each job
        its wall and scaled seconds."""
        results = []
        with self.sampler.running():
            for idx, job in enumerate(self.workload.jobs):
                if tracer is None:
                    results.append(self.run_job(job))
                else:
                    tracer.job_id = idx
                    with tracer.span("job"):
                        results.append(self.run_job(job))
        for r in results:
            r.seconds = self.sampler.own_seconds(r.start, r.end)
            r.scaled = r.seconds * self.sampler.scale(r.start, r.end)
        return results

    def run_job(self, job: Job) -> JobResult:
        v = self.valsym
        search, report = v.search, v.report
        model = self.models[job.model]
        config = search.SearchConfig(
            symmetry_mode=job.modes[0] if job.command == "solve" else "none",
            solution_limit=job.limit,
            enumeration_budget=BUDGET,
        )
        t0 = time.perf_counter()
        try:
            if job.command == "solve":
                sols, stats = search.solve(model, config)
                rep = report.RunReport(
                    command="solve", model=model, modes=list(job.modes),
                    solution_limit=job.limit, budget=BUDGET, seed=self.seed,
                    results=[search.ModeResult(job.modes[0], sols, stats)],
                )
            else:
                passed, reports, stats = search.verify_symmetry_breaking(model, job.modes, config)
                rep = report.RunReport(
                    command="verify", model=model, modes=list(job.modes), budget=BUDGET,
                    seed=self.seed, results=[search.ModeResult("none", [], stats)],
                    verification=reports,
                )
            text = rep.to_json()
        except v.BudgetExceeded as exc:
            end = time.perf_counter()
            partial = _counts(exc.stats) if exc.stats is not None else ()
            return JobResult(job, t0, end, partial, [f"{exc}; partial stats {partial}"])
        except Exception:  # any other raise fails this job; the pass goes on
            end = time.perf_counter()
            return JobResult(job, t0, end, (), [traceback.format_exc()])
        end = time.perf_counter()
        exp = self.expect[job.model]
        if job.command == "solve":
            errors = exp.check_solve(job.modes[0], sols, stats)
            signature = _counts(stats)
        else:
            errors = exp.check_verify(job.modes, passed, reports, stats)
            signature = _counts(stats) + tuple(
                (r.mode, r.solution_count, r.orbit_count) for r in reports
            )
        errors += self.validate(text)
        return JobResult(job, t0, end, signature, errors)


def _counts(stats) -> tuple:
    return tuple(getattr(stats, k) for k in SEARCH_COUNTS)


def _schema_validator(valsym):
    try:
        import jsonschema
    except ImportError:
        print("note: jsonschema is not installed; reports are checked as JSON only")
        return lambda text: [] if isinstance(json.loads(text), dict) else ["report is not an object"]
    validator = jsonschema.Draft202012Validator(valsym.report.load_schema())
    return lambda text: [e.message for e in validator.iter_errors(json.loads(text))]


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def ratio(num, den) -> float:
    return num / den if den else 0.0


def timed_passes(runner, seconds: float, min_passes: int, started: float,
                 between=None) -> list[list[JobResult]]:
    """Run passes while another one still fits before `seconds` have gone by
    since `started`; calls `between()` after each pass."""
    passes, lengths = [], []
    while True:
        t0 = time.perf_counter()
        passes.append(runner.run_pass())
        if between is not None:
            between()
        lengths.append(time.perf_counter() - t0)
        now = time.perf_counter() - started
        if len(passes) >= min_passes and now + statistics.median(lengths) > seconds:
            return passes
        if now > HARD_STOP_S:
            return passes


def pass_seconds(results: list[JobResult]) -> float:
    return sum(r.seconds for r in results)


def pass_scaled(results: list[JobResult]) -> float:
    return sum(r.scaled for r in results)


def mismatches(reference: list[JobResult], other: list[JobResult], label: str) -> list[str]:
    return [
        f"{a.job.name}: search counts {b.signature} in {label}, {a.signature} in the first pass"
        for a, b in zip(reference, other)
        if a.signature != b.signature
    ]


def layer_metrics(tracer, traced_s: float, untraced_s: float) -> dict:
    times = tracer.layer_times()
    c = tracer.counts

    def total(name):
        return times.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return times.get(name, (0, 0.0, 0.0))[2]

    m = {}
    prop_calls = 0
    for kind in PROPAGATOR_KINDS:
        key = "propagators." + kind
        calls = c[key + ".calls"]
        prop_calls += calls
        m[key + ".calls"] = calls
        m[key + ".s"] = total(key)
        m[key + ".removed"] = c[key + ".removed"]
        m[key + ".failures"] = c[key + ".failures"]
        m[key + ".useful_ratio"] = ratio(c[key + ".useful"], calls)
    m["propagators.check_all_calls"] = c["propagators.check_all_calls"]
    m["propagators.check_all_s"] = total("propagators.check_all")
    m["propagators.leaf_accept_ratio"] = ratio(
        c["propagators.check_all_accepted"], c["propagators.check_all_calls"]
    )
    m["engine.fixpoint_calls"] = c["engine.fixpoint_calls"]
    m["engine.fixpoint_s"] = total("engine.fixpoint")
    m["engine.self_s"] = own("engine.fixpoint")
    m["engine.fail_ratio"] = ratio(c["engine.failures"], c["engine.fixpoint_calls"])
    m["engine.props_per_fixpoint"] = ratio(prop_calls, c["engine.fixpoint_calls"])
    m["domains.copy_calls"] = c["domains.copy_calls"]
    m["domains.copy_s"] = total("domains.copy")
    m["domains.copied_vars"] = c["domains.copied_vars"]
    for key in SEARCH_COUNTS:
        m["search." + key] = c["search." + key]
    m["search.solve_s"] = total("search.solve")
    m["search.self_s"] = own("search.solve")
    m["search.us_per_node"] = ratio(total("search.solve") * 1e6, c["search.nodes"])
    m["search.getree_calls"] = c["search.getree_calls"]
    m["search.getree_s"] = total("search.getree")
    m["search.getree_kept_ratio"] = ratio(c["search.getree_kept"], c["search.getree_domain"])
    m["symmetry.closed_group_s"] = total("symmetry.closed_group")
    m["symmetry.group_elements"] = c["symmetry.group_elements"]
    m["symmetry.orbit_partition_s"] = total("symmetry.orbit_partition")
    m["symmetry.canonical_form_calls"] = c["symmetry.canonical_form_calls"]
    m["symmetry.canonical_form_s"] = total("symmetry.canonical_form")
    m["symmetry.images_applied"] = c["symmetry.images_applied"]
    m["problems.build_s"] = total("problems.build")
    m["problems.models"] = c["problems.models"]
    m["report.to_json_s"] = total("report.to_json")
    m["report.bytes"] = c["report.bytes"]
    m["trace_overhead"] = ratio(traced_s, untraced_s)
    return m


def trace_integrity(tracer, metrics: dict) -> list[str]:
    """The traced pass must see exactly the propagation work the search
    reports. Returns errors; prints notes on accounting it cannot name."""
    traced_kinds = {
        k[len("propagators."):-len(".calls")]: n for k, n in tracer.counts.items()
        if k.startswith("propagators.") and k.endswith(".calls") and k != "propagators.check_all_calls"
    }
    for kind in sorted(set(traced_kinds) - set(PROPAGATOR_KINDS)):
        print(f"note: propagator kind {kind!r} is not in BENCHMARK.json; {traced_kinds[kind]} calls")
    if tracer.counts["propagators.unwatched_changes"]:
        print("note: some propagators changed variables they do not watch; `.removed` undercounts")
    seen = sum(traced_kinds.values())
    if seen != metrics["search.propagation_calls"]:
        return [f"traced propagate calls {seen} != search.propagation_calls "
                f"{metrics['search.propagation_calls']}"]
    return []


def declared_metrics(trace: int) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    started = time.perf_counter()
    valsym = import_valsym()
    units = declared_metrics(args.trace)
    env = environment()
    wl = make_workload(args.workload, args.seed, args.smoke)
    runner = Runner(valsym, wl, args.seed)
    # smoke: exactly one pass (one traced and one untraced with --trace 1)
    seconds, min_passes = (0.0, 1) if args.smoke else (args.seconds, MIN_PASSES)
    notes = {}
    errors: list[str] = []

    if args.trace == 0:
        runner.build()
        probes = 1 if args.smoke else SETUP_PROBES
        setups: list[float] = []
        started = time.perf_counter()
        # the warm-up pass is checked like every pass but not timed
        passes = [runner.run_pass()] + timed_passes(
            runner, seconds, min_passes, started,
            lambda: measure_setup(args, min(PROBES_PER_PASS, probes - len(setups)), setups),
        )
        measure_setup(args, probes - len(setups), setups)
        timed = passes[1:]
        execs = [r.scaled for p in timed for r in p]
        metrics = {
            "batch_s": statistics.median(pass_scaled(p) for p in timed),
            "job_s_p50": statistics.median(execs),
            "job_s_p90": p90(execs),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        walls = [r.seconds for p in timed for r in p]
        notes = {
            "batch_s": f"median of {len(timed)} passes at the reference speed;"
                       f" median wall pass {statistics.median(pass_seconds(p) for p in timed):.4g} s",
            "job_s_p50": f"over {len(execs)} job executions; wall {statistics.median(walls):.4g} s",
            "job_s_p90": f"over {len(execs)} job executions, {sum(j > metrics['job_s_p90'] for j in execs)}"
                         f" above; wall {p90(walls):.4g} s",
            "setup_s": f"median of {len(setups)} fresh processes at the reference speed",
            "peak_rss_mb": "ru_maxrss of this process",
        }
        traced = None
    else:
        tracer = Tracer()
        with tracer.installed(valsym):
            runner.build(tracer)
            traced = runner.run_pass(tracer)
        passes = [traced] + timed_passes(runner, seconds, 1, started)
        untraced = [pass_scaled(p) for p in passes[1:]]
        metrics = layer_metrics(tracer, pass_scaled(traced), statistics.median(untraced))
        errors += trace_integrity(tracer, metrics)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write_spans(spans_path)
        notes = {"trace_overhead": f"traced pass over median of {len(untraced)} untraced passes,"
                                   " both at the reference speed"}
        print(f"spans {len(tracer.start)} written to {spans_path.relative_to(ROOT)}")

    for i, p in enumerate(passes[1:], start=1):
        errors += mismatches(passes[0], p, f"pass {i}" if traced is None else f"untraced pass {i}")
    results = [r for p in passes for r in p]
    failed = [r for r in results if r.errors]
    for r in failed[:20]:
        print(f"FAILED {r.job.name}: {'; '.join(r.errors)[:2000]}", file=sys.stderr)
    for e in errors[:20]:
        print(f"ERROR {e}", file=sys.stderr)

    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"error: metrics not computed: {missing}")
    out_metrics = {name: {"value": metrics[name], "unit": units[name]} for name in units}
    failed_frac = len(failed) / len(results)
    print(f"env {json.dumps(env)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(wl.jobs)} jobs per pass, {len(passes)} passes, budget {BUDGET} nodes per job")
    for name, m in out_metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{note}")
    print(f"failed_frac {failed_frac:.6g} fraction  ({len(failed)} of {len(results)} job executions)")

    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "smoke": args.smoke, "env": env,
        "metrics": out_metrics, "notes": notes, "failed_frac": failed_frac,
        "pass_seconds": [pass_seconds(p) for p in passes],
        "pass_scaled": [pass_scaled(p) for p in passes],
        "job_seconds": [[r.seconds for r in p] for p in passes],
        "job_scaled": [[r.scaled for r in p] for p in passes],
        "jobs": [{"name": r.job.name, "seconds": r.seconds, "signature": r.signature,
                  "errors": r.errors} for r in passes[0]],
        "errors": errors,
    }
    if traced is not None:
        record["trace_counts"] = dict(tracer.counts)
    suffix = "-smoke" if args.smoke else ""
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )
    correct = not failed and not errors
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": len(failed),
                      "metrics": out_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
