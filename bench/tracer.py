"""Per-layer tracing of valsym from outside the library.

`Tracer.installed()` replaces the public functions that `valsym.search`
calls, the symmetry helpers, every propagator class's `propagate` and
`RunReport.to_json` with wrappers, and puts the originals back when the block
exits. Each wrapped call records one span (name, parent span, job, start and
end in ns) and bumps counters at the same boundary. Spans are kept in flat
arrays and written out once, after the traced pass.

A layer's self time is its spans' duration minus the time covered by their
direct child spans. The wrappers' own bookkeeping runs outside their span and
so lands in the parent's self time; the run's `trace_overhead` bounds it.
"""

from __future__ import annotations

import gzip
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

_now = time.perf_counter_ns


def _size(domain) -> int:
    # domains are DomainSet objects today; plain int masks are accepted too
    return domain.bit_count() if type(domain) is int else len(domain)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.parent = array("q")
        self.name = array("q")
        self.job = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.job_id = -1
        self.counts: Counter = Counter()

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.job.append(self.job_id)
        self.end.append(0)
        self._stack.append(sid)
        self.start.append(_now())
        return sid

    def _close(self, sid: int):
        self.end[sid] = _now()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def layer_times(self) -> dict[str, tuple[int, float, float]]:
        """name -> (span count, total seconds, self seconds)."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        count, total, own = Counter(), defaultdict(int), defaultdict(int)
        for i in range(n):
            name = self.names[self.name[i]]
            d = self.end[i] - self.start[i]
            count[name] += 1
            total[name] += d
            own[name] += d - child[i]
        return {k: (count[k], total[k] / 1e9, own[k] / 1e9) for k in count}

    def write_spans(self, path):
        """One CSV row per span: id, parent, job, name, start_ns, end_ns."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,job,name,start_ns,end_ns\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.parent[i]},{self.job[i]},{self.names[self.name[i]]},"
                    f"{self.start[i]},{self.end[i]}\n"
                )

    # -- wrappers ----------------------------------------------------------

    def _plain(self, name, fn, after=None):
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _solve(self, fn, budget_exceeded):
        def traced(*args, **kwargs):
            sid = self._open("search.solve")
            try:
                result = fn(*args, **kwargs)
            except budget_exceeded as exc:
                self._close(sid)
                if exc.stats is not None:
                    self._add_search(exc.stats)
                raise
            self._close(sid)
            self._add_search(result[1])
            return result

        return traced

    def _add_search(self, stats):
        c = self.counts
        for key in ("nodes", "branches", "failures", "solutions", "propagation_calls"):
            c["search." + key] += getattr(stats, key)
        c["search.max_depth"] = max(c["search.max_depth"], stats.max_depth)

    def _propagate(self, fn):
        counts = self.counts
        keys = {}  # kind -> (span name, calls, removed, failures, useful counter names)

        def traced(prop, domains):
            # propagators only narrow the variables they watch; domains may be
            # DomainSet objects or plain int masks
            ints = type(domains[0]) is int
            before = {v: domains[v] if ints else domains[v].mask for v in prop.watches}
            k = keys.get(prop.kind)
            if k is None:
                base = "propagators." + prop.kind
                k = keys[prop.kind] = (base,) + tuple(
                    f"{base}.{c}" for c in ("calls", "removed", "failures", "useful")
                )
            sid = self._open(k[0])
            try:
                failed, changed = fn(prop, domains)
            finally:
                self._close(sid)
            removed = 0
            for v in set(changed):
                if v not in before:
                    counts["propagators.unwatched_changes"] += 1
                    continue
                after = domains[v] if ints else domains[v].mask
                removed += (before[v] & ~after).bit_count()
            counts[k[1]] += 1
            counts[k[2]] += removed
            counts[k[3]] += bool(failed)
            counts[k[4]] += bool(failed or removed)
            return failed, changed

        return traced

    def _patches(self, valsym):
        """(owner, attribute, wrapper) for every traced entry point."""
        search, symmetry, propagators, report = (
            valsym.search, valsym.symmetry, valsym.propagators, valsym.report,
        )
        c = self.counts

        def fixpoint(args, kwargs, outcome):
            c["engine.fixpoint_calls"] += 1
            c["engine.failures"] += bool(outcome.failed)

        def copy(args, kwargs, result):
            c["domains.copy_calls"] += 1
            c["domains.copied_vars"] += len(result)

        def leaf(args, kwargs, ok):
            c["propagators.check_all_calls"] += 1
            c["propagators.check_all_accepted"] += bool(ok)

        def getree(args, kwargs, allowed):
            domains = args[3] if len(args) > 3 else kwargs["domains"]
            var = args[1] if len(args) > 1 else kwargs["next_var"]
            c["search.getree_calls"] += 1
            c["search.getree_kept"] += len(allowed)
            c["search.getree_domain"] += _size(domains[var])

        def canonical(args, kwargs, result):
            group = args[1] if len(args) > 1 else kwargs["group"]
            c["symmetry.canonical_form_calls"] += 1
            c["symmetry.images_applied"] += len(group)

        def closed(args, kwargs, group):
            c["symmetry.group_elements"] += len(group)

        def to_json(args, kwargs, text):
            c["report.bytes"] += len(text)

        out = [
            (search, "solve", self._solve(search.solve, valsym.BudgetExceeded)),
            (search, "propagate_to_fixpoint",
             self._plain("engine.fixpoint", search.propagate_to_fixpoint, fixpoint)),
            (search, "copy_domains", self._plain("domains.copy", search.copy_domains, copy)),
            (search, "check_all", self._plain("propagators.check_all", search.check_all, leaf)),
            (search, "getree_allowed_values",
             self._plain("search.getree", search.getree_allowed_values, getree)),
            (search, "orbit_partition",
             self._plain("symmetry.orbit_partition", search.orbit_partition)),
            (symmetry, "canonical_form",
             self._plain("symmetry.canonical_form", symmetry.canonical_form, canonical)),
            (symmetry.SymmetrySpec, "closed_group",
             self._plain("symmetry.closed_group", symmetry.SymmetrySpec.closed_group, closed)),
            (report.RunReport, "to_json",
             self._plain("report.to_json", report.RunReport.to_json, to_json)),
        ]
        for cls in propagator_classes(propagators):
            if "propagate" in vars(cls):
                out.append((cls, "propagate", self._propagate(vars(cls)["propagate"])))
        return out

    @contextmanager
    def installed(self, valsym):
        patches = self._patches(valsym)
        saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)


def propagator_classes(propagators) -> list[type]:
    """Every concrete propagator class the propagators module defines."""
    base = propagators.Propagator
    return [
        obj for obj in vars(propagators).values()
        if isinstance(obj, type) and issubclass(obj, base) and obj is not base
    ]
