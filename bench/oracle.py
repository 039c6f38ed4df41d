"""Independent answers for the benchmark's jobs.

Everything here is the benchmark's own code: it never calls a propagator's
`check()` or valsym's symmetry machinery. Expected counts come from plain
enumeration over the generated inputs, and every returned solution is checked
against the problem's definition.
"""

from __future__ import annotations

import itertools

# Node counts of all-interval n=10, all solutions, input/ascending order, as
# recorded in the ROADMAP baseline. Search is deterministic, so these repeat.
ALL_INTERVAL_NODES = {10: {"none": 4369, "static-lex": 1462, "getree": 2185}}


def all_interval_series(n: int) -> list[tuple[int, ...]]:
    """Every permutation of 0..n-1 whose adjacent differences are distinct."""
    out = []
    series = []
    used_vals = [False] * n
    used_diffs = [False] * n

    def extend():
        if len(series) == n:
            out.append(tuple(series))
            return
        for v in range(n):
            if used_vals[v]:
                continue
            d = abs(v - series[-1]) if series else 0
            if series and used_diffs[d]:
                continue
            used_vals[v] = True
            used_diffs[d] = bool(series)
            series.append(v)
            extend()
            series.pop()
            used_vals[v] = False
            if d:
                used_diffs[d] = False

    extend()
    return out


def _reversal(s):
    return tuple(reversed(s))


def _inversion(s):
    top = len(s) - 1
    return tuple(top - v for v in s)


def all_interval_images(s) -> tuple[tuple[int, ...], ...]:
    """Images of a series under reversal, value inversion and both."""
    return (_reversal(s), _inversion(s), _reversal(_inversion(s)))


def first_occurrence_form(a) -> tuple[int, ...]:
    """Relabel values in order of first appearance: the canonical member of
    an assignment's orbit under all value permutations."""
    relabel = {}
    return tuple(relabel.setdefault(v, len(relabel)) for v in a)


class Expectation:
    """What a correct answer looks like for one model spec."""

    def __init__(self, spec, model=None):
        kind = spec[0]
        self.kind = kind
        if kind == "all-interval":
            n = spec[1]
            self.n = n
            series = all_interval_series(n)
            self.total = len(series)
            # static-lex breaks the whole 4-element group; getree only its
            # value part {identity, inversion}
            self.orbits = {
                "none": self.total,
                "static-lex": sum(all(s <= g for g in all_interval_images(s)) for s in series),
                "getree": sum(s <= _inversion(s) for s in series),
            }
            self.nodes = ALL_INTERVAL_NODES.get(n)
        elif kind == "dimacs":
            _, _, self.colors, self.vertices, self.edges = spec
            self.total = 1  # planted, so first-solution search finds one
        elif kind == "pigeonhole":
            # n variables, all different, yet some non-adjacent pair equal
            self.vertices, self.colors, self.edges = spec[1], spec[1] + 1, ()
            self.total = 0
        elif kind == "graph":
            _, self.vertices, self.edges, self.colors = spec
            self._enumerate(self.vertices, self.colors, [("ne", e) for e in self.edges])
        elif kind == "random-interchangeable":
            p = model.params
            self.vertices, self.colors = p["n"], p["m"]
            relations = []
            for c in model.constraints:
                rel = {"not-equal": "ne", "all-different": "alldiff"}[c.kind.value]
                relations.append((rel, tuple(c.scope)))
            self._enumerate(self.vertices, self.colors, relations)
        else:
            raise ValueError(f"unknown model spec {kind!r}")

    def _enumerate(self, n, m, relations):
        total = 0
        forms = set()
        for a in itertools.product(range(m), repeat=n):
            if all(_holds(rel, scope, a) for rel, scope in relations):
                total += 1
                forms.add(first_occurrence_form(a))
        self.total = total
        self.interchangeable_orbits = len(forms)

    # -- checks; each returns a list of problems, empty when the answer is right

    def check_solve(self, mode: str, solutions, stats) -> list[str]:
        errs = []
        if self.kind == "all-interval":
            want = self.orbits[mode]
            errs += [f"invalid series {s}" for s in solutions if not _is_all_interval(s, self.n)]
            series = [tuple(s[: self.n]) for s in solutions]
            if len(set(series)) != len(series):
                errs.append("duplicate solutions")
            if mode == "static-lex":
                errs += [f"{s} is not lex <= its images" for s in series
                         if not all(s <= g for g in all_interval_images(s))]
            if mode == "getree":
                reps = {min(s, _inversion(s)) for s in series}
                if len(reps) != len(series):
                    errs.append("two solutions share an inversion orbit")
            if self.nodes is not None and stats.nodes != self.nodes[mode]:
                errs.append(f"nodes {stats.nodes}, baseline {self.nodes[mode]}")
        else:
            want = self.total
            for s in solutions:
                if len(s) != self.vertices or any(not 0 <= v < self.colors for v in s):
                    errs.append(f"malformed colouring {s}")
                elif any(s[u] == s[v] for u, v in self.edges):
                    errs.append(f"improper colouring {s}")
                elif mode in ("precedence", "channel", "getree") and first_occurrence_form(s) != tuple(s):
                    errs.append(f"colouring {s} is not first-occurrence canonical")
        if len(solutions) != want:
            errs.append(f"{len(solutions)} solutions, expected {want}")
        if stats.solutions != len(solutions):
            errs.append("stats.solutions disagrees with the solution list")
        return errs

    def check_verify(self, modes, passed, reports, none_stats) -> list[str]:
        errs = []
        if [r.mode for r in reports] != list(modes):
            errs.append(f"reports for modes {[r.mode for r in reports]}, asked for {list(modes)}")
        if not passed:
            errs.append("verification failed")
        if none_stats.solutions != self.total:
            errs.append(f"mode none found {none_stats.solutions} solutions, expected {self.total}")
        for r in reports:
            want = self.orbits[r.mode] if self.kind == "all-interval" else self.interchangeable_orbits
            if r.orbit_count != want or r.solution_count != want:
                errs.append(
                    f"{r.mode}: {r.solution_count} solutions over {r.orbit_count} orbits, expected {want}"
                )
        return errs


def _holds(rel, scope, a) -> bool:
    if rel == "ne":
        return a[scope[0]] != a[scope[1]]
    vals = [a[v] for v in scope]
    return len(set(vals)) == len(vals)


def _is_all_interval(s, n: int) -> bool:
    series, diffs = s[:n], s[n:]
    if sorted(series) != list(range(n)) or len(diffs) != n - 1:
        return False
    want = [abs(series[i] - series[i + 1]) for i in range(n - 1)]
    return list(diffs) == want and len(set(want)) == n - 1
