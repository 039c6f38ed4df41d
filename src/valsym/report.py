"""Run reports: one structure for human tables and schema-validated JSON."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional, Sequence

from .model import Model
from .search import ModeResult, SearchStats, VerifyModeReport

SOLUTION_SAMPLE_CAP = 20

_STAT_COLUMNS = (
    ("nodes", "nodes"),
    ("branches", "branches"),
    ("failures", "failures"),
    ("solutions", "solutions"),
    ("propagation_calls", "prop_calls"),
    ("max_depth", "max_depth"),
    ("elapsed", "elapsed_s"),
)


def _orbit_entry(orbit: Sequence[tuple[int, ...]]) -> dict:
    # an orbit can hold every solution of the model, so list only a sample
    return {"size": len(orbit), "members": [list(a) for a in orbit[:SOLUTION_SAMPLE_CAP]]}


def _orbit_line(orbit: Sequence[tuple[int, ...]]) -> str:
    shown = " | ".join(str(a) for a in orbit[:SOLUTION_SAMPLE_CAP])
    more = " | ..." if len(orbit) > SOLUTION_SAMPLE_CAP else ""
    return f"    {len(orbit)} members: {shown}{more}"


def _orbit_lines(orbits: Sequence[Sequence[tuple[int, ...]]]) -> list[str]:
    # a mode can duplicate or miss every orbit, so list only the first ones
    lines = [_orbit_line(o) for o in orbits[:SOLUTION_SAMPLE_CAP]]
    if len(orbits) > SOLUTION_SAMPLE_CAP:
        lines.append(f"    ... and {len(orbits) - SOLUTION_SAMPLE_CAP} more orbits")
    return lines


def schema_path():
    return resources.files("valsym") / "schema" / "run_report.schema.json"


def load_schema() -> dict:
    return json.loads(schema_path().read_text())


@dataclass
class RunReport:
    command: str
    model: Model
    modes: list[str]
    var_order: str = "input"
    val_order: str = "ascending"
    solution_limit: Optional[int] = None
    budget: int = 0
    seed: Optional[int] = None
    results: list[ModeResult] = field(default_factory=list)
    verification: Optional[list[VerifyModeReport]] = None

    @property
    def verdict(self) -> Optional[str]:
        if self.verification is None:
            return None
        return "PASS" if all(r.passed for r in self.verification) else "FAIL"

    def to_dict(self) -> dict:
        runs = []
        for r in self.results:
            sample = [list(s) for s in r.solutions[:SOLUTION_SAMPLE_CAP]]
            runs.append(
                {
                    "mode": r.mode,
                    "stats": r.stats.as_dict(),
                    "solution_count": len(r.solutions),
                    "solutions": sample,
                    "solutions_truncated": len(r.solutions) > SOLUTION_SAMPLE_CAP,
                }
            )
        verification = None
        if self.verification is not None:
            verification = {
                "verdict": self.verdict,
                "modes": [
                    {
                        "mode": v.mode,
                        "passed": v.passed,
                        "solution_count": v.solution_count,
                        "orbit_count": v.orbit_count,
                        "duplicate_orbit_count": len(v.duplicate_orbits),
                        "duplicate_orbits": [
                            _orbit_entry(o) for o in v.duplicate_orbits[:SOLUTION_SAMPLE_CAP]
                        ],
                        "missed_orbit_count": len(v.missed_orbits),
                        "missed_orbits": [
                            _orbit_entry(o) for o in v.missed_orbits[:SOLUTION_SAMPLE_CAP]
                        ],
                        "non_canonical_count": len(v.non_canonical),
                        "non_canonical": [
                            list(a) for a in v.non_canonical[:SOLUTION_SAMPLE_CAP]
                        ],
                    }
                    for v in self.verification
                ],
            }
        return {
            "command": self.command,
            "model": self.model.describe(),
            "config": {
                "modes": list(self.modes),
                "var_order": self.var_order,
                "val_order": self.val_order,
                "solution_limit": self.solution_limit,
                "budget": self.budget,
                "seed": self.seed,
            },
            "runs": runs,
            "verification": verification,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    # -- human-readable rendering -----------------------------------------

    def stats_table(self) -> str:
        header = ["mode"] + [label for _, label in _STAT_COLUMNS]
        rows = [header]
        for r in self.results:
            stats = r.stats.as_dict()
            row = [r.mode]
            for key, _ in _STAT_COLUMNS:
                v = stats[key]
                row.append(f"{v:.4f}" if isinstance(v, float) else str(v))
            rows.append(row)
        widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
        lines = []
        for idx, row in enumerate(rows):
            lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
            if idx == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines)

    def render(self) -> str:
        desc = self.model.describe()
        params = " ".join(f"{k}={v}" for k, v in desc["params"].items())
        lines = [f"{self.command}: model {desc['name']} {params}".rstrip()]
        if self.seed is not None:
            lines.append(f"seed: {self.seed}")
        if self.command == "solve":
            for r in self.results:
                lines.append(f"mode {r.mode}: {len(r.solutions)} solution(s)")
                for i, s in enumerate(r.solutions, start=1):
                    lines.append(f"  #{i}: " + " ".join(map(str, s)))
        lines.append(self.stats_table())
        if self.verification is not None:
            lines.append("")
            for v in self.verification:
                status = "PASS" if v.passed else "FAIL"
                lines.append(
                    f"verify {v.mode}: {status} "
                    f"({v.solution_count} solutions over {v.orbit_count} orbits)"
                )
                if v.duplicate_orbits:
                    lines.append("  orbits with more than one returned solution:")
                    lines += _orbit_lines(v.duplicate_orbits)
                if v.missed_orbits:
                    lines.append("  orbits with no returned solution:")
                    lines += _orbit_lines(v.missed_orbits)
            lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)
