"""tools/identity_gate.py prints a tree and a work digest per workload and
variable order, the same digests on every run, and a change to the
propagation schedule alone moves only the work digests, also those of the
modes a `verify` job lists."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

from valsym import propagators

GATE = Path(__file__).resolve().parents[1] / "tools" / "identity_gate.py"
LINE = r"seed=501 workload=(\w+) order=([\w-]+) jobs=\d+ tree=([0-9a-f]{64}) work=([0-9a-f]{64})"


def gate_lines(*args: str) -> list[str]:
    run = subprocess.run([sys.executable, str(GATE), *args], capture_output=True, text=True, check=True)
    return run.stdout.splitlines()


def test_identity_gate_digests_each_smoke_workload_and_order_the_same_way_twice():
    lines = gate_lines("--smoke", "501")
    keys = [re.fullmatch(LINE, line) for line in lines]
    assert all(keys), lines
    assert [k.groups()[:2] for k in keys] == [
        (w, o) for w in ("interval", "coloring", "verify") for o in ("input", "min-domain")
    ]
    assert len(set(lines)) == len(lines)
    assert gate_lines("--smoke", "501") == lines


def test_a_propagator_that_never_retires_moves_only_work_digests(monkeypatch):
    monkeypatch.setattr(sys, "path", sys.path[:])  # the gate prepends ./src and ./bench
    spec = importlib.util.spec_from_file_location("identity_gate", GATE)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    retiring = gate.digests([501], smoke=True)
    # static-lex posts the lex-leader in coloring and verify jobs, and only in
    # the modes a `verify` job lists, not in its mode-none run
    plain = propagators.LexLeaderProp.propagate

    def never_retires(self, domains):
        failed, changed = plain(self, domains)
        return bool(failed), changed

    monkeypatch.setattr(propagators.LexLeaderProp, "propagate", never_retires)
    kept = gate.digests([501], smoke=True)
    digests = [(re.fullmatch(LINE, a).groups(), re.fullmatch(LINE, b).groups())
               for a, b in zip(retiring, kept)]
    assert len(digests) == 6
    assert all(a[:3] == b[:3] for a, b in digests)
    moved = {a[0] for a, b in digests if a[3] != b[3]}
    assert moved == {"coloring", "verify"}
