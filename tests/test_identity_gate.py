"""tools/identity_gate.py prints one digest per workload and variable order,
and the same digests on every run."""

import re
import subprocess
import sys
from pathlib import Path

GATE = Path(__file__).resolve().parents[1] / "tools" / "identity_gate.py"


def gate_lines(*args: str) -> list[str]:
    run = subprocess.run([sys.executable, str(GATE), *args], capture_output=True, text=True, check=True)
    return run.stdout.splitlines()


def test_identity_gate_digests_each_smoke_workload_and_order_the_same_way_twice():
    lines = gate_lines("--smoke", "501")
    keys = [re.fullmatch(r"seed=501 workload=(\w+) order=([\w-]+) jobs=\d+ sha256=[0-9a-f]{64}", line)
            for line in lines]
    assert all(keys), lines
    assert [k.groups() for k in keys] == [
        (w, o) for w in ("interval", "coloring", "verify") for o in ("input", "min-domain")
    ]
    assert len(set(lines)) == len(lines)
    assert gate_lines("--smoke", "501") == lines
