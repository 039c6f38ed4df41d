"""tools/identity_gate.py prints a tree and a work digest per workload and
variable order, the same digests on every run, and a change to the
propagation schedule alone moves only the work digests, also those of the
modes a `verify` job lists. The smoke workloads' tree digests are pinned.
Against a saved run it fails on a moved tree digest only."""

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


def load_gate(monkeypatch):
    monkeypatch.setattr(sys, "path", sys.path[:])  # the gate prepends ./src and ./bench
    spec = importlib.util.spec_from_file_location("identity_gate", GATE)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


# `--smoke 501` tree digests: any change to a smoke job's search tree or
# solution list moves one. A change that alters propagation strength on
# purpose updates them; the work digests are left free, since a change to the
# propagation schedule alone moves them.
SMOKE_501_TREES = {
    ("interval", "input"): "f1b4ccf7a7c85c80ef11af55b8e8a7c85f14d791cb134e2768dece9fd86ecb0b",
    ("interval", "min-domain"): "9d9d92fa6ef1627d8365024cf95fdef28b8a7f3686507b1addc873e8f3a8fe6f",
    ("coloring", "input"): "1e723f62afd270e73f0c835d9d0cea786c753d96c7543ee2ab8a1944946e2690",
    ("coloring", "min-domain"): "cd0630ef3d1ab99e35c0634a3859740b15a2760dfac6a63f7df0e4fd6e04c82a",
    ("verify", "input"): "25b32cc11bb878d366beb43febe787c53896dd014cdba276aa8231b00b73dd5b",
    ("verify", "min-domain"): "888478d408b1a49435ca1436e13a7e78bae22cbdc92661d60d0fc4f3cd1b7b52",
}


def test_smoke_tree_digests_are_pinned(monkeypatch):
    lines = load_gate(monkeypatch).digests([501], smoke=True)
    keys = [re.fullmatch(LINE, line).groups() for line in lines]
    assert {(w, o): tree for w, o, tree, _ in keys} == SMOKE_501_TREES


def test_a_propagator_that_never_retires_moves_only_work_digests(monkeypatch):
    gate = load_gate(monkeypatch)
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


def test_against_a_saved_run_fails_only_on_a_moved_tree_digest(monkeypatch, tmp_path, capsys):
    gate = load_gate(monkeypatch)
    lines = gate.digests([501], smoke=True)
    monkeypatch.setattr(gate, "digests", lambda seeds, smoke=False: lines)
    saved = tmp_path / "saved.txt"

    def against(tamper_line: int, field: str) -> tuple[int, list[str]]:
        tampered = list(lines)
        _, tree, work = gate.split_line(tampered[tamper_line])
        digest = tree if field == "tree" else work
        tampered[tamper_line] = tampered[tamper_line].replace(digest, "0" * 64)
        saved.write_text("\n".join(tampered) + "\n")
        code = gate.main(["--smoke", "501", "--against", str(saved)])
        out = capsys.readouterr().out.splitlines()
        assert out[: len(lines)] == lines
        return code, out[len(lines):]

    key = "seed=501 workload=verify order=min-domain"
    assert against(5, "tree") == (1, [f"tree moved: {key}"])
    assert against(5, "work") == (0, [f"work moved: {key}"])
    # an untouched saved run names nothing; a key it lacks is a moved tree
    saved.write_text("\n".join(lines) + "\n")
    assert gate.main(["--smoke", "501", "--against", str(saved)]) == 0
    assert capsys.readouterr().out.splitlines() == lines
    saved.write_text("\n".join(lines[1:]) + "\n")
    assert gate.main(["--smoke", "501", "--against", str(saved)]) == 1
    assert capsys.readouterr().out.splitlines()[len(lines):] == [
        "tree moved: seed=501 workload=interval order=input"]
