import json
from dataclasses import replace

import jsonschema
import pytest

from valsym import cli
from valsym.cli import main
from valsym.problems import build_all_interval, build_pigeonhole
from valsym.report import SOLUTION_SAMPLE_CAP, RunReport, load_schema
from valsym.search import SearchConfig, VerifyModeReport, solve

TRIANGLE_DIMACS = "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.col"
    path.write_text(TRIANGLE_DIMACS)
    return str(path)


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    jsonschema.validate(instance=payload, schema=load_schema())
    return code, payload


def test_solve_defaults_to_first_solution(capsys):
    code, payload = run_json(capsys, ["solve", "--model", "all-interval", "--n", "5"])
    assert code == 0
    assert payload["command"] == "solve"
    run = payload["runs"][0]
    assert run["mode"] == "none"
    assert run["solution_count"] == 1
    assert run["solutions_truncated"] is False
    assert payload["config"]["solution_limit"] == 1


def test_solve_all_enumerates_everything(capsys):
    code, payload = run_json(
        capsys, ["solve", "--model", "all-interval", "--n", "5", "--all"]
    )
    assert code == 0
    assert payload["runs"][0]["solution_count"] == 8
    assert payload["config"]["solution_limit"] is None


def test_solve_mode_flag_is_applied(capsys):
    code, payload = run_json(
        capsys,
        ["solve", "--model", "all-interval", "--n", "5", "--all", "--mode", "static-lex"],
    )
    assert code == 0
    assert payload["runs"][0]["mode"] == "static-lex"
    assert payload["runs"][0]["solution_count"] == 2


def test_solve_table_output_lists_solutions(capsys):
    code = main(["solve", "--model", "all-interval", "--n", "5", "--limit", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "mode none: 2 solution(s)" in out
    assert "#1:" in out and "#2:" in out
    assert "nodes" in out  # stats table header


def test_solve_sample_truncation_flag(capsys):
    code, payload = run_json(
        capsys, ["solve", "--model", "all-interval", "--n", "7", "--all"]
    )
    assert code == 0
    run = payload["runs"][0]
    assert run["solution_count"] > 20
    assert len(run["solutions"]) == 20
    assert run["solutions_truncated"] is True


def test_seed_is_echoed(capsys):
    code, payload = run_json(
        capsys, ["solve", "--model", "all-interval", "--n", "5", "--seed", "7"]
    )
    assert code == 0
    assert payload["config"]["seed"] == 7
    code = main(["solve", "--model", "all-interval", "--n", "5", "--seed", "7"])
    assert "seed: 7" in capsys.readouterr().out


def test_compare_reports_each_mode(capsys):
    code, payload = run_json(
        capsys,
        [
            "compare", "--model", "pigeonhole", "--n", "6",
            "--mode", "precedence", "--mode", "getree",
        ],
    )
    assert code == 0
    runs = {r["mode"]: r for r in payload["runs"]}
    assert runs["precedence"]["stats"]["nodes"] == 1
    assert runs["getree"]["stats"]["branches"] == 32
    assert all(r["solution_count"] == 0 for r in runs.values())


def test_verify_passes_on_clean_model(capsys):
    code, payload = run_json(capsys, ["verify", "--model", "all-interval", "--n", "5"])
    assert code == 0
    assert payload["verification"]["verdict"] == "PASS"
    modes = {v["mode"] for v in payload["verification"]["modes"]}
    assert modes == {"static-lex", "getree"}


def test_verify_fail_exits_one(capsys):
    # mode none returns whole orbits, so checking it must fail
    code, payload = run_json(
        capsys, ["verify", "--model", "all-interval", "--n", "5", "--mode", "none"]
    )
    assert code == 1
    assert payload["verification"]["verdict"] == "FAIL"
    entry = payload["verification"]["modes"][0]
    assert entry["duplicate_orbits"]


def test_verify_table_shows_verdict(capsys):
    code = main(["verify", "--model", "all-interval", "--n", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "verify static-lex: PASS" in out
    assert "verdict: PASS" in out


def test_coloring_via_dimacs_file(capsys, triangle_file):
    code, payload = run_json(
        capsys,
        [
            "solve", "--model", "coloring", "--file", triangle_file,
            "--colors", "3", "--all", "--mode", "precedence",
        ],
    )
    assert code == 0
    assert payload["runs"][0]["solutions"] == [[0, 1, 2]]


def test_verify_nine_colour_class_has_no_size_limit(capsys, tmp_path):
    path = tmp_path / "path3.col"
    path.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
    base = ["verify", "--model", "coloring", "--file", str(path), "--colors", "9"]
    code, payload = run_json(
        capsys, base + ["--mode", "precedence", "--mode", "channel", "--mode", "getree"]
    )
    assert code == 0
    for v in payload["verification"]["modes"]:
        assert v["passed"] and v["solution_count"] == 2 and v["orbit_count"] == 2, v
    # mode none keeps every member of both orbits, so it reaches a FAIL verdict
    code, payload = run_json(capsys, base + ["--mode", "none"])
    assert code == 1
    (v,) = payload["verification"]["modes"]
    assert v["solution_count"] == 576 and v["orbit_count"] == 2


def test_verify_orbit_listings_are_capped(capsys, tmp_path):
    # mode none on a 3-vertex path with 9 colours returns all 576 solutions:
    # 72 with equal ends and 504 without; each listed orbit keeps its size but
    # only a sample of its members
    path = tmp_path / "path3.col"
    path.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
    argv = ["verify", "--model", "coloring", "--file", str(path), "--colors", "9", "--mode", "none"]
    code, payload = run_json(capsys, argv)
    assert code == 1
    (v,) = payload["verification"]["modes"]
    orbits = v["duplicate_orbits"]
    assert [o["size"] for o in orbits] == [72, 504]
    assert all(len(o["members"]) == SOLUTION_SAMPLE_CAP for o in orbits)
    assert orbits[0]["members"][0] == [0, 1, 0]
    assert v["non_canonical_count"] == 574
    assert len(v["non_canonical"]) == SOLUTION_SAMPLE_CAP
    assert len(json.dumps(payload)) < 4000
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 1
    orbit_lines = [line for line in out.splitlines() if " members: " in line]
    assert [line.split()[0] for line in orbit_lines] == ["72", "504"]
    assert all(line.count(" | ") == SOLUTION_SAMPLE_CAP for line in orbit_lines)
    assert len(out) < 4000


def test_verify_lists_at_most_cap_orbits(capsys, tmp_path):
    # mode none on an 8-vertex path with 4 colours duplicates all 365 orbits
    path = tmp_path / "path8.col"
    path.write_text("p edge 8 7\n" + "".join(f"e {i} {i + 1}\n" for i in range(1, 8)))
    argv = ["verify", "--model", "coloring", "--file", str(path), "--colors", "4", "--mode", "none"]
    code, payload = run_json(capsys, argv)
    assert code == 1
    (v,) = payload["verification"]["modes"]
    assert v["orbit_count"] == v["duplicate_orbit_count"] == 365
    assert len(v["duplicate_orbits"]) == SOLUTION_SAMPLE_CAP
    assert v["missed_orbit_count"] == 0 and v["missed_orbits"] == []
    assert len(json.dumps(payload)) < 60_000
    main(argv + ["--format", "json"])
    assert len(capsys.readouterr().out) < 13_000  # one compact line, no indentation
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 1
    assert sum(" members: " in line for line in out.splitlines()) == SOLUTION_SAMPLE_CAP
    assert f"... and {365 - SOLUTION_SAMPLE_CAP} more orbits" in out


def test_report_caps_missed_orbits():
    missed = [[(i, i + 1)] for i in range(SOLUTION_SAMPLE_CAP + 3)]
    verdict = VerifyModeReport("precedence", 0, len(missed), [], missed, [], False)
    model = build_pigeonhole(2)
    report = RunReport("verify", model, ["precedence"], budget=1, verification=[verdict])
    (v,) = report.to_dict()["verification"]["modes"]
    jsonschema.validate(instance=report.to_dict(), schema=load_schema())
    assert v["missed_orbit_count"] == SOLUTION_SAMPLE_CAP + 3
    assert [o["members"] for o in v["missed_orbits"]] == [
        [list(a) for a in o] for o in missed[:SOLUTION_SAMPLE_CAP]
    ]
    assert report.render().endswith("    ... and 3 more orbits\nverdict: FAIL")


def test_verify_coloring_all_modes(capsys, triangle_file):
    code, payload = run_json(
        capsys, ["verify", "--model", "coloring", "--file", triangle_file, "--colors", "3"]
    )
    assert code == 0
    modes = {v["mode"] for v in payload["verification"]["modes"]}
    assert modes == {"static-lex", "precedence", "channel", "getree"}


# --- failure exits -------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--model", "all-interval"],                      # missing --n
        ["solve", "--model", "all-interval", "--n", "2"],          # out of range
        ["solve", "--model", "coloring", "--colors", "3"],         # missing --file
        ["solve", "--model", "coloring", "--file", "/nonexistent", "--colors", "3"],
        ["solve", "--model", "all-interval", "--n", "5", "--all", "--limit", "2"],
        ["solve", "--model", "all-interval", "--n", "5",
         "--mode", "none", "--mode", "getree"],                    # two modes
        ["solve", "--model", "all-interval", "--n", "5", "--mode", "precedence"],
        ["compare", "--model", "all-interval", "--n", "5", "--mode", "none"],
        ["solve", "--model", "pigeonhole", "--n", "8",
         "--mode", "static-lex"],                                  # group too large
    ],
)
def test_usage_and_model_errors_exit_two(capsys, argv):
    assert main(argv) == 2
    assert "error:" in capsys.readouterr().err


def test_static_lex_class_cap_names_the_limit(capsys):
    argv = ["solve", "--model", "pigeonhole", "--n", "8", "--mode", "static-lex"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "static-lex" in err and "up to 8 values" in err and "class of 9" in err
    assert "closure exceeded cap" not in err


def test_bad_dimacs_reports_line_number(capsys, tmp_path):
    bad = tmp_path / "bad.col"
    bad.write_text("p edge 3 1\ne 1 9\n")
    code = main(
        ["solve", "--model", "coloring", "--file", str(bad), "--colors", "2"]
    )
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_unknown_arguments_exit_two(capsys):
    assert main(["solve", "--model", "all-interval", "--n", "5", "--frobnicate"]) == 2
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


@pytest.mark.parametrize("error", [RecursionError("maximum recursion depth exceeded"),
                                   KeyError("lost\nline")])
def test_internal_error_exits_four_without_traceback(capsys, monkeypatch, error):
    def broken(args):
        raise error

    monkeypatch.setattr(cli, "cmd_solve", broken)
    code = main(["solve", "--model", "all-interval", "--n", "5"])
    assert code == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = err.splitlines()
    assert line.startswith(f"internal error: {type(error).__name__}: ")


def test_budget_exhaustion_exits_three(capsys):
    code = main(
        ["solve", "--model", "all-interval", "--n", "8", "--all", "--budget", "10"]
    )
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and "budget" in err[0]
    # the search stopped at its 11th node and says how far it got
    assert err[1] == (
        "partial stats: nodes=11 branches=10 failures=5 solutions=1"
        " propagation_calls=204 max_depth=4"
    )


@pytest.mark.parametrize("command", ["solve", "compare", "verify"])
def test_orderings_are_applied_and_echoed(capsys, command):
    argv = [command, "--model", "all-interval", "--n", "6", "--mode", "static-lex"]
    argv += ["--mode", "getree"] if command != "solve" else ["--all"]
    argv += ["--var-order", "min-domain", "--val-order", "descending"]
    code, payload = run_json(capsys, argv)
    assert code == 0
    assert payload["config"]["var_order"] == "min-domain"
    assert payload["config"]["val_order"] == "descending"
    config = SearchConfig(var_order="min-domain", val_order="descending", symmetry_mode="none")
    model = build_all_interval(6)
    for run in payload["runs"]:
        sols, stats = solve(model, replace(config, symmetry_mode=run["mode"]))
        if command != "verify":
            assert run["solution_count"] == len(sols)
            assert run["solutions"] == [list(s) for s in sols[:SOLUTION_SAMPLE_CAP]]
        assert run["stats"]["nodes"] == stats.nodes
    # the default orders differ in search, so the flags did reach it
    _, plain = run_json(capsys, argv[:-4])
    assert plain["config"]["var_order"] == "input"
    assert plain["config"]["val_order"] == "ascending"
    assert [r["stats"]["nodes"] for r in plain["runs"]] != [
        r["stats"]["nodes"] for r in payload["runs"]
    ]


def test_budget_env_var_is_honoured(capsys, monkeypatch):
    monkeypatch.setenv("VALSYM_BUDGET", "10")
    code = main(["solve", "--model", "all-interval", "--n", "8", "--all"])
    assert code == 3
    capsys.readouterr()
    # an explicit flag overrides the environment
    code = main(
        ["solve", "--model", "all-interval", "--n", "8", "--all", "--budget", "1000000"]
    )
    assert code == 0


def test_invalid_budget_env_var_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("VALSYM_BUDGET", "lots")
    assert main(["solve", "--model", "all-interval", "--n", "5"]) == 2
    assert "VALSYM_BUDGET" in capsys.readouterr().err


def test_reported_budget_reflects_flag(capsys):
    code, payload = run_json(
        capsys,
        ["solve", "--model", "all-interval", "--n", "5", "--budget", "999"],
    )
    assert code == 0
    assert payload["config"]["budget"] == 999
