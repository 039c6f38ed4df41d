import json
from dataclasses import replace

import jsonschema
import pytest

from valsym import cli
from valsym.cli import main
from valsym.problems import build_all_interval, build_coloring, build_pigeonhole
from valsym.report import SOLUTION_SAMPLE_CAP, RunReport, load_schema
from valsym.search import SearchConfig, VerifyModeReport, solve
from valsym.symmetry import VarValueSymmetry

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
    # the mode-none run lists no solutions but counts them all
    (run,) = payload["runs"]
    assert run["solution_count"] == run["stats"]["solutions"] == 8
    assert run["solutions"] == [] and run["solutions_truncated"] is True


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


def test_verify_default_modes_skip_a_group_past_the_cap(capsys, tmp_path):
    # static-lex on 300 colours holds 299 value maps of 300 entries, past the
    # 70 560 it may hold, so verify with no --mode checks the three modes that
    # need no element list
    path = tmp_path / "vertex.col"
    path.write_text("p edge 1 0\n")
    argv = ["verify", "--model", "coloring", "--file", str(path), "--colors", "300"]
    code, payload = run_json(capsys, argv)
    assert code == 0
    modes = payload["verification"]["modes"]
    assert [v["mode"] for v in modes] == ["precedence", "channel", "getree"]
    assert all(v["passed"] for v in modes)


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
        ["solve", "--model", "coloring", "--file", "EDGE_FILE", "--colors", "300",
         "--mode", "static-lex"],                                  # group too large
        ["verify", "--model", "all-interval", "--n", "5",
         "--mode", "getree", "--mode", "getree"],                  # repeated mode
    ],
)
def test_usage_and_model_errors_exit_two(capsys, tmp_path, argv):
    edge = tmp_path / "edge.col"
    edge.write_text("p edge 2 1\ne 1 2\n")
    assert main([str(edge) if a == "EDGE_FILE" else a for a in argv]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("colors", [266, 267, 300])
def test_static_lex_class_cap_names_the_limit(capsys, tmp_path, colors):
    # static-lex on c colours holds c - 1 value maps of c entries each: 266
    # colours fit the 70 560 entries of 10 080 elements over 7 values, 267 not
    path = tmp_path / "edge.col"
    path.write_text("p edge 2 1\ne 1 2\n")
    argv = ["solve", "--model", "coloring", "--file", str(path), "--colors", str(colors),
            "--mode", "static-lex"]
    code = main(argv)
    err = capsys.readouterr().err
    if colors == 266:
        assert (code, err) == (0, "")
        return
    assert code == 2
    assert "static-lex" in err and f"up to 70560 entries, got {(colors - 1) * colors}" in err
    assert "closure exceeded cap" not in err


def test_verify_refuses_a_mode_before_it_enumerates(capsys, tmp_path):
    # three isolated vertices with 300 colours have 27 000 000 mode-none
    # solutions; static-lex on them is refused, and that must be the answer
    # rather than a budget overrun of the mode-none run
    path = tmp_path / "three.col"
    path.write_text("p edge 3 0\n")
    argv = ["verify", "--model", "coloring", "--file", str(path), "--colors", "300",
            "--mode", "static-lex", "--budget", "1000"]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "static-lex" in err and f"up to 70560 entries, got {299 * 300}" in err


def test_deep_path_is_solved_in_precedence_mode(capsys, tmp_path):
    n = 1200
    path = tmp_path / "path.col"
    path.write_text(f"p edge {n} {n - 1}\n" + "".join(f"e {i} {i + 1}\n" for i in range(1, n)))
    argv = ["solve", "--model", "coloring", "--file", str(path), "--colors", "3",
            "--mode", "precedence"]
    assert main(argv) == 0
    assert "error" not in capsys.readouterr().err


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


def test_verify_exits_two_on_a_declared_element_that_is_no_symmetry(capsys, monkeypatch, triangle_file):
    # swapping vertices 0 and 3 of edges 0-1, 1-2, 2-3, 0-2 maps a colouring
    # to an assignment that is none
    swap = VarValueSymmetry.variable_only((3, 1, 2, 0), 3)
    bogus = build_coloring(4, [(0, 1), (1, 2), (2, 3), (0, 2)], 3)
    bogus = replace(bogus, symmetry=replace(bogus.symmetry, explicit=(swap,)))
    monkeypatch.setattr(cli, "build_coloring_from_dimacs", lambda text, colors: bogus)
    code = main(["verify", "--model", "coloring", "--file", triangle_file, "--colors", "3"])
    assert code == cli.EXIT_USAGE == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: symmetry element ") and repr(swap) in line


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
        " propagation_calls=162 max_depth=4"
    )


def test_budget_exhaustion_emits_a_partial_json_report(capsys):
    argv = ["solve", "--model", "all-interval", "--n", "8", "--all", "--budget", "10"]
    code, payload = run_json(capsys, argv)
    assert code == 3
    assert payload["outcome"] == "budget-exceeded"
    assert payload["config"]["budget"] == 10 and payload["verification"] is None
    (run,) = payload["runs"]
    assert run["mode"] == "none"
    stats = {k: v for k, v in run["stats"].items() if k != "elapsed"}
    assert stats == {"nodes": 11, "branches": 10, "failures": 5, "solutions": 1,
                     "propagation_calls": 162, "max_depth": 4}
    # the solution found before the budget ran out is the full search's first
    assert run["solution_count"] == 1
    assert run["solutions"] == [list(solve(build_all_interval(8))[0][0])]
    # both stderr lines stay
    main(argv + ["--format", "json"])
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and "budget" in err[0] and err[1].startswith("partial stats:")
    code, payload = run_json(capsys, argv[:-2])
    assert code == 0 and payload["outcome"] == "complete"


def test_compare_budget_report_keeps_the_completed_modes(capsys):
    argv = ["compare", "--model", "all-interval", "--n", "8", "--mode", "static-lex",
            "--mode", "none", "--budget", "300"]
    code, payload = run_json(capsys, argv)
    assert code == 3
    assert payload["outcome"] == "budget-exceeded"
    # static-lex completed before none ran out, and its run comes first
    assert [(r["mode"], r["stats"]["nodes"]) for r in payload["runs"]] == [
        ("static-lex", 139), ("none", 301)
    ]
    main(argv + ["--format", "json"])
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and "budget" in err[0] and err[1].startswith("partial stats:")


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_non_positive_budget_is_a_usage_error(capsys, budget):
    assert main(["solve", "--model", "all-interval", "--n", "5", "--budget", budget]) == 2
    err = capsys.readouterr().err
    assert "enumeration_budget must be positive" in err and "exceeded" not in err


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


def test_reported_budget_reflects_flag(capsys):
    code, payload = run_json(
        capsys,
        ["solve", "--model", "all-interval", "--n", "5", "--budget", "999"],
    )
    assert code == 0
    assert payload["config"]["budget"] == 999
