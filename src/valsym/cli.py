"""Command line interface.

    valsym solve   --model all-interval --n 11 --mode static-lex
    valsym compare --model pigeonhole --n 10 --mode precedence --mode getree
    valsym verify  --model all-interval --n 6

Exit codes: 0 success / verification PASS, 1 verification FAIL,
2 usage or model errors, 3 enumeration budget exceeded, 4 internal error.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Optional, Sequence

from .errors import BudgetExceeded, GroupTooLarge, ModelError
from .model import Model
from .problems import build_all_interval, build_coloring_from_dimacs, build_pigeonhole
from .report import RunReport
from .search import (
    DEFAULT_BUDGET,
    MODES,
    VAL_ORDERS,
    VAR_ORDERS,
    ModeResult,
    SearchConfig,
    applicable_modes,
    compare_methods,
    solve,
    verify_symmetry_breaking,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="valsym",
        description="finite-domain solving with value-symmetry breaking",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, multi_mode: bool):
        p.add_argument(
            "--model",
            required=True,
            choices=["all-interval", "coloring", "pigeonhole"],
            help="built-in model family",
        )
        p.add_argument("--n", type=int, help="size for all-interval / pigeonhole")
        p.add_argument("--file", help="DIMACS edge file for --model coloring")
        p.add_argument("--colors", type=int, help="number of colors for coloring")
        p.add_argument(
            "--mode",
            action="append",
            choices=list(MODES),
            help="symmetry handling mode" + (" (repeatable)" if multi_mode else ""),
        )
        p.add_argument(
            "--var-order", choices=VAR_ORDERS, default="input", help="branching variable order"
        )
        p.add_argument(
            "--val-order", choices=VAL_ORDERS, default="ascending", help="branching value order"
        )
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="search node budget")
        p.add_argument("--format", choices=["table", "json"], default="table")
        p.add_argument("--seed", type=int, help="echoed into the report")

    p_solve = sub.add_parser("solve", help="enumerate solutions of one model")
    add_common(p_solve, multi_mode=False)
    p_solve.add_argument("--all", action="store_true", help="return every solution")
    p_solve.add_argument("--limit", type=int, help="stop after this many solutions")

    p_compare = sub.add_parser("compare", help="run several modes, report stats")
    add_common(p_compare, multi_mode=True)

    p_verify = sub.add_parser(
        "verify", help="check one-solution-per-orbit for each mode"
    )
    add_common(p_verify, multi_mode=True)
    return parser


def _model_from_args(args) -> Model:
    if args.model == "all-interval":
        if args.n is None:
            raise ModelError("--model all-interval requires --n")
        return build_all_interval(args.n)
    if args.model == "pigeonhole":
        if args.n is None:
            raise ModelError("--model pigeonhole requires --n")
        return build_pigeonhole(args.n)
    if args.model == "coloring":
        if args.file is None or args.colors is None:
            raise ModelError("--model coloring requires --file and --colors")
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ModelError(f"cannot read {args.file}: {exc}") from exc
        return build_coloring_from_dimacs(text, args.colors)
    raise ModelError(f"unknown model {args.model!r}")


def _base_config(args, mode: str, limit: Optional[int]) -> SearchConfig:
    return SearchConfig(
        var_order=args.var_order,
        val_order=args.val_order,
        symmetry_mode=mode,
        solution_limit=limit,
        enumeration_budget=args.budget,
    )


def _report(args, model: Model, modes: list[str], **fields) -> RunReport:
    """A report of this command that echoes the shared flags."""
    return RunReport(
        command=args.command,
        model=model,
        modes=modes,
        var_order=args.var_order,
        val_order=args.val_order,
        budget=args.budget,
        seed=args.seed,
        **fields,
    )


def _emit(report: RunReport, fmt: str):
    if fmt == "json":
        print(report.to_json())
    else:
        print(report.render())


@contextmanager
def _partial_report_on_budget(args, model: Model, modes: list[str], limit: Optional[int] = None):
    """With --format json, a search that runs out of budget still emits a
    report: the runs of the modes that completed, then the partial run of the
    mode that ran out. `main` then prints the error and exits 3."""
    try:
        yield
    except BudgetExceeded as exc:
        if args.format == "json":
            run = ModeResult(exc.mode, exc.solutions, exc.stats)
            report = _report(args, model, modes, solution_limit=limit,
                             results=[*exc.completed, run], outcome="budget-exceeded")
            _emit(report, "json")
        raise


def cmd_solve(args) -> int:
    model = _model_from_args(args)
    modes = args.mode or ["none"]
    if len(modes) > 1:
        raise ModelError("solve takes a single --mode")
    mode = modes[0]
    if args.all and args.limit is not None:
        raise ModelError("--all and --limit are mutually exclusive")
    limit = None if args.all else (args.limit if args.limit is not None else 1)
    with _partial_report_on_budget(args, model, [mode], limit):
        sols, stats = solve(model, _base_config(args, mode, limit))
    report = _report(
        args, model, [mode], solution_limit=limit, results=[ModeResult(mode, sols, stats)]
    )
    _emit(report, args.format)
    return EXIT_OK


def cmd_compare(args) -> int:
    model = _model_from_args(args)
    modes = args.mode or []
    if len(modes) < 2:
        raise ModelError("compare needs at least two --mode flags")
    with _partial_report_on_budget(args, model, modes):
        results = compare_methods(model, modes, _base_config(args, "none", None))
    report = _report(args, model, modes, results=[results[m] for m in modes])
    _emit(report, args.format)
    return EXIT_OK


def cmd_verify(args) -> int:
    model = _model_from_args(args)
    modes = args.mode
    if not modes:
        modes = applicable_modes(model)
        if not modes:
            raise ModelError("model declares no symmetries to verify")
    with _partial_report_on_budget(args, model, modes):
        passed, reports, none_stats = verify_symmetry_breaking(
            model, modes, _base_config(args, "none", None)
        )
    report = _report(
        args, model, modes, results=[ModeResult("none", [], none_stats)], verification=reports
    )
    _emit(report, args.format)
    return EXIT_OK if passed else EXIT_FAIL


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    handlers = {"solve": cmd_solve, "compare": cmd_compare, "verify": cmd_verify}
    try:
        return handlers[args.command](args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        counts = exc.stats.as_dict().items()
        partial = " ".join(f"{k}={v}" for k, v in counts if k != "elapsed")
        print(f"partial stats: {partial}", file=sys.stderr)
        return EXIT_BUDGET
    except (GroupTooLarge, ValueError) as exc:  # ModelError and the like are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # a fault of valsym itself: keep it apart from the verdict codes and
        # out of the traceback printer
        detail = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
