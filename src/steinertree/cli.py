"""Command line interface.

Subcommands:
  solve <file.stp>   solve one instance, print JSON or a CSV row
  bench <directory>  solve every .stp file, print or write CSV
  bounds             guarantee calculators (ratio curves, crossover point)

Exit codes: 0 success (failed bound checks are reported in-band), 1 usage
errors, 2 input errors, 3 internal invariant violations. Set STEINER_LOG to
"info" or "trace" for progress output on stderr.

Examples:
  steinertree solve instance.stp --k 3 --mode full
  steinertree bench ./instances --k 4 --out results.csv
  steinertree bounds --solve-alpha-star --tol 1e-8
"""
from __future__ import annotations

import argparse
import csv
import io
import logging
import os
import sys

from . import __version__
from .bench import run_benchmark
from .bounds import crossover_alpha, ratio_curves
from .errors import InputError, InternalInvariantError, UsageError
from .solver import RunConfig, RunResult, solve
from .stp import load_stp


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1 instead of argparse's 2
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="steinertree",
                     description="Two-phase greedy Steiner tree solver")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    def add_solver_flags(p: _Parser) -> None:
        p.add_argument("--k", type=int, default=3,
                       help="largest terminal count per component (default 3)")
        p.add_argument("--mode", choices=("mst", "phase1", "full"),
                       default="full", help="pipeline stage to stop at")
        p.add_argument("--exact-opt-limit", type=int, default=10,
                       help="run the exact optimum oracle up to this many terminals")
        p.add_argument("--exact-optk-limit", type=int, default=8,
                       help="run the restricted optimum oracle up to this many terminals")

    p_solve = sub.add_parser("solve", help="solve one .stp instance")
    p_solve.add_argument("file", help="path to an .stp file")
    add_solver_flags(p_solve)
    p_solve.add_argument("--format", choices=("json", "csv"), default="json",
                         help="output format (default json)")

    p_bench = sub.add_parser("bench", help="solve every .stp file in a directory")
    p_bench.add_argument("directory", help="directory containing .stp files")
    add_solver_flags(p_bench)
    p_bench.add_argument("--out", default=None, help="write CSV here instead of stdout")

    p_bounds = sub.add_parser("bounds", help="guarantee calculators")
    which = p_bounds.add_mutually_exclusive_group(required=True)
    which.add_argument("--alpha", type=float, default=None,
                       help="evaluate the ratio curves at this point")
    which.add_argument("--solve-alpha-star", action="store_true",
                       help="find where the two ratio curves cross")
    p_bounds.add_argument("--tol", type=float, default=1e-8,
                          help="bisection tolerance (default 1e-8)")
    return parser


def _configure_logging() -> None:
    """STEINER_LOG=info or trace; any other nonempty value says so and
    keeps WARNING."""
    value = os.environ.get("STEINER_LOG", "")
    level = {"trace": logging.DEBUG, "info": logging.INFO}.get(value.lower())
    if level is None and value:
        print(f"STEINER_LOG={value} is not a level; use info or trace", file=sys.stderr)
    logging.basicConfig(
        level=level if level is not None else logging.WARNING,
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def _config(args) -> RunConfig:
    return RunConfig(k=args.k, mode=args.mode, exact_opt_limit=args.exact_opt_limit,
                     exact_optk_limit=args.exact_optk_limit)


def _cmd_solve(args) -> int:
    result = solve(load_stp(args.file), _config(args))
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(RunResult.csv_header())
        writer.writerow(result.to_csv_row())
        sys.stdout.write(buf.getvalue())
    else:
        print(result.to_json())
    if not result.report.ok:
        print(f"warning: bound checks failed: {', '.join(result.report.failed)}",
              file=sys.stderr)
    return 0


def _cmd_bench(args) -> int:
    _, text = run_benchmark(args.directory, _config(args), args.out)
    if args.out:
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_bounds(args) -> int:
    # The calculators reject a bad tolerance or alpha with ValueError.
    try:
        if args.solve_alpha_star:
            lines = dict(zip(("alpha_star", "ratio"), crossover_alpha(args.tol)))
        else:
            merge_curve, double_curve = ratio_curves(args.alpha)
            lines = {"alpha": args.alpha, "curve_merge_bound": merge_curve,
                     "curve_doubling": double_curve,
                     "worst_case": max(merge_curve, double_curve)}
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    for name, value in lines.items():
        print(f"{name} = {value:.8f}")
    return 0


def main(argv=None) -> int:
    _configure_logging()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (solve, bench, bounds)")
        commands = {"solve": _cmd_solve, "bench": _cmd_bench, "bounds": _cmd_bounds}
        return commands[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (InputError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
