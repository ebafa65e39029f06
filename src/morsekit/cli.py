"""Command-line entry point.

Exit codes: 0 all verdicts pass, 1 any fail verdict, 2 usage or input
errors.
"""
from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from .errors import ParseError, ValidationError
from .harness import fuzz, parse_problem, report_to_json, report_to_text, run
from .tolerances import DEFAULT


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "text"), default="json",
                        help="report rendering (default json)")
    parser.add_argument("--tol-null", type=float, default=None, metavar="X",
                        help="override the relative zero-band width")
    parser.add_argument("--tol-residual", type=float, default=None, metavar="X",
                        help="override the range-cosine cutoff: a functional whose "
                             "cosine with the band kernel exceeds X is out of range")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morsekit",
        description="Morse index and nullity of symmetric bilinear forms "
                    "under linear constraints, with theorem-vs-oracle checking")
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze",
                               help="run an abstract constrained-form problem file")
    p_analyze.add_argument("file", help="JSON problem file (kind abstract)")
    _common_flags(p_analyze)

    p_pde = sub.add_parser("pde",
                           help="run an interval boundary-form problem file")
    p_pde.add_argument("file", help="JSON problem file (kind pde)")
    _common_flags(p_pde)

    p_fuzz = sub.add_parser("fuzz", help="seeded theorem-verification campaign")
    p_fuzz.add_argument("--seed", type=int, required=True)
    p_fuzz.add_argument("--trials", type=int, required=True)
    p_fuzz.add_argument("--dim-max", type=int, default=8)
    p_fuzz.add_argument("--backend", choices=("exact", "float"), default="exact")
    p_fuzz.add_argument("--k", default=None, metavar="K1,K2",
                        help="comma-separated constraint-set sizes; restricts "
                             "all trials to multi-constraint instances")
    _common_flags(p_fuzz)
    return parser


def _emit(report, fmt: str) -> None:
    if fmt == "json":
        print(report_to_json(report))
    else:
        print(report_to_text(report))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    tol = DEFAULT.with_overrides(null_band=args.tol_null,
                                 residual=args.tol_residual)
    try:
        if args.command in ("analyze", "pde"):
            text = Path(args.file).read_text(encoding="utf-8")
            problem = parse_problem(text)
            expected = "abstract" if args.command == "analyze" else "pde"
            if problem.kind != expected:
                raise ValidationError(
                    f"{args.command} expects a problem of kind {expected!r}, "
                    f"got {problem.kind!r}")
            if args.tol_null is not None or args.tol_residual is not None:
                problem = dataclasses.replace(problem, tol=problem.tol.with_overrides(
                    null_band=args.tol_null, residual=args.tol_residual))
            report = run(problem)
        else:
            k_choices = None
            if args.k:
                try:
                    k_choices = tuple(int(v) for v in args.k.split(","))
                except ValueError:
                    raise ValidationError(f"--k expects integers, got {args.k!r}")
            report = fuzz(args.seed, args.trials, dim_max=args.dim_max,
                          backend=args.backend, k_choices=k_choices, tol=tol)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(report, args.format)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
