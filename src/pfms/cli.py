"""Command line front end.

Usage:
    pfms validate FILE
    pfms check-convex FILE [--mode exact|sampled] [--samples N] [--lambdas N] [--seed S]
    pfms cut FILE --r R --s S --t T [--level K]
    pfms hull FILE
    pfms op union FILE FILE
    pfms op intersection FILE FILE
    pfms op complement FILE
    pfms op blend FILE FILE --lambda L
    pfms jensen FILE --points X1,X2,... --weights W1,W2,... [--level K]
    pfms suite --name NAME [--trials N] [--seed S]

Instances travel as JSON documents; operation results are printed in the
same format so commands compose through files.  All reports go to stdout
as JSON, diagnostics to stderr.

Exit codes:
    0   command succeeded; any checked property holds
    1   a checked property fails (instance invalid, not convex, an
        inequality violated, or a suite missing its expectation)
    2   usage, file, or data errors
"""

from __future__ import annotations

import argparse
import json
import sys

from .core import CutThresholds, PfmsError, PictureFuzzyMultiset
from .algebra import complement, convex_combination, intersection, union
from .convexity import (
    convex_hull,
    cut,
    is_convex_exact,
    is_convex_sampled,
    jensen_check,
)
from .fileio import emit_instance, parse_instance
from .lab import SUITE_NAMES, run_suite


def _read_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise PfmsError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _load(path: str) -> PictureFuzzyMultiset:
    return parse_instance(_read_text(path))


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _cmd_validate(args: argparse.Namespace) -> int:
    text = _read_text(args.file)
    try:
        ms = parse_instance(text)
    except PfmsError as exc:
        _emit({"valid": False, "error": str(exc)})
        return 1
    _emit(
        {
            "valid": True,
            "points": ms.size,
            "depth": ms.depth,
            "domain": [ms.grid.lo, ms.grid.hi],
        }
    )
    return 0


def _cmd_check_convex(args: argparse.Namespace) -> int:
    ms = _load(args.file)
    if args.mode == "exact":
        report = is_convex_exact(ms)
    else:
        report = is_convex_sampled(
            ms,
            pair_samples=args.samples,
            lambda_samples=args.lambdas,
            seed=args.seed,
        )
    _emit(
        {
            "convex": report.convex,
            "mode": args.mode,
            "levels": report.levels,
            "vacuous": report.vacuous,
            "witness": report.witness and report.witness.to_dict(),
        }
    )
    return 0 if report.convex else 1


def _cmd_cut(args: argparse.Namespace) -> int:
    ms = _load(args.file)
    thresholds = CutThresholds(args.r, args.s, args.t)
    if args.level is not None:
        _emit({"intervals": cut(ms, thresholds, args.level).intervals})
    else:
        levels = range(1, ms.depth + 1)
        _emit({"levels": {str(k): cut(ms, thresholds, k).intervals for k in levels}})
    return 0


def _cmd_hull(args: argparse.Namespace) -> int:
    ms = _load(args.file)
    field = convex_hull(ms)
    _emit(
        {
            "domain": field.grid.points,
            "values": field.values.tolist(),
            "valid": field.mask.tolist(),
            "fully_valid": field.fully_valid,
        }
    )
    return 0


def _cmd_op(args: argparse.Namespace) -> int:
    first = _load(args.first)
    if args.operation == "complement":
        if args.second is not None:
            raise PfmsError("operation 'complement' takes a single instance")
        result = complement(first)
    else:
        if args.second is None:
            raise PfmsError(f"operation {args.operation!r} needs two instances")
        second = _load(args.second)
        if args.operation == "union":
            result = union(first, second)
        elif args.operation == "intersection":
            result = intersection(first, second)
        else:
            if args.lam is None:
                raise PfmsError("operation 'blend' needs --lambda")
            result = convex_combination(first, second, args.lam)
    print(emit_instance(result))
    return 0


def _cmd_jensen(args: argparse.Namespace) -> int:
    ms = _load(args.file)
    report = jensen_check(ms, args.points, args.weights, args.level)
    _emit(
        {
            "ok": report.ok,
            "level": report.level,
            "point": report.point,
            "grades": report.grades.as_tuple(),
            "slacks": report.slacks,
        }
    )
    return 0 if report.ok else 1


def _cmd_suite(args: argparse.Namespace) -> int:
    result = run_suite(args.name, args.trials, args.seed)
    print(result.to_json())
    return 0 if result.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfms",
        description="Picture fuzzy multisets on one-dimensional grids: "
        "validation, convexity checks, cuts, hulls, algebra, and "
        "seeded verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance document")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("check-convex", help="decide convexity")
    p.add_argument("file")
    p.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    p.add_argument("--samples", type=int, default=200,
                   help="coordinate pairs drawn in sampled mode")
    p.add_argument("--lambdas", type=int, default=21)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_check_convex)

    p = sub.add_parser("cut", help="threshold region per level")
    p.add_argument("file")
    p.add_argument("--r", "-r", type=float, required=True, dest="r",
                   metavar="POSITIVE_MIN")
    p.add_argument("--s", "-s", type=float, required=True, dest="s",
                   metavar="NEUTRAL_MIN")
    p.add_argument("--t", "-t", type=float, required=True, dest="t",
                   metavar="NEGATIVE_MAX")
    p.add_argument("--level", type=int, default=None,
                   help="1-based level; all levels when omitted")
    p.set_defaults(handler=_cmd_cut)

    p = sub.add_parser("hull", help="componentwise convex hull envelopes")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_hull)

    p = sub.add_parser("op", help="algebra on instances")
    p.add_argument(
        "operation", choices=("union", "intersection", "complement", "blend")
    )
    p.add_argument("first")
    p.add_argument("second", nargs="?", default=None)
    p.add_argument("--lambda", type=float, default=None, dest="lam",
                   help="blend weight on the first operand")
    p.set_defaults(handler=_cmd_op)

    p = sub.add_parser("jensen", help="multi-point blend inequality check")
    p.add_argument("file")
    p.add_argument("--points", type=_float_list, required=True)
    p.add_argument("--weights", type=_float_list, required=True)
    p.add_argument("--level", type=int, default=1)
    p.set_defaults(handler=_cmd_jensen)

    p = sub.add_parser("suite", help="run a seeded verification suite")
    p.add_argument("--name", choices=SUITE_NAMES, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (PfmsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
