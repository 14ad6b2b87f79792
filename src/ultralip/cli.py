"""Command-line front door: parse inputs, dispatch analyses, emit reports.

Exit codes: 0 for success / a passing analysis, 1 when the analysis is
negative (a violation, a failed correspondence, a failed verification),
2 for usage errors, 3 for an internal error (a broken invariant, reported
with its traceback on stderr).  Norms are printed as p^k strings and
witnesses as exact rationals; --json output is schema-stable and
byte-reproducible.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import traceback

from .qp_core import PadicScalar, PrimeContext, format_ord
from .regions import Ball, Window
from .cells import Cell, ZeroCellHasNoBalls, enumerate_balls, parse_cell, format_cell, ball_of_cell
from .jacobian import (
    BallCorrespondence,
    CorrespondenceFailure,
    JacobianCertificate,
    NotABall,
    check_ball_correspondence,
    check_jacobian_on_ball,
    map_ball,
)
from .lipschitz import (
    CenterNotZero,
    EmptyRegion,
    certified_cell_constant,
    counterexample_exloc,
    counterexample_exloc2,
    empirical_lipschitz,
)
from .prepare import parse_factored, prepare, verify_prepared
from .syntax import (
    Condition,
    ParseError,
    PiecewiseFunction,
    TermError,
    TrueCond,
    _Parser,
    parse,
    parse_condition,
    parse_term,
)
from .terms import evaluate

__all__ = ["main", "dispatch"]


class UsageError(Exception):
    pass


# Errors that describe bad input, reported as "error: ..." with exit 2;
# ValueError is the type the library raises when it validates arguments.
_USAGE_ERRORS = (UsageError, TermError, ValueError, EmptyRegion, CenterNotZero, ZeroCellHasNoBalls)


def _parse_window(text: str) -> tuple:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError:
        raise UsageError(f"window must look like a:b, got {text!r}") from None


def _read(text: str, production, what: str):
    """The whole of a command-line argument as one production of the term grammar."""
    try:
        return _Parser(text).read(production)
    except ParseError as err:
        raise UsageError(f"bad {what} {text!r}: {err}") from None


def _parse_ball(text: str, ctx: PrimeContext) -> Ball:
    """Ball literal "c + p^k" meaning c + p^k Z_p."""
    center, base, k = _read(text, _Parser.ball, "ball literal")
    if base != ctx.p:
        raise UsageError(f"ball literal uses base {base}, but the prime is {ctx.p}")
    return Ball(ctx.scalar(center), k)


def _scalar(text: str, ctx: PrimeContext) -> PadicScalar:
    """A rational command-line argument such as "-3/4" as a scalar."""
    return ctx.scalar(_read(text, _Parser.rational, "rational"))


def _parse_point(pairs, ctx: PrimeContext) -> dict:
    point = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise UsageError(f"--at expects name=rational, got {pair!r}")
        name, value = pair.split("=", 1)
        name = name.strip()
        if name in point:
            raise UsageError(f"--at names {name!r} twice")
        point[name] = _scalar(value, ctx)
    return point


def _emit(payload: dict, text: str, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(text)


def _cell_from_args(args, ctx: PrimeContext) -> Cell:
    """A cell from --cell, or assembled from --center / --coset / --var."""
    values = {f"--{name}": getattr(args, name) for name in ("center", "coset", "var")}
    given = {flag: value for flag, value in values.items() if value is not None}
    if args.cell is not None:
        if given:
            raise UsageError(f"--cell cannot be combined with {', '.join(given)}")
        return parse_cell(args.cell, ctx)
    if args.coset is None:
        raise UsageError("provide --cell, or --coset (optionally with --center)")
    for flag, value in given.items():
        if ";" in value:  # one segment each: the values are spliced into a literal
            raise UsageError(f"{flag} takes one value, not cell segments")
    literal = f"cell(center={args.center or 0}; coset={args.coset}; all; var={args.var or 't'})"
    return parse_cell(literal, ctx)


def _norm_str(p: int, exponent) -> str:
    return "0" if exponent is None else f"{p}^{exponent}"


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_eval(args, ctx: PrimeContext) -> int:
    f = parse(args.function)
    point = _parse_point(args.at, ctx)
    if isinstance(f, Condition):
        raise UsageError("eval expects a term, not a condition")
    if isinstance(f, PiecewiseFunction):
        # Imported here, not at module level: the benchmark's tracer expects a
        # call through every module-level binding of a traced function, and
        # no command of its tour evaluates a piecewise function.
        from .terms import evaluate_piecewise

        value = evaluate_piecewise(f, point, ctx)
    else:
        value = evaluate(f, point, ctx)
    payload = {
        "value": str(value),
        "ord": format_ord(value.ord()),
        "norm": _norm_str(ctx.p, value.norm_exponent()),
    }
    _emit(payload, f"{value}  (ord {payload['ord']}, |.| = {payload['norm']})", args.json)
    return 0


def _cmd_ord(args, ctx: PrimeContext) -> int:
    x = _scalar(args.value, ctx)
    v = format_ord(x.ord())
    _emit({"ord": v}, v, args.json)
    return 0


def _cmd_ac(args, ctx: PrimeContext) -> int:
    x = _scalar(args.value, ctx)
    r = x.ac(args.n)
    _emit({"residue": r, "modulus": ctx.p**args.n}, f"{r} mod {ctx.p}^{args.n}", args.json)
    return 0


def _cmd_ball_of_cell(args, ctx: PrimeContext) -> int:
    cell = _cell_from_args(args, ctx)
    t = _scalar(args.t, ctx)
    ball = ball_of_cell(cell, t)
    _emit({"ball": _ball_dict(ball)}, str(ball), args.json)
    return 0


def _cmd_enumerate_balls(args, ctx: PrimeContext) -> int:
    cell = _cell_from_args(args, ctx)
    lo, hi = _parse_window(args.window)
    balls = enumerate_balls(cell, {}, Window(lo, hi, 1))
    payload = {"balls": [_ball_dict(b) for b in balls]}
    _emit(payload, "\n".join(str(b) for b in balls) if balls else "(no balls)", args.json)
    return 0


def _ball_dict(ball: Ball) -> dict:
    return {"center": str(ball.center), "radius_ord": ball.radius_ord}


def _cmd_jacobian(args, ctx: PrimeContext) -> int:
    f = parse_term(args.function)
    ball = _parse_ball(args.ball, ctx)
    result = check_jacobian_on_ball(f, ball, args.depth)
    if isinstance(result, JacobianCertificate):
        text = (
            f"Jacobian property certified on {result.ball} at depth {result.verified_depth}\n"
            f"  jac_ord = {result.jac_ord}  (|f'| = {ctx.p}^{-result.jac_ord})\n"
            f"  image   = {result.image}"
        )
        _emit(result.as_json_dict(), text, args.json)
        return 0
    text = (
        f"violation: {result.failed_condition.value}\n"
        f"  witness: {', '.join(str(w) for w in result.witness)}\n"
        f"  {result.detail}"
    )
    _emit(result.as_json_dict(), text, args.json)
    return 1


def _cmd_map_ball(args, ctx: PrimeContext) -> int:
    f = parse_term(args.function)
    ball = _parse_ball(args.ball, ctx)
    result = map_ball(f, ball, args.depth)
    if isinstance(result, NotABall):
        payload = {
            "not_a_ball": {
                "witnesses": [str(w) for w in result.witnesses],
                "detail": result.detail,
            }
        }
        _emit(payload, f"not a ball: {result.detail}", args.json)
        return 1
    _emit({"image": _ball_dict(result)}, str(result), args.json)
    return 0


def _corr_payload(corr: BallCorrespondence) -> dict:
    return {
        "pairs": [
            {"source": _ball_dict(a), "image": _ball_dict(b)} for a, b in corr.pairs
        ],
        "image_cell": format_cell(corr.fitted_image_cell),
        "depth": corr.depth,
    }


def _cmd_correspondence(args, ctx: PrimeContext) -> int:
    f = parse_term(args.function)
    cell = _cell_from_args(args, ctx)
    lo, hi = _parse_window(args.window)
    extras = [_scalar(c, ctx) for c in args.candidate or ()]
    result = check_ball_correspondence(
        f, cell, {}, Window(lo, hi, 1), args.depth, extra_candidates=extras
    )
    if isinstance(result, CorrespondenceFailure):
        payload = {
            "failure": result.kind,
            "witnesses": [str(w) for w in result.witnesses],
            "detail": result.detail,
        }
        _emit(payload, f"correspondence failed ({result.kind}): {result.detail}", args.json)
        return 1
    lines = [f"{a}  ->  {b}" for a, b in result.pairs]
    lines.append(f"image cell: {format_cell(result.fitted_image_cell)}")
    _emit(_corr_payload(result), "\n".join(lines), args.json)
    return 0


def _cmd_lipschitz(args, ctx: PrimeContext) -> int:
    f = parse(args.function)
    if isinstance(f, Condition):
        raise UsageError("lipschitz expects a term or piecewise function")
    region = parse_condition(args.region) if args.region else TrueCond()
    lo, hi = _parse_window(args.window)
    report = empirical_lipschitz(
        f, region, Window(lo, hi, args.depth), ctx, region_text=args.region or "true"
    )
    c_str = _norm_str(ctx.p, report.constant_exponent) if report.constant_exponent is not None else "0 (f constant on region)"
    witness = (
        ""
        if report.witness is None
        else f"\n  witness: ({_w_str(report.witness[0])}, {_w_str(report.witness[1])})"
    )
    text = (
        f"empirical lower bound C = {c_str} (depth {report.depth})\n"
        f"  region: {report.region}{witness}"
    )
    _emit(report.as_json_dict(), text, args.json)
    return 0


def _w_str(side) -> str:
    if isinstance(side, tuple):
        return "(" + ", ".join(str(v) for v in side) + ")"
    return str(side)


def _cmd_certify(args, ctx: PrimeContext) -> int:
    f = parse_term(args.function)
    cell = _cell_from_args(args, ctx)
    lo, hi = _parse_window(args.window)
    extras = [_scalar(c, ctx) for c in args.candidate or ()]
    # before the correspondence, so a nonzero source centre is a usage
    # error whatever f does on the cell
    if not cell.center_at({}).is_zero:
        raise CenterNotZero("source cell center must be 0")
    corr = check_ball_correspondence(
        f, cell, {}, Window(lo, hi, 1), args.depth, extra_candidates=extras
    )
    report = corr
    if isinstance(corr, BallCorrespondence):
        report = certified_cell_constant(f, cell, corr, args.epsilon_exponent)
    if isinstance(report, CorrespondenceFailure):
        payload = {"failure": report.kind, "detail": report.detail}
        _emit(payload, f"certification failed ({report.kind}): {report.detail}", args.json)
        return 1
    payload = report.as_json_dict()
    payload["correspondence"] = _corr_payload(corr)
    text = (
        f"certified upper bound C = {ctx.p}^{report.constant_exponent} "
        f"(depth {report.depth})\n  region: {report.region}"
    )
    _emit(payload, text, args.json)
    return 0


def _cmd_prepare(args, ctx: PrimeContext) -> int:
    f = parse_factored(args.function, ctx)
    lo, hi = _parse_window(args.window)
    pieces = prepare(f, Window(lo, hi, 1), m_depth=args.m_depth)
    failures = []
    if args.verify:
        for piece in pieces:
            check = verify_prepared(f, piece, args.depth)
            if not check.passed:
                failures.append((piece, check))
    payload = {
        "term": str(f),
        "pieces": [
            {
                "cell": format_cell(p.cell),
                "center_index": p.chosen_center_index,
                "exponent": p.exponent,
                "h_exponent": p.h_exponent,
            }
            for p in pieces
        ],
    }
    lines = [f"{len(pieces)} pieces for {f}:"]
    for p in pieces:
        lines.append(
            f"  {format_cell(p.cell)}   ord f = {p.h_exponent} + {p.exponent}*ord(t-c{p.chosen_center_index})"
        )
    if args.verify:
        payload["verified"] = not failures
        payload["verify_depth"] = args.depth
        lines.append(
            f"verification at depth {args.depth}: "
            + ("all pieces pass" if not failures else f"{len(failures)} pieces FAIL")
        )
        for piece, check in failures:
            lines.append(f"  FAIL {format_cell(piece.cell)}: {check.detail}")
    _emit(payload, "\n".join(lines), args.json)
    return 1 if failures else 0


def _cmd_example(args, ctx: PrimeContext) -> int:
    lo, hi = _parse_window(args.window)
    if args.which == "exloc":
        trace = counterexample_exloc(Window(lo, hi, args.depth), ctx)
        lines = [
            f"locally constant, nowhere piecewise Lipschitz: f(t) = |t| in Q_{ctx.p}",
            f"verified over ord in [{lo},{hi}] at depth {args.depth}; trace:",
        ]
        for e in trace.entries:
            lines.append(
                f"  n={e.level}: pair ({e.witness[0]}, {e.witness[1]})  ratio = {ctx.p}^{e.ratio_exponent}"
            )
        _emit(trace.as_json_dict(), "\n".join(lines), args.json)
        return 0
    trace = counterexample_exloc2(args.levels, ctx)
    lines = [
        f"C^1 with zero derivative, not locally Lipschitz at 0 (p = {ctx.p}):",
    ]
    for e in trace.entries:
        lines.append(
            f"  n={e.level}: pair ({e.witness[0]}, {e.witness[1]})  ratio = {ctx.p}^{e.ratio_exponent}"
        )
    lines.append("derivative trace at 0:")
    for n, q in trace.derivative_entries:
        lines.append(f"  n={n}: |g(p^n)-g(0)|/|p^n| = {ctx.p}^{q}")
    _emit(trace.as_json_dict(), "\n".join(lines), args.json)
    return 0


# ---------------------------------------------------------------------------
# parser assembly


# argparse reads an argument that starts with "-" as an option unless it
# looks like a negative int or decimal, so "-27/4" and the window "-2:3"
# would be taken for unknown options.  Every command counts negative
# rationals and windows as values too.
_NEGATIVE_VALUE = re.compile(r"^-\d+(/\d+|:-?\d+)?$|^-\d*\.\d+$")


# Built once per process: assembling the parser costs more than most one-line
# commands, and parse_args leaves the parser unchanged, so callers can share it.
@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ultralip",
        description="Exact p-adic Lipschitz analysis of semialgebraic functions.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, depth_default=None):
        p._negative_number_matcher = _NEGATIVE_VALUE
        p.add_argument("-p", "--prime", type=int, required=True, help="the prime p")
        p.add_argument("--json", action="store_true", help="emit JSON")
        if depth_default is not None:  # only the commands that read args.depth
            p.add_argument(
                "-M", "--depth", type=int, default=depth_default, help="verification depth"
            )

    def _cell_args(p):
        p.add_argument("--cell", help="cell literal cell(...)")
        p.add_argument("--center", help="cell center rational (with --coset)")
        p.add_argument(
            "--coset", metavar='"l*Q(m,n)"', help="cell coset, alternative to --cell"
        )
        p.add_argument("--var", help="fiber variable name (default t)")

    p = sub.add_parser("eval", help="evaluate a term at a rational point")
    common(p)
    p.add_argument("-f", "--function", required=True)
    p.add_argument("--at", action="append", metavar="NAME=RAT")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("ord", help="p-adic valuation of a rational")
    common(p)
    p.add_argument("value")
    p.set_defaults(handler=_cmd_ord)

    p = sub.add_parser("ac", help="angular component mod p^n")
    common(p)
    p.add_argument("-n", type=int, default=1, help="modulus depth")
    p.add_argument("value")
    p.set_defaults(handler=_cmd_ac)

    p = sub.add_parser("ball-of-cell", help="maximal ball of a cell through a point")
    common(p)
    _cell_args(p)
    p.add_argument("--t", required=True, help="fiber point (rational)")
    p.set_defaults(handler=_cmd_ball_of_cell)

    p = sub.add_parser("enumerate-balls", help="balls of a cell in a window")
    common(p)
    _cell_args(p)
    p.add_argument("--window", required=True, metavar="A:B")
    p.set_defaults(handler=_cmd_enumerate_balls)

    p = sub.add_parser("jacobian", help="certify the Jacobian property on a ball")
    common(p, depth_default=3)
    p.add_argument("-f", "--function", required=True)
    p.add_argument("--ball", required=True, metavar='"c + p^k"')
    p.set_defaults(handler=_cmd_jacobian)

    p = sub.add_parser("map-ball", help="image of a ball under a term")
    common(p, depth_default=3)
    p.add_argument("-f", "--function", required=True)
    p.add_argument("--ball", required=True, metavar='"c + p^k"')
    p.set_defaults(handler=_cmd_map_ball)

    p = sub.add_parser("correspondence", help="ball correspondence of a cell under f")
    common(p, depth_default=3)
    p.add_argument("-f", "--function", required=True)
    _cell_args(p)
    p.add_argument("--window", required=True, metavar="A:B")
    p.add_argument("--candidate", action="append", help="extra image-cell center")
    p.set_defaults(handler=_cmd_correspondence)

    p = sub.add_parser("lipschitz", help="empirical Lipschitz lower bound with witness")
    common(p, depth_default=2)
    p.add_argument("-f", "--function", required=True)
    p.add_argument("--region", default=None, help="condition (default: true)")
    p.add_argument("--window", required=True, metavar="A:B")
    p.set_defaults(handler=_cmd_lipschitz)

    p = sub.add_parser("certify", help="certified per-cell Lipschitz constant")
    common(p, depth_default=3)
    p.add_argument("-f", "--function", required=True)
    _cell_args(p)
    p.add_argument("--window", required=True, metavar="A:B")
    p.add_argument("--candidate", action="append")
    p.add_argument("--epsilon-exponent", type=int, default=0, help="epsilon = p^e")
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("prepare", help="prepared cell decomposition of a factored term")
    common(p, depth_default=3)
    p.add_argument("-f", "--function", required=True, help='"u * (t - c1)^a1 * ..."')
    p.add_argument("--window", required=True, metavar="A:B")
    p.add_argument("--m-depth", type=int, default=1)
    p.add_argument("--verify", action="store_true", help="run the oracle on each piece")
    p.set_defaults(handler=_cmd_prepare)

    p = sub.add_parser("example", help="reproduce a counterexample family")
    common(p, depth_default=2)
    p.add_argument("which", choices=["exloc", "exloc2"])
    p.add_argument("--window", default="0:4", metavar="A:B")
    p.add_argument("--levels", type=int, default=5, help="levels for exloc2")
    p.set_defaults(handler=_cmd_example)

    return top


def dispatch(argv) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if getattr(args, "depth", 1) < 1:
            raise UsageError(f"depth must be >= 1, got {args.depth}")
        return args.handler(args, PrimeContext(args.prime))
    except _USAGE_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        print("internal error: this is a bug in ultralip, not in the input", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    return dispatch(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
