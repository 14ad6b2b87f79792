"""Command-line front door: parse inputs, dispatch analyses, emit reports.

A command line is read by one parser: when its first word names a
command, that command's parser reads the rest.  The top-level parser reads
the whole line only when that pass cannot decide: an empty line, a first
word that names no command (-h, a typo or an abbreviation), or words the
command's parser does not know.  So help, "invalid choice" and
"unrecognized arguments" come from the same parser as they would from the
top-level one, and the Namespace is the same either way.

Each command's handler returns its exit code, its JSON payload and its
text, and prints nothing; `dispatch` prints the payload (under --json) or
the text once the handler has returned, so a usage or internal error leaves
stdout empty.  Exit codes: 0 for success / a passing analysis, 1 when the
analysis is negative (a violation, a failed correspondence, a failed
verification), 2 for usage errors, 3 for an internal error (a broken
invariant, reported with its traceback on stderr).  Norms are printed as
p^k strings and witnesses as exact rationals; --json output is
schema-stable and byte-reproducible.
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


def _at_least_one(flag: str, value: int) -> int:
    """An integer option that counts levels or digits, which must be >= 1;
    the error names the option as the user typed it."""
    if value < 1:
        raise UsageError(f"{flag} must be >= 1, got {value}")
    return value


def _window(args, depth=1):
    """--window "a:b" as a Window at the given depth; with depth None the
    text is only checked."""
    try:
        lo, hi = args.window.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise UsageError(f"window must look like a:b, got {args.window!r}") from None
    return None if depth is None else Window(lo, hi, depth)


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


def _ball_dict(ball: Ball) -> dict:
    return {"center": str(ball.center), "radius_ord": ball.radius_ord}


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit code, JSON payload, text)


def _cmd_eval(args, ctx: PrimeContext) -> tuple:
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
    return 0, payload, f"{value}  (ord {payload['ord']}, |.| = {payload['norm']})"


def _cmd_ord(args, ctx: PrimeContext) -> tuple:
    v = format_ord(_scalar(args.value, ctx).ord())
    return 0, {"ord": v}, v


def _cmd_ac(args, ctx: PrimeContext) -> tuple:
    r = _scalar(args.value, ctx).ac(_at_least_one("-n", args.n))
    return 0, {"residue": r, "modulus": ctx.p**args.n}, f"{r} mod {ctx.p}^{args.n}"


def _cmd_ball_of_cell(args, ctx: PrimeContext) -> tuple:
    cell = _cell_from_args(args, ctx)
    ball = ball_of_cell(cell, _scalar(args.t, ctx))
    return 0, {"ball": _ball_dict(ball)}, str(ball)


def _cmd_enumerate_balls(args, ctx: PrimeContext) -> tuple:
    cell = _cell_from_args(args, ctx)
    balls = enumerate_balls(cell, {}, _window(args))
    text = "\n".join(str(b) for b in balls) if balls else "(no balls)"
    return 0, {"balls": [_ball_dict(b) for b in balls]}, text


def _cmd_jacobian(args, ctx: PrimeContext) -> tuple:
    f = parse_term(args.function)
    result = check_jacobian_on_ball(f, _parse_ball(args.ball, ctx), args.depth)
    if isinstance(result, JacobianCertificate):
        text = (
            f"Jacobian property certified on {result.ball} at depth {result.verified_depth}\n"
            f"  jac_ord = {result.jac_ord}  (|f'| = {ctx.p}^{-result.jac_ord})\n"
            f"  image   = {result.image}"
        )
        return 0, result.as_json_dict(), text
    text = (
        f"violation: {result.failed_condition.value}\n"
        f"  witness: {', '.join(str(w) for w in result.witness)}\n"
        f"  {result.detail}"
    )
    return 1, result.as_json_dict(), text


def _cmd_map_ball(args, ctx: PrimeContext) -> tuple:
    f = parse_term(args.function)
    result = map_ball(f, _parse_ball(args.ball, ctx), args.depth)
    if isinstance(result, NotABall):
        payload = {"witnesses": [str(w) for w in result.witnesses], "detail": result.detail}
        return 1, {"not_a_ball": payload}, f"not a ball: {result.detail}"
    return 0, {"image": _ball_dict(result)}, str(result)


def _correspondence(args, ctx: PrimeContext, zero_centre: bool = False) -> tuple:
    """(f, cell, correspondence) from -f, the cell flags, --window and
    --candidate, read in that order; with `zero_centre`, a source cell whose
    centre is not 0 is a usage error before f is looked at on the cell."""
    f = parse_term(args.function)
    cell = _cell_from_args(args, ctx)
    _window(args, None)  # the text here; the Window once the centre is checked
    extras = [_scalar(c, ctx) for c in args.candidate or ()]
    if zero_centre and not cell.center_at({}).is_zero:
        raise CenterNotZero("source cell center must be 0")
    corr = check_ball_correspondence(f, cell, {}, _window(args), args.depth, extra_candidates=extras)
    return f, cell, corr


def _corr_payload(corr: BallCorrespondence) -> dict:
    pairs = [{"source": _ball_dict(a), "image": _ball_dict(b)} for a, b in corr.pairs]
    return {"pairs": pairs, "image_cell": format_cell(corr.fitted_image_cell), "depth": corr.depth}


def _cmd_correspondence(args, ctx: PrimeContext) -> tuple:
    result = _correspondence(args, ctx)[2]
    if isinstance(result, CorrespondenceFailure):
        payload = {"failure": result.kind, "witnesses": [str(w) for w in result.witnesses], "detail": result.detail}
        return 1, payload, f"correspondence failed ({result.kind}): {result.detail}"
    lines = [f"{a}  ->  {b}" for a, b in result.pairs]
    lines.append(f"image cell: {format_cell(result.fitted_image_cell)}")
    return 0, _corr_payload(result), "\n".join(lines)


def _cmd_lipschitz(args, ctx: PrimeContext) -> tuple:
    f = parse(args.function)
    if isinstance(f, Condition):
        raise UsageError("lipschitz expects a term or piecewise function")
    region = parse_condition(args.region) if args.region else TrueCond()
    report = empirical_lipschitz(
        f, region, _window(args, args.depth), ctx, region_text=args.region or "true"
    )
    c_str = _norm_str(ctx.p, report.constant_exponent) if report.constant_exponent is not None else "0 (f constant on region)"
    witness = "" if report.witness is None else f"\n  witness: ({', '.join(map(_w_str, report.witness))})"
    text = (
        f"empirical lower bound C = {c_str} (depth {report.depth})\n"
        f"  region: {report.region}{witness}"
    )
    return 0, report.as_json_dict(), text


def _w_str(side) -> str:
    if isinstance(side, tuple):
        return "(" + ", ".join(str(v) for v in side) + ")"
    return str(side)


def _cmd_certify(args, ctx: PrimeContext) -> tuple:
    f, cell, corr = _correspondence(args, ctx, zero_centre=True)
    report = corr
    if isinstance(corr, BallCorrespondence):
        report = certified_cell_constant(f, cell, corr, args.epsilon_exponent)
    if isinstance(report, CorrespondenceFailure):
        payload = {"failure": report.kind, "detail": report.detail}
        return 1, payload, f"certification failed ({report.kind}): {report.detail}"
    payload = report.as_json_dict()
    payload["correspondence"] = _corr_payload(corr)
    text = (
        f"certified upper bound C = {ctx.p}^{report.constant_exponent} "
        f"(depth {report.depth})\n  region: {report.region}"
    )
    return 0, payload, text


def _cmd_prepare(args, ctx: PrimeContext) -> tuple:
    f = parse_factored(args.function, ctx)
    pieces = prepare(f, _window(args), m_depth=_at_least_one("--m-depth", args.m_depth))
    cells = [format_cell(p.cell) for p in pieces]
    checks = [verify_prepared(f, piece, args.depth) for piece in pieces] if args.verify else []
    failures = [(cell, check) for cell, check in zip(cells, checks) if not check.passed]
    payload = {
        "term": str(f),
        "pieces": [
            {
                "cell": cell,
                "center_index": p.chosen_center_index,
                "exponent": p.exponent,
                "h_exponent": p.h_exponent,
            }
            for cell, p in zip(cells, pieces)
        ],
    }
    lines = [f"{len(pieces)} pieces for {f}:"] + [
        f"  {cell}   ord f = {p.h_exponent} + {p.exponent}*ord(t-c{p.chosen_center_index})"
        for cell, p in zip(cells, pieces)
    ]
    if args.verify:
        payload["verified"] = not failures
        payload["verify_depth"] = args.depth
        verdict = f"{len(failures)} pieces FAIL" if failures else "all pieces pass"
        lines.append(f"verification at depth {args.depth}: {verdict}")
        lines += [f"  FAIL {cell}: {check.detail}" for cell, check in failures]
    return (1 if failures else 0), payload, "\n".join(lines)


def _cmd_example(args, ctx: PrimeContext) -> tuple:
    if args.which == "exloc":
        window = _window(args, args.depth)
        trace = counterexample_exloc(window, ctx)
        lines = [
            f"locally constant, nowhere piecewise Lipschitz: f(t) = |t| in Q_{ctx.p}",
            f"verified over ord in [{window.v_min},{window.v_max}] at depth {args.depth}; trace:",
        ]
    else:
        _window(args, None)  # checked as for exloc, though exloc2 reads --levels
        trace = counterexample_exloc2(_at_least_one("--levels", args.levels), ctx)
        lines = [f"C^1 with zero derivative, not locally Lipschitz at 0 (p = {ctx.p}):"]
    for e in trace.entries:
        lines.append(f"  n={e.level}: pair ({e.witness[0]}, {e.witness[1]})  ratio = {ctx.p}^{e.ratio_exponent}")
    if args.which == "exloc2":
        lines.append("derivative trace at 0:")
        lines += [f"  n={n}: |g(p^n)-g(0)|/|p^n| = {ctx.p}^{q}" for n, q in trace.derivative_entries]
    return 0, trace.as_json_dict(), "\n".join(lines)


# ---------------------------------------------------------------------------
# parser assembly


# argparse reads an argument that starts with "-" as an option unless it
# looks like a negative int or decimal, so "-27/4" and the window "-2:3"
# would be taken for unknown options.  Every command counts negative
# rationals and windows as values too.
_NEGATIVE_VALUE = re.compile(r"^-\d+(/\d+|:-?\d+)?$|^-\d*\.\d+$")


# Built once per process: assembling the parsers costs more than most one-line
# commands, and parsing leaves them unchanged, so callers can share them.
# Returns the top-level parser and the map from each command name to its
# parser.  `_parse` reads a command line with the named command's parser
# alone; the top-level parser reads it only when that pass cannot decide
# (see the module docstring).
@functools.lru_cache(maxsize=1)
def _build_parser() -> tuple:
    top = argparse.ArgumentParser(
        prog="ultralip",
        description="Exact p-adic Lipschitz analysis of semialgebraic functions.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, help, handler, depth=None, function=False, cell=False, window=None):
        """A subcommand with -p and --json; -M when it has a depth default;
        -f/--function when `function` is set (a string is its help); the
        four cell flags when `cell` is set; and --window, required when
        `window` is True and otherwise defaulting to it.  Returns the
        subparser, for the options that follow."""
        p = commands[name] = sub.add_parser(name, help=help)
        p._negative_number_matcher = _NEGATIVE_VALUE
        p.set_defaults(handler=handler)
        p.add_argument("-p", "--prime", type=int, required=True, help="the prime p")
        p.add_argument("--json", action="store_true", help="emit JSON")
        if depth is not None:  # only the commands that read args.depth
            p.add_argument("-M", "--depth", type=int, default=depth, help="verification depth")
        if function:
            p.add_argument("-f", "--function", required=True, help=function if isinstance(function, str) else None)
        if cell:
            p.add_argument("--cell", help="cell literal cell(...)")
            p.add_argument("--center", help="cell center rational (with --coset)")
            p.add_argument("--coset", metavar='"l*Q(m,n)"', help="cell coset, alternative to --cell")
            p.add_argument("--var", help="fiber variable name (default t)")
        if window is not None:
            required = window is True
            p.add_argument("--window", required=required, default=None if required else window, metavar="A:B")
        return p

    p = command("eval", "evaluate a term at a rational point", _cmd_eval, function=True)
    p.add_argument("--at", action="append", metavar="NAME=RAT")
    p = command("ord", "p-adic valuation of a rational", _cmd_ord)
    p.add_argument("value")
    p = command("ac", "angular component mod p^n", _cmd_ac)
    p.add_argument("-n", type=int, default=1, help="modulus depth")
    p.add_argument("value")
    p = command("ball-of-cell", "maximal ball of a cell through a point", _cmd_ball_of_cell, cell=True)
    p.add_argument("--t", required=True, help="fiber point (rational)")
    command("enumerate-balls", "balls of a cell in a window", _cmd_enumerate_balls, cell=True, window=True)
    p = command("jacobian", "certify the Jacobian property on a ball", _cmd_jacobian, depth=3, function=True)
    p.add_argument("--ball", required=True, metavar='"c + p^k"')
    p = command("map-ball", "image of a ball under a term", _cmd_map_ball, depth=3, function=True)
    p.add_argument("--ball", required=True, metavar='"c + p^k"')
    p = command(
        "correspondence", "ball correspondence of a cell under f", _cmd_correspondence,
        depth=3, function=True, cell=True, window=True,
    )
    p.add_argument("--candidate", action="append", help="extra image-cell center")
    p = command(
        "lipschitz", "empirical Lipschitz lower bound with witness", _cmd_lipschitz,
        depth=2, function=True, window=True,
    )
    p.add_argument("--region", help="condition (default: true)")
    p = command(
        "certify", "certified per-cell Lipschitz constant", _cmd_certify,
        depth=3, function=True, cell=True, window=True,
    )
    p.add_argument("--candidate", action="append")
    p.add_argument("--epsilon-exponent", type=int, default=0, help="epsilon = p^e")
    p = command(
        "prepare", "prepared cell decomposition of a factored term", _cmd_prepare,
        depth=3, function='"u * (t - c1)^a1 * ..."', window=True,
    )
    p.add_argument("--m-depth", type=int, default=1)
    p.add_argument("--verify", action="store_true", help="run the oracle on each piece")
    p = command("example", "reproduce a counterexample family", _cmd_example, depth=2, window="0:4")
    p.add_argument("which", choices=["exloc", "exloc2"])
    p.add_argument("--levels", type=int, default=5, help="levels for exloc2")
    return top, commands


def _parse(argv) -> argparse.Namespace:
    """The Namespace of a command line, as the top-level parser's
    parse_args would build it, in one pass where the first word names a
    command."""
    top, commands = _build_parser()
    if argv and argv[0] in commands:
        args, extras = commands[argv[0]].parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return top.parse_args(argv)


def dispatch(argv) -> int:
    args = _parse(argv)
    try:
        _at_least_one("-M/--depth", getattr(args, "depth", 1))
        code, payload, text = args.handler(args, PrimeContext(args.prime))
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")) if args.json else text)
        return code
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
