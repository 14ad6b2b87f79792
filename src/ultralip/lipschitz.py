"""Lipschitz analysis over windows: empirical constants with witnesses,
certified per-cell constants, the bounded-derivative local check, and the
two counterexample families that separate derivative bounds from
Lipschitz continuity over Q_p.

Constants are carried as integer exponents of p throughout (C = p^k);
empirical scans are lower bounds verified to a stated depth, certified
constants are exact upper bounds on the scanned cell.  The scans, the local
check and the counterexamples compute on raw window points and raw values
of f (see regions.enumerate_window and terms.compile_value); a PadicScalar
is built only for a witness.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Optional, Union

from .qp_core import INFINITE_ORD, PadicScalar, PrimeContext, residue, valuation
from .regions import (
    Window,
    child_labels,
    enumerate_window,
    least_cross_pair,
    least_ord_break,
    splitting_classes,
)
from .cells import Cell, format_cell
from .syntax import (
    Condition,
    LevelSpike,
    NormVal,
    PiecewiseFunction,
    Term,
    Variable,
    format_condition,
    free_variables,
)
from .terms import compile_condition, compile_value, differentiate, eval_condition, evaluate_piecewise
from .jacobian import (
    BallCorrespondence,
    CorrespondenceFailure,
    JacobianViolation,
    _fiber_variable,
    check_jacobian_on_ball,
)

__all__ = [
    "Mode",
    "LipschitzReport",
    "LocalLipschitzCheck",
    "TraceEntry",
    "CounterexampleTrace",
    "EmptyRegion",
    "CenterNotZero",
    "empirical_lipschitz",
    "certified_cell_constant",
    "check_bounded_derivative_local_lipschitz",
    "counterexample_exloc",
    "counterexample_exloc2",
]


class Mode(enum.Enum):
    EMPIRICAL_LOWER_BOUND = "EmpiricalLowerBound"
    CERTIFIED_UPPER_BOUND = "CertifiedUpperBound"


class EmptyRegion(Exception):
    """No enumerated representative satisfies the region condition."""


class CenterNotZero(Exception):
    """The certified route requires pre-translated cells with center 0."""


@dataclass(frozen=True)
class LipschitzReport:
    """Either an empirical lower bound with its witness pair or a certified
    upper bound; the constant is C = p^constant_exponent.

    constant_exponent is None for an empirical scan in which every pair had
    f(x1) = f(x2) (any constant works).  An empirical witness re-evaluates
    to the reported ratio exactly.
    """

    mode: Mode
    constant_exponent: Optional[int]
    witness: Optional[tuple]
    depth: int
    region: str

    def as_json_dict(self) -> dict:
        if self.witness is None:
            witness = None
        elif isinstance(self.witness[0], tuple):
            witness = [[str(v) for v in side] for side in self.witness]
        else:
            witness = [str(v) for v in self.witness]
        return {
            "mode": self.mode.value,
            "C_exponent": self.constant_exponent,
            "witness": witness,
            "depth": self.depth,
            "region": self.region,
        }


@dataclass(frozen=True)
class LocalLipschitzCheck:
    status: str  # "passed" | "failed" | "skipped"
    witness: Optional[tuple]
    detail: str


@dataclass(frozen=True)
class TraceEntry:
    level: int
    witness: tuple
    ratio_exponent: int


@dataclass(frozen=True)
class CounterexampleTrace:
    """A verified family of witness pairs with strictly increasing ratios."""

    prime: int
    level_range: tuple
    entries: tuple
    derivative_entries: Optional[tuple] = None

    def as_json_dict(self) -> dict:
        out = {
            "p": self.prime,
            "levels": [self.level_range[0], self.level_range[1]],
            "entries": [
                {
                    "n": e.level,
                    "witness": [str(w) for w in e.witness],
                    "ratio_exponent": e.ratio_exponent,
                }
                for e in self.entries
            ],
        }
        if self.derivative_entries is not None:
            out["derivative_trace"] = [
                {"n": n, "quotient_exponent": q} for n, q in self.derivative_entries
            ]
        return out


# ---------------------------------------------------------------------------
# empirical scans


def _function_variables(f: Union[Term, PiecewiseFunction]) -> tuple:
    if isinstance(f, PiecewiseFunction):
        return tuple(f.variables)
    names = free_variables(f)
    return names if names else ("t",)


def _evaluator(f, ctx: PrimeContext):
    """f as a function of a raw binding to its raw value: a term is
    compiled once, a piecewise function goes through evaluate_piecewise at
    each point."""
    if isinstance(f, PiecewiseFunction):
        return lambda binding: evaluate_piecewise(f, binding, ctx).value
    return compile_value(f, ctx)


def _scalar_point(pt, ctx: PrimeContext):
    """A raw point, or a tuple of raw coordinates, as scalars of ctx."""
    if pt.__class__ is tuple:
        return tuple(PadicScalar(c, ctx) for c in pt)
    return PadicScalar(pt, ctx)


def _tree_scan(points, values, p: int):
    """Best (ratio exponent, witness) over all pairs of distinct points;
    points are raw values or tuples of them, values the raw values of f at
    the points, and the witness is a pair of points.

    Every pair across a class C of the ball tree of the points that splits
    at level k has ord(x - y) = k, and the largest |f(x) - f(y)| over those
    pairs is the diameter of f(C).  When no first member of a child of C
    reaches that diameter from the first member of C, a child reaches it
    inside itself, and a split below C gives a larger ratio.  So the best
    ratio is the largest k - ord(f(first of child) - f(first of C)), p
    values per class.  In a class reaching it, the first member therefore
    has a partner, and the least pair there is (first, least j at that
    ord); such a j lies in another child, or its pair would beat the best
    ratio.  The least of these pairs over the classes is the pair an
    all-pairs scan in index order would keep.

    The values are compared as integers.  With shift the largest ord of a
    Fraction denominator, each value is num / (p^shift * unit), unit prime
    to p (1 for an int or a power of p), so

        ord(value_i - value_j) = ord(num_i * unit_j - num_j * unit_i) - shift,

    and the ords below are those of the cross-multiplied numerators.
    """
    shift = max((valuation(v.denominator, p) for v in values if v.__class__ is not int), default=0)
    scale = p**shift
    nums = []
    units = []
    for v in values:
        if v.__class__ is int:
            nums.append(v * scale)
            units.append(1)
        else:
            unit, up = v.denominator, scale
            while unit % p == 0:
                unit //= p
                up //= p
            nums.append(v.numerator * up)
            units.append(unit)
    candidates = []
    for level, members, children in splitting_classes(points, p):
        first = members[0]
        num, unit = nums[first], units[first]
        # the first child starts with the first member itself, at ord INFINITE_ORD
        d = INFINITE_ORD
        for child in children:
            c = child[0]
            e = valuation(nums[c] * unit - num * units[c], p)
            if e < d:
                d = e
        if d != INFINITE_ORD:
            candidates.append((level + shift - d, d, members))
    if not candidates:
        return None, None
    best = max(ratio for ratio, _, _ in candidates)
    witnesses = []
    for ratio, d, members in candidates:
        if ratio == best:
            first = members[0]
            num, unit = nums[first], units[first]
            for j in members:
                if valuation(nums[j] * unit - num * units[j], p) == d:
                    witnesses.append((first, j))
                    break
    i, j = min(witnesses)
    return best, (points[i], points[j])


def empirical_lipschitz(
    f: Union[Term, PiecewiseFunction],
    region: Condition,
    window: Window,
    ctx: PrimeContext,
    region_text: Optional[str] = None,
) -> LipschitzReport:
    """Largest ratio |f(x1)-f(x2)| / |x1-x2| over all representative pairs.

    This is a lower bound on any valid Lipschitz constant for the region,
    verified to the stated depth; the reported witness is the
    lexicographically least pair achieving it.  Multi-variable functions
    are scanned on tuple grids with the max-norm distance.  Each candidate
    point, a raw window point or a tuple of itertools.product, is bound as
    {name: value} and tested with exactly one eval_condition call, so that
    call counts the points tried and accepted.  The pairs are not visited
    one by one: a pass over the ball tree of the accepted points finds the
    best ratio in O(N * levels) (see _tree_scan).  Only the two witness
    points become scalars.
    """
    variables = _function_variables(f)
    axis = sorted(enumerate_window(window, ctx))
    if len(variables) == 1:
        (var,) = variables
        bound = ((pt, {var: pt}) for pt in axis)
    else:
        grid = itertools.product(axis, repeat=len(variables))
        bound = ((pt, dict(zip(variables, pt))) for pt in grid)

    value_at = _evaluator(f, ctx)
    points = []
    values = []
    for pt, binding in bound:
        if not eval_condition(region, binding, ctx):
            continue
        points.append(pt)
        values.append(value_at(binding))
    if not points:
        raise EmptyRegion(f"no representative satisfies {format_condition(region)}")

    best, best_witness = _tree_scan(points, values, ctx.p)
    if best_witness is not None:
        best_witness = tuple(_scalar_point(pt, ctx) for pt in best_witness)
    return LipschitzReport(
        mode=Mode.EMPIRICAL_LOWER_BOUND,
        constant_exponent=best,
        witness=best_witness,
        depth=window.depth,
        region=region_text if region_text is not None else format_condition(region),
    )


# ---------------------------------------------------------------------------
# certified constants on cells (one-variable route)


def certified_cell_constant(
    f: Term,
    cell: Cell,
    corr: BallCorrespondence,
    epsilon_exponent: int,
) -> Union[LipschitzReport, CorrespondenceFailure]:
    """Exact Lipschitz constant C = epsilon * p^max(0, m' - m) for a cell.

    Requires the source cell to have center 0 (pre-translate otherwise):
    CenterNotZero, a usage error.  Every negative outcome of the analysis
    is returned as a CorrespondenceFailure whose witnesses re-check it.
    The fitted image cell must have center 0 ("ImageCenterNotZero",
    witness the image center).  Every source ball is re-certified at the
    correspondence depth ("CertificationFailed", witness the violation's
    points).  The bookkeeping identity

        m + jac_ord + a = m' + b

    (a, b the source and image ball levels) is the certificate's radius law
    radius_ord(image) = jac_ord + radius_ord(ball), so requiring each
    correspondence image to equal the certified image enforces it on every
    pair ("LedgerIdentityViolated", witness the ball).  jac_ord >=
    -epsilon_exponent is required on every ball, i.e. |f'| <= epsilon =
    p^epsilon_exponent ("DerivativeBoundExceeded", witness the ball).
    """
    m = cell.coset.m
    m_prime = corr.fitted_image_cell.coset.m
    if not cell.center_at({}).is_zero:
        raise CenterNotZero("source cell center must be 0")
    image_center = corr.fitted_image_cell.center_at({})
    if not image_center.is_zero:
        return CorrespondenceFailure(
            "ImageCenterNotZero",
            (image_center,),
            f"fitted image cell center must be 0, found {image_center}",
        )

    for ball, image in corr.pairs:
        result = check_jacobian_on_ball(f, ball, corr.depth)
        if isinstance(result, JacobianViolation):
            return CorrespondenceFailure("CertificationFailed", result.witness, result.detail)
        if result.image != image:
            return CorrespondenceFailure(
                "LedgerIdentityViolated",
                (ball,),
                f"correspondence image {image} of {ball} disagrees with the "
                f"certified image {result.image}",
            )
        if result.jac_ord < -epsilon_exponent:
            return CorrespondenceFailure(
                "DerivativeBoundExceeded",
                (ball,),
                f"|f'| = p^{-result.jac_ord} > p^{epsilon_exponent} on {ball}",
            )

    return LipschitzReport(
        mode=Mode.CERTIFIED_UPPER_BOUND,
        constant_exponent=epsilon_exponent + max(0, m_prime - m),
        witness=None,
        depth=corr.depth,
        region=format_cell(cell),
    )


# ---------------------------------------------------------------------------
# bounded derivative => locally 1-Lipschitz (checked on shared balls)


def check_bounded_derivative_local_lipschitz(
    f: Term,
    region: Condition,
    window: Window,
    ctx: PrimeContext,
) -> LocalLipschitzCheck:
    """Check |f(x)-f(y)| <= |x-y| on pairs sharing a level-1 subball.

    The check is gated on |f'| <= 1 at every region representative; when
    the gate fails the test is skipped (reported as such, with the gate
    witness).  Pairs "in a common ball" are representative pairs x, y with
    ord(x - y) > ord(x), i.e. sharing the depth-1 granularity ball of
    their valuation level.  Each such ball is checked level by level over
    its ball tree (see _local_break); the witness is the first failing pair
    in the order of an all-pairs scan.
    """
    var = _fiber_variable(f, "t")
    p = ctx.p
    f_at, deriv_at = compile_value(f, ctx), compile_value(differentiate(f, var), ctx)
    in_region = compile_condition(region, ctx)
    reps = sorted(enumerate_window(window, ctx))
    pts = [x for x in reps if in_region({var: x})]
    if not pts:
        return LocalLipschitzCheck("passed", None, "region has no representatives")

    for x in pts:
        e = -valuation(deriv_at({var: x}), p)
        if e > 0:
            return LocalLipschitzCheck(
                "skipped",
                (PadicScalar(x, ctx),),
                f"|f'({x})| = p^{e} > 1; the bounded-derivative premise fails",
            )

    # the depth-1 granularity ball of x, named by its residue mod p^(ord(x) + 1)
    groups: dict = {}
    for x in pts:
        groups.setdefault(residue(x, valuation(x, p) + 1, p), []).append(x)
    for group in groups.values():
        vals = [f_at({var: x}) for x in group]
        pair = _local_break(group, vals, p)
        if pair is not None:
            x, y = group[pair[0]], group[pair[1]]
            return LocalLipschitzCheck(
                "failed",
                (PadicScalar(x, ctx), PadicScalar(y, ctx)),
                f"|f({x})-f({y})| > |{x}-{y}|",
            )
    return LocalLipschitzCheck(
        "passed", None, f"checked {len(pts)} representatives at depth {window.depth}"
    )


def _local_break(group, vals, p: int) -> Optional[tuple]:
    """Least (i, j) with ord(vals_i - vals_j) < ord(group_i - group_j), or
    None; the group's points and vals are raw values.

    The pairs across a class of the ball tree of the group that splits at
    level k are at ord distance k, and such a pair breaks the bound exactly
    when its values differ mod p^k.  Some pair of the class does exactly
    when some value differs from the first one there, and then the least
    such pair across two children is the least pair with differing residues
    mod p^k and differing child labels (regions.least_cross_pair, the
    members labelled by their children through regions.child_labels).
    """
    found = []
    for level, members, children in splitting_classes(group, p):
        anchor = vals[members[0]]
        if all(valuation(vals[n] - anchor, p) >= level for n in members[1:]):
            continue
        residues = [residue(vals[n], level, p) for n in members]
        found.append(least_cross_pair(members, child_labels(members, children), residues, same=False))
    return min(found, default=None)


# ---------------------------------------------------------------------------
# counterexample families


def _exloc_break(points, values, p: int) -> Optional[tuple]:
    """The first pair (i, j), in index order, that breaks an exloc identity,
    with 0 for the value identity and 1 for the distance identity; or None.
    points are raw window points and values the raw values of f at them.

    points ascend by valuation level.  A pair with ord x_i = a < b = ord x_j
    needs ord(f_i - f_j) = -b, checked before ord(x_i - x_j) = a.  Let c_v
    be the value at the first point of level v.  If ord(c_a - c_b) = -b for
    all levels a < b and every value of level v is within p^(1-v) of c_v,
    every pair has ord(f_i - f_j) = -b.  Otherwise each level b is searched
    for the least broken pair between the lower levels and b, a cross-pair
    condition (least_ord_break).  The distance identity is the strict
    triangle law; it is checked on the first points of each pair of levels.
    """
    levels = [valuation(x, p) for x in points]
    first: dict = {}
    for n, v in enumerate(levels):
        first.setdefault(v, n)
    anchors = list(itertools.combinations(sorted(first.items()), 2))
    breaks = [((i, j), 1) for (a, i), (_, j) in anchors if valuation(points[i] - points[j], p) != a]
    if not (
        all(valuation(values[i] - values[j], p) == -b for (_, i), (b, j) in anchors)
        and all(valuation(values[n] - values[first[v]], p) > -v for n, v in enumerate(levels))
    ):
        for b in first:
            members = [n for n, v in enumerate(levels) if v <= b]
            sides = [levels[n] == b for n in members]
            pair = least_ord_break(members, sides, [values[n] for n in members], -b, p)
            if pair is not None:
                breaks.append((pair, 0))
    return min(breaks, default=None)


def counterexample_exloc(window: Window, ctx: PrimeContext) -> CounterexampleTrace:
    """The locally constant norm-embedding map on Z_p minus 0.

    f(t) = normval(t) is constant on every granularity ball, yet
    |f(x1) - f(x2)| = |x2|^(-1) exactly whenever |x2| < |x1|: the ratio
    against |x1 - x2| = |x1| is unbounded as x1 approaches 0.  Both facts
    are verified over the window before the trace is emitted, the first on
    every pair, one valuation level at a time (see _exloc_break); the trace
    follows the diagonal pairs (p^(n-1), p^n) so the ratio exponents 2n - 1
    grow while the witnesses shrink to 0.
    """
    if window.v_min < 0:
        raise ValueError("the construction lives inside Z_p: require v_min >= 0")
    p = ctx.p
    f = compile_value(NormVal(Variable("t")), ctx)
    points = enumerate_window(window, ctx)
    values = {x: f({"t": x}) for x in points}

    # local constancy on every granularity ball x + p^(ord x + M) Z_p, probed
    # at its representatives mod p^(ord x + M + 1) other than x, the window
    # point whose value values[x] holds
    for x in points:
        step = ctx.power(valuation(x, p) + window.depth)
        for probe in (x + i * step for i in range(1, p)):
            if f({"t": probe}) != values[x]:
                raise RuntimeError(f"local constancy broke at {x} vs {probe}")

    # the exact pair identity, stronger than the defining inequality
    broken = _exloc_break(points, [values[x] for x in points], p)
    if broken is not None:
        (i, j), identity = broken
        x1, x2 = PadicScalar(points[i], ctx), PadicScalar(points[j], ctx)
        if identity == 0:
            raise RuntimeError(f"|f(x1)-f(x2)| != |x2|^-1 at ({x1}, {x2})")
        raise RuntimeError(f"|x1-x2| != |x1| at ({x1}, {x2})")

    entries = []
    for n in range(window.v_min + 1, window.v_max + 1):
        x1, x2 = ctx.power(n - 1), ctx.power(n)
        # the ratio exponent of |f(x1) - f(x2)| / |x1 - x2|
        ratio = valuation(x1 - x2, p) - valuation(f({"t": x1}) - f({"t": x2}), p)
        if ratio != 2 * n - 1:
            raise RuntimeError(f"trace ratio at level {n} is not 2n-1")
        entries.append(TraceEntry(n, (PadicScalar(x1, ctx), PadicScalar(x2, ctx)), ratio))
    return CounterexampleTrace(ctx.p, (window.v_min, window.v_max), tuple(entries))


def counterexample_exloc2(n_max: int, ctx: PrimeContext) -> CounterexampleTrace:
    """The C^1 spike with zero derivative that is nowhere-Lipschitz at 0.

    p Z_p minus 0 splits into the balls b + b^3 Z_p with b = p^n u, u a
    unit mod p^(2n); the marked ball of level n is u = 1.  The spike g is
    b^2 on the marked ball of each level and 0 elsewhere, with g(0) = 0.
    For each level the emitted witness pair b_i = p^n (marked) and
    b_j = p^n + p^(3n-1) (unmarked, same level) satisfies exactly

        |b_i - b_j| = p * |b_i^3|     and     |g(b_i) - g(b_j)| = |b_i^2|,

    so the ratio is p^(n-1), unbounded in n, while the derivative trace
    |g(p^n) - g(0)| / |p^n| = p^(-n) confirms g'(0) = 0.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    p = ctx.p
    g = compile_value(LevelSpike(Variable("t")), ctx)
    entries = []
    derivative_entries = []
    for n in range(1, n_max + 1):
        b_i = ctx.power(n)
        b_j = ctx.power(n) + ctx.power(3 * n - 1)
        # ords, not norm exponents: |b_i - b_j| = p^(-gap)
        gap = valuation(b_i - b_j, p)
        # b_j lies on level n, outside the marked ball b_i + p^(3n) Z_p
        if valuation(b_j, p) != n or gap >= 3 * n:
            raise RuntimeError(f"witness b_j at level {n} is not an unmarked neighbor")
        if gap != 3 * n - 1:
            raise RuntimeError(f"|b_i - b_j| != p^(1-3n) at level {n}")
        g_i = g({"t": b_i})
        g_j = g({"t": b_j})
        spread = valuation(g_i - g_j, p)
        if spread != 2 * n:
            raise RuntimeError(f"|g(b_i) - g(b_j)| != |b_i^2| at level {n}")
        entries.append(TraceEntry(n, (PadicScalar(b_i, ctx), PadicScalar(b_j, ctx)), gap - spread))
        # |g(b_i) - g(0)| / |b_i|, as an exponent of p
        derivative_entries.append((n, n - valuation(g_i - g({"t": 0}), p)))
    return CounterexampleTrace(ctx.p, (1, n_max), tuple(entries), tuple(derivative_entries))
