"""p-adic cells, their maximal balls, and cell fitting from ball families.

A cell over a named base is the set of points (t, y) with

    base_condition(y),   |alpha(y)| < |t - c(y)| < |beta(y)|,
    t - c(y) in lambda*Q_{m,n}

where either norm comparison may be absent.  A 1-cell (lambda != 0) is a
disjoint union of maximal balls, one per admissible valuation level of
t - c(y); a 0-cell (lambda = 0) is the graph t = c(y) and has no balls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .qp_core import (
    INFINITE_ORD, CosetSpec, PadicScalar, PrimeContext, in_coset, unit_residue, valuation,
)
from .regions import Ball, Window, first_overlap
from .syntax import (
    Condition,
    RationalConst,
    Term,
    TrueCond,
    _Parser,
    format_condition,
    format_term,
    free_variables,
)
from .terms import EvaluationError, eval_condition, evaluate

__all__ = [
    "Cell",
    "ZeroCellHasNoBalls",
    "BallsOverlap",
    "NoCandidateFits",
    "cell_contains",
    "ball_of_cell",
    "enumerate_balls",
    "fit_cell",
    "point_cell",
    "parse_cell",
    "format_cell",
]


class ZeroCellHasNoBalls(Exception):
    """A 0-cell has an empty collection of balls."""


class BallsOverlap(ValueError):
    """Two input balls of fit_cell overlap; pair is the least (i, j)."""

    def __init__(self, balls: Sequence[Ball], pair: tuple):
        i, j = self.pair = pair
        super().__init__(f"input balls are not pairwise disjoint: {balls[i]} vs {balls[j]}")


class NoCandidateFits(Exception):
    """Every candidate center lies inside some input ball."""

    def __init__(self, failures: Mapping):
        self.failures = dict(failures)
        desc = "; ".join(f"{d} inside {b}" for d, b in self.failures.items())
        super().__init__(f"no candidate center lies outside all balls ({desc})")


@dataclass(frozen=True)
class Cell:
    """Definition data of a p-adic cell over an explicit named base.

    base_vars may be empty, in which case the cell lives over a point and
    membership is queried with an empty base binding.
    """

    base_vars: tuple
    fiber_var: str
    base_condition: Condition
    center: Term
    alpha: Optional[Term]
    beta: Optional[Term]
    coset: CosetSpec

    @property
    def is_zero_cell(self) -> bool:
        return self.coset.is_zero

    @property
    def context(self) -> PrimeContext:
        return self.coset.lam.context

    def center_at(self, y: Mapping) -> PadicScalar:
        return evaluate(self.center, y, self.context)

    def level_bounds(self, y: Mapping) -> tuple:
        """Admissible ord(t - c(y)) range as (lo, hi); None means unbounded.

        |alpha| < |t-c| caps the level above (ord < ord alpha) and
        |t-c| < |beta| bounds it below (ord > ord beta).  Boundary terms
        map to nonzero values; a zero boundary is a domain error.
        """
        lo = hi = None
        if self.beta is not None:
            b = evaluate(self.beta, y, self.context).ord()
            if b == INFINITE_ORD:
                raise EvaluationError("boundary term beta evaluates to zero")
            lo = b + 1
        if self.alpha is not None:
            a = evaluate(self.alpha, y, self.context).ord()
            if a == INFINITE_ORD:
                raise EvaluationError("boundary term alpha evaluates to zero")
            hi = a - 1
        return lo, hi

    def __str__(self) -> str:
        return format_cell(self)


def cell_contains(cell: Cell, t: PadicScalar, y: Optional[Mapping] = None) -> bool:
    """Exact membership test for (t, y) against the three-clause definition."""
    y = y or {}
    if not eval_condition(cell.base_condition, y, cell.context):
        return False
    delta = t - cell.center_at(y)
    level = delta.ord()
    lo, hi = cell.level_bounds(y)
    if lo is not None and not level >= lo:
        return False
    if hi is not None and not level <= hi:
        return False
    return in_coset(delta.value, cell.coset)


def ball_of_cell(cell: Cell, t: PadicScalar, y: Optional[Mapping] = None) -> Ball:
    """The maximal ball B with B x {y} inside the cell that contains t.

    Computed by the translation-invariant construction t + p^(m + a) Z_p
    with a = ord(t - c(y)); equal to the level-a set
    {w : ord(w - c(y)) = a, ac_m(w - c(y)) = ac_m(lambda)}.
    """
    y = y or {}
    if cell.is_zero_cell:
        raise ZeroCellHasNoBalls("a 0-cell has no balls")
    if not cell_contains(cell, t, y):
        raise ValueError(f"point {t} is not in the cell fiber")
    a = (t - cell.center_at(y)).ord()
    return Ball(t, cell.coset.m + a)


def enumerate_balls(cell: Cell, y: Optional[Mapping], window: Window) -> list:
    """All maximal balls of a 1-cell above y with level inside the window.

    Levels run over window values congruent to ord(lambda) mod n and
    compatible with the alpha/beta bounds; the returned balls are pairwise
    disjoint, ordered by level.
    """
    y = y or {}
    if cell.is_zero_cell:
        raise ZeroCellHasNoBalls("a 0-cell has no balls")
    if not eval_condition(cell.base_condition, y, cell.context):
        return []
    ctx = cell.context
    c = cell.center_at(y)
    lo, hi = cell.level_bounds(y)
    lam_ord = cell.coset.lam_ord
    residue = cell.coset.lam_ac
    m, n = cell.coset.m, cell.coset.n
    lo = window.v_min if lo is None else max(lo, window.v_min)
    hi = window.v_max if hi is None else min(hi, window.v_max)
    balls = []
    for a in range(lo, hi + 1):
        if (a - lam_ord) % n != 0:
            continue
        rep = PadicScalar(c.value + residue * ctx.power(a), ctx)
        balls.append(Ball(rep, a + m))
    return balls


# ---------------------------------------------------------------------------
# cell fitting (balls -> cells around a candidate center)


def point_cell(
    center: PadicScalar,
    coset: CosetSpec,
    level_min: Optional[int] = None,
    level_max: Optional[int] = None,
    fiber_var: str = "t",
) -> Cell:
    """A cell over a point base with constant center and level range.

    The level range is encoded through constant boundary terms:
    beta = p^(level_min - 1) bounds below, alpha = p^(level_max + 1) above.
    """
    ctx = center.context
    alpha = beta = None
    if level_max is not None:
        alpha = RationalConst(ctx.power(level_max + 1))
    if level_min is not None:
        beta = RationalConst(ctx.power(level_min - 1))
    return Cell(
        base_vars=(),
        fiber_var=fiber_var,
        base_condition=TrueCond(),
        center=RationalConst(center.value),
        alpha=alpha,
        beta=beta,
        coset=coset,
    )


def _greedy_progressions(levels: Iterable[int]) -> tuple:
    """Partition of a finite integer set into arithmetic progressions, by
    fit_cell's greedy rule.  Each progression (lo, hi, step) stands for
    {lo, lo+step, ..., hi}; a singleton is (a, a, 1)."""
    out = []
    remaining = set(levels)
    while remaining:
        m = min(remaining)
        best = (m, m, 1)
        best_len = 1
        for d in sorted({x - m for x in remaining if x > m}):
            length = 1
            nxt = m + d
            while nxt in remaining:
                length += 1
                nxt += d
            if length > best_len:
                best_len = length
                best = (m, m + (length - 1) * d, d)
        lo, hi, d = best
        remaining -= set(range(lo, hi + 1, d))
        out.append(best)
    return tuple(out)


def fit_cell(
    balls: Sequence[Ball],
    candidate_centers: Iterable[PadicScalar],
    fiber_var: str = "t",
) -> list:
    """Fit a list of point-base cells whose balls are exactly the input.

    The first candidate center d lying outside every ball is used.  Each
    ball then has the unique description {w : ord(w-d) = b, ac_m(w-d) = xi}
    with m forced by the radius; balls are grouped by (m, xi) and each
    group's level set is split into arithmetic progressions, one cell per
    progression.  A group whose levels form one progression gives one cell.
    Any other group is split by one greedy rule: take the longest chain from
    the least level, with the first step that reaches that length, and
    repeat on the levels left.  The number of cells need not be the least.
    """
    balls = list(balls)
    overlap = first_overlap(balls)
    if overlap is not None:
        raise BallsOverlap(balls, overlap)
    if not balls:
        return []
    failures = {}
    for d in candidate_centers:
        holder = next((b for b in balls if b.contains(d)), None)
        if holder is None:
            return _fit_with_center(balls, d, fiber_var)
        failures[d] = holder
    raise NoCandidateFits(failures)


def _fit_with_center(balls: Sequence[Ball], d: PadicScalar, fiber_var: str) -> list:
    ctx = d.context
    groups: dict = {}
    for ball in balls:
        delta = ball.center.value - d.value
        b = valuation(delta, ctx.p)
        m = ball.radius_ord - b
        if m < 1:
            raise ValueError(f"candidate {d} is not separated from ball {ball}")
        xi = unit_residue(delta, b, m, ctx.p)
        groups.setdefault((m, xi), set()).add(b)
    cells = []
    for (m, xi), levels in sorted(groups.items()):
        for lo, hi, step in _greedy_progressions(levels):
            lam = PadicScalar(xi * ctx.power(lo), ctx)
            coset = CosetSpec(lam, m, step)
            cells.append(point_cell(d, coset, level_min=lo, level_max=hi, fiber_var=fiber_var))
    return cells


# ---------------------------------------------------------------------------
# cell literals: the cell production of the term grammar (see syntax)


def parse_cell(text: str, ctx: PrimeContext) -> Cell:
    """Parse the CLI cell literal into a Cell bound to the given prime."""
    segments = _Parser(text).read(_Parser.cell)
    lam, m, n = segments["coset"]
    center = segments.get("center", RationalConst(0))
    base = segments.get("base", TrueCond())
    fiber_var = segments.get("var", "t")
    alpha, beta = segments.get("alpha"), segments.get("beta")
    level_min, level_max = segments.get("ord", (None, None))
    if level_max is not None:
        alpha = RationalConst(ctx.power(level_max + 1))
    if level_min is not None:
        beta = RationalConst(ctx.power(level_min - 1))
    parts = [part for part in (base, center, alpha, beta) if part is not None]
    names = (v for part in parts for v in free_variables(part) if v != fiber_var)
    return Cell(
        base_vars=tuple(dict.fromkeys(names)),
        fiber_var=fiber_var,
        base_condition=base,
        center=center,
        alpha=alpha,
        beta=beta,
        coset=CosetSpec(ctx.scalar(lam), m, n),
    )


def _power_exponent(bound: Optional[Term], ctx: PrimeContext) -> Optional[int]:
    """k when bound is the constant p^k, the form parse_cell gives an ord
    range; else None."""
    if isinstance(bound, RationalConst) and bound.value:
        k = valuation(bound.value, ctx.p)
        if bound.value == ctx.power(k):
            return k
    return None


def format_cell(cell: Cell) -> str:
    parts = [f"center={format_term(cell.center)}", f"coset={cell.coset}"]
    # a constant bound p^k is a level, so the literal reads back as the same
    # cell; any other bound is printed as it is (a zero one bounds no level,
    # and level_bounds refuses it), and so are two levels with none between
    lo = hi = None
    beta_k = _power_exponent(cell.beta, cell.context)
    if beta_k is not None:
        lo = beta_k + 1
    alpha_k = _power_exponent(cell.alpha, cell.context)
    if alpha_k is not None:
        hi = alpha_k - 1
    if lo is not None and hi is not None and lo > hi:
        lo = hi = None
    if lo is not None and hi is not None:
        parts.append(f"ord in [{lo},{hi}]")
    elif lo is not None:
        parts.append(f"ord > {lo - 1}")
    elif hi is not None:
        parts.append(f"ord < {hi + 1}")
    else:
        parts.append("all")
    if cell.alpha is not None and hi is None:
        parts.append(f"alpha={format_term(cell.alpha)}")
    if cell.beta is not None and lo is None:
        parts.append(f"beta={format_term(cell.beta)}")
    if not isinstance(cell.base_condition, TrueCond):
        parts.append(f"base={format_condition(cell.base_condition)}")
    if cell.fiber_var != "t":
        parts.append(f"var={cell.fiber_var}")
    return "cell(" + "; ".join(parts) + ")"
