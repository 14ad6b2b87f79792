"""Exact univariate preparation of factored-linear terms.

For f(t) = u * prod_i (t - c_i)^(a_i) the window around the centers is
split into finitely many disjoint cells on each of which

    ord f(t) = H + e * ord(t - c_j)

holds exactly for one chosen center c_j and integer constants (e, H):
the norm of f is a monomial in the distance to the center.  The split is
an ultrametric Voronoi sweep: away from all ties every |t - c_i| is
frozen or tracks |t - c_j| uniformly; on a tie annulus (ord(t - c_j)
equal to some pairwise distance) the angular classes of t - c_j resolve
the remaining factors, and the class pointing at a nearby center hands
its region over to that center's own (deeper) sweep.  Regions beyond the
last tie merge into one unbounded-depth cell per angular class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .qp_core import INFINITE_ORD, PadicScalar, PrimeContext, Valuation
from .regions import Ball, Window
from .cells import Cell, point_cell
from .qp_core import CosetSpec
from .terms import IntPow, Mul, RationalConst, Sub, Term, Variable, _Parser

__all__ = [
    "FactoredTerm",
    "PreparedPiece",
    "PrepareCheck",
    "parse_factored",
    "prepare",
    "verify_prepared",
    "piece_contains",
    "value_unit_class",
]

# levels of a piece that verify_prepared checks
_LEVEL_CAP = 3


@dataclass(frozen=True)
class FactoredTerm:
    """u * prod (t - c_i)^(a_i) with distinct centers and nonzero integer
    exponents; evaluation and valuation are factor-by-factor and exact."""

    unit: PadicScalar
    factors: tuple  # of (PadicScalar, int)

    def __post_init__(self) -> None:
        if self.unit.is_zero:
            raise ValueError("unit coefficient must be nonzero")
        if not self.factors:
            raise ValueError("a factored term needs at least one factor")
        seen = set()
        for center, exponent in self.factors:
            if center.value in seen:
                raise ValueError(f"duplicate center {center}")
            seen.add(center.value)
            if exponent == 0:
                raise ValueError("factor exponents must be nonzero")

    @property
    def context(self) -> PrimeContext:
        return self.unit.context

    @property
    def centers(self) -> tuple:
        return tuple(c for c, _ in self.factors)

    @property
    def exponents(self) -> tuple:
        return tuple(a for _, a in self.factors)

    def evaluate(self, t: PadicScalar) -> PadicScalar:
        out = self.unit
        for center, exponent in self.factors:
            out = out * (t - center) ** exponent
        return out

    def ord_at(self, t: PadicScalar) -> Valuation:
        """ord f(t) as the exact sum ord(u) + sum a_i ord(t - c_i)."""
        total = self.unit.ord().value
        for center, exponent in self.factors:
            o = (t - center).ord()
            if not o.is_finite:
                if exponent > 0:
                    return INFINITE_ORD
                raise ZeroDivisionError(f"pole of f at t = {t}")
            total += exponent * o.value
        return Valuation.finite(total)

    def as_term(self, var: str = "t") -> Term:
        node: Term = RationalConst(self.unit.value)
        for center, exponent in self.factors:
            factor: Term = Sub(Variable(var), RationalConst(center.value))
            if exponent != 1:
                factor = IntPow(factor, exponent)
            node = Mul(node, factor)
        return node

    def __str__(self) -> str:
        parts = [str(self.unit.value)]
        for center, exponent in self.factors:
            body = f"(t - {center.value})"
            parts.append(body if exponent == 1 else f"{body}^{exponent}")
        return " * ".join(parts)


def parse_factored(text: str, ctx: PrimeContext) -> FactoredTerm:
    """Parse the CLI factored syntax: u * (t - c1)^a1 * (t - c2)^a2 ..."""
    parser = _Parser(text)
    unit = ctx.scalar(parser.rational())
    factors = []
    var_name = None
    while parser.accept("*"):
        parser.expect("(")
        tok = parser.peek()
        if tok.kind != "ident":
            parser.fail("expected the fiber variable")
        if var_name is None:
            var_name = tok.text
        elif tok.text != var_name:
            parser.fail(f"mixed fiber variables {var_name!r} and {tok.text!r}")
        parser.next()
        if parser.accept("-"):
            center = parser.rational()
        elif parser.accept("+"):
            center = -parser.rational()
        else:
            parser.fail("expected '-' or '+' after the variable")
        parser.expect(")")
        exponent = 1
        if parser.accept("^"):
            exponent = parser.signed_int(parens_ok=True)
        factors.append((ctx.scalar(center), exponent))
    parser.expect_eof()
    return FactoredTerm(unit, tuple(factors))


@dataclass(frozen=True)
class PreparedPiece:
    """One cell of the preparation with its exact norm profile.

    On the cell, ord f(t) = h_exponent + exponent * ord(t - c_j) where
    c_j is the chosen center; level_min/level_max give the cell's
    ord(t - c_j) range (level_max None means unbounded depth) and residue
    is the ac_m class of t - c_j.
    """

    cell: Cell
    chosen_center_index: int
    exponent: int
    h_exponent: int
    level_min: int
    level_max: Optional[int]
    residue: int
    m: int


@dataclass(frozen=True)
class PrepareCheck:
    passed: bool
    witness: Optional[PadicScalar]
    detail: str


# ---------------------------------------------------------------------------
# geometry of the center set


class _Geometry:
    def __init__(self, f: FactoredTerm):
        self.f = f
        self.ctx = f.context
        self.centers = list(f.centers)
        self.exps = list(f.exponents)
        self.ord_u = f.unit.ord().value
        k = len(self.centers)
        self.dist = [[None] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                d = (self.centers[i] - self.centers[j]).ord().value
                self.dist[i][j] = self.dist[j][i] = d

    def criticals(self, j: int) -> set:
        return {self.dist[i][j] for i in range(len(self.centers)) if i != j}

    def tie_partners(self, j: int, a: int) -> list:
        return [i for i in range(len(self.centers)) if i != j and self.dist[i][j] == a]

    def tie_residue(self, j: int, i: int, m: int) -> int:
        """ac_m residue of (c_i - c_j) / p^dist: the angular class around c_j
        that points at c_i."""
        return (self.centers[i] - self.centers[j]).ac(m).residue

    def run_profile(self, j: int, lo: int, hi: int) -> tuple:
        """(exponent, H) on levels [lo, hi] around c_j, valid when no pairwise
        distance to c_j lies in [lo, hi]: factors strictly closer than lo are
        frozen, strictly farther than hi track t."""
        e = self.exps[j]
        h = self.ord_u
        for i in range(len(self.centers)):
            if i == j:
                continue
            d = self.dist[i][j]
            if d > hi:
                e += self.exps[i]
            elif d < lo:
                h += self.exps[i] * d
            else:
                raise AssertionError(f"run [{lo},{hi}] crosses the tie at {d}")
        return e, h

    def tie_profile(self, j: int, a: int, xi: int, m: int) -> tuple:
        """(exponent, H) on the angular class xi of the tie annulus at level a.

        Tie factors contribute a + r where p^r exactly divides the residue
        difference xi - w mod p^m; the class pointing at a tie partner
        (xi = w) is not resolvable at depth m and is never emitted."""
        pm = self.ctx.p**m
        e = self.exps[j]
        h = self.ord_u
        for i in range(len(self.centers)):
            if i == j:
                continue
            d = self.dist[i][j]
            if d > a:
                e += self.exps[i]
            elif d < a:
                h += self.exps[i] * d
            else:
                w = self.tie_residue(j, i, m)
                delta = (xi - w) % pm
                if delta == 0:
                    raise AssertionError(f"class {xi} points at center {i}: not resolvable")
                r = 0
                while delta % self.ctx.p == 0:
                    delta //= self.ctx.p
                    r += 1
                h += self.exps[i] * (a + r)
        return e, h


# ---------------------------------------------------------------------------
# the sweep


def prepare(f: FactoredTerm, window: Window, m_depth: int = 1) -> list:
    """Disjoint prepared cells covering the union of window annuli around
    the centers (plus the tie handoff regions), minus the centers.

    The scan domain is D = union over centers c_j of
    {t : v_min <= ord(t - c_j) <= v_max}; tie handoffs extend coverage to
    the full depth below any tie, which is exactly what D requires.  All
    cells use coset depth m_depth (ties split into ac_(m_depth) classes)
    and step n = 1.  Output is ordered by (center index, level, residue).
    """
    if m_depth < 1:
        raise ValueError("m_depth must be >= 1")
    geo = _Geometry(f)
    ctx = geo.ctx
    k = len(geo.centers)
    v_min, v_max = window.v_min, window.v_max

    all_dist = [geo.dist[i][j] for i in range(k) for j in range(i + 1, k)]
    max_dist = max(all_dist) if all_dist else None
    a_max = v_max if max_dist is None else max(v_max, max_dist + m_depth)

    required = [set(range(v_min, v_max + 1)) for _ in range(k)]
    # levels whose annulus around a center is required but covered by the
    # emission of a smaller-index center (identical annulus or tie class);
    # they are permanently out of the worklist, which makes the closure
    # monotone and hence terminating
    handled = [set() for _ in range(k)]
    has_tail = [False] * k

    def add_tail(j: int, start: int) -> bool:
        wanted = set(range(start, a_max + 1)) - handled[j]
        fresh = not has_tail[j] or not required[j].issuperset(wanted)
        has_tail[j] = True
        required[j] |= wanted
        return fresh

    def transfer(j: int, a: int, owner: int) -> None:
        required[j].discard(a)
        handled[j].add(a)
        if a not in handled[owner]:
            required[owner].add(a)

    changed = True
    while changed:
        changed = False
        # identical annuli: {ord(t-c_j) = a} = {ord(t-c_i) = a} when the
        # centers are closer than a; keep the smallest index
        for j in range(k):
            for a in sorted(required[j]):
                owner = min(
                    [i for i in range(k) if i != j and geo.dist[i][j] > a] + [j]
                )
                if owner < j:
                    transfer(j, a, owner)
                    changed = True
        # tie closure
        for j in range(k):
            for a in sorted(required[j]):
                ties = geo.tie_partners(j, a)
                if not ties:
                    continue
                cluster_min = min([j] + ties)
                if cluster_min < j:
                    # the tie annulus around j needs the classes around the
                    # cluster owner plus everything deeper around it
                    transfer(j, a, cluster_min)
                    add_tail(cluster_min, a + 1)
                    changed = True
                    continue
                # j owns the tie; in-between levels around the partners are
                # covered by the resolved classes, deeper levels hand off
                for i in ties:
                    for b in range(a + 1, a + m_depth):
                        handled[i].add(b)
                        if b in required[i]:
                            required[i].discard(b)
                            changed = True
                    if add_tail(i, a + m_depth):
                        changed = True
                moved = [i for i in ties if a in required[i]]
                for i in moved:
                    required[i].discard(a)
                    handled[i].add(a)
                    changed = True
                if moved and add_tail(j, a + 1):
                    changed = True

    pieces: list = []
    units = ctx.units_mod(m_depth)
    for j in range(k):
        if not required[j]:
            continue
        criticals = geo.criticals(j)
        levels = sorted(required[j])
        runs: list = []
        idx = 0
        while idx < len(levels):
            a = levels[idx]
            if a in criticals:
                runs.append((a, a, True))
                idx += 1
                continue
            stop = idx
            while (
                stop + 1 < len(levels)
                and levels[stop + 1] == levels[stop] + 1
                and levels[stop + 1] not in criticals
            ):
                stop += 1
            runs.append((a, levels[stop], False))
            idx = stop + 1
        for lo, hi, is_tie in runs:
            unbounded = has_tail[j] and hi == a_max
            level_max = None if unbounded else hi
            if is_tie:
                skip = {
                    geo.tie_residue(j, i, m_depth) for i in geo.tie_partners(j, lo)
                }
                for xi in units:
                    if xi in skip:
                        continue
                    e, h = geo.tie_profile(j, lo, xi, m_depth)
                    pieces.append(_make_piece(geo, j, lo, level_max, xi, m_depth, e, h))
            else:
                e, h = geo.run_profile(j, lo, hi)
                for xi in units:
                    pieces.append(_make_piece(geo, j, lo, level_max, xi, m_depth, e, h))
    pieces.sort(key=lambda p: (p.chosen_center_index, p.level_min, p.residue))
    return pieces


def _make_piece(
    geo: _Geometry,
    j: int,
    lo: int,
    level_max: Optional[int],
    xi: int,
    m: int,
    exponent: int,
    h_exponent: int,
) -> PreparedPiece:
    ctx = geo.ctx
    lam = PadicScalar(xi * ctx.power(lo), ctx)
    cell = point_cell(
        geo.centers[j],
        CosetSpec(lam, m, 1),
        level_min=lo,
        level_max=level_max,
    )
    return PreparedPiece(
        cell=cell,
        chosen_center_index=j,
        exponent=exponent,
        h_exponent=h_exponent,
        level_min=lo,
        level_max=level_max,
        residue=xi,
        m=m,
    )


# ---------------------------------------------------------------------------
# verification (the independent oracle) and helpers


def piece_contains(f: FactoredTerm, piece: PreparedPiece, t: PadicScalar) -> bool:
    delta = t - f.centers[piece.chosen_center_index]
    o = delta.ord()
    if not o.is_finite or o.value < piece.level_min:
        return False
    if piece.level_max is not None and o.value > piece.level_max:
        return False
    return delta.ac(piece.m).residue == piece.residue


def verify_prepared(f: FactoredTerm, piece: PreparedPiece, depth: int) -> PrepareCheck:
    """Check a prepared piece against direct factor evaluation.

    For every depth-M representative t of the piece's balls (levels capped
    at _LEVEL_CAP per piece), ord f(t) computed as ord(u) + sum a_i
    ord(t - c_i) must equal h_exponent + exponent * ord(t - c_j) exactly.
    The (exponent, h) pair is additionally checked against the geometric
    profile of the cell, which pins the exponent even on single-level
    pieces where the identity alone cannot distinguish it.
    """
    if depth < 1:
        raise ValueError("verification depth must be >= 1")
    geo = _Geometry(f)
    ctx = geo.ctx
    j = piece.chosen_center_index
    center = geo.centers[j]

    hi = piece.level_max
    last = piece.level_min + _LEVEL_CAP - 1 if hi is None else min(hi, piece.level_min + _LEVEL_CAP - 1)
    for a in range(piece.level_min, last + 1):
        rep = PadicScalar(center.value + piece.residue * ctx.power(a), ctx)
        ball = Ball(rep, a + piece.m)
        for t in ball.representatives(depth):
            direct = f.ord_at(t)
            predicted = piece.h_exponent + piece.exponent * a
            if not direct.is_finite or direct.value != predicted:
                return PrepareCheck(
                    False,
                    t,
                    f"ord f({t}) = {direct} but the piece predicts {predicted}",
                )

    criticals = geo.criticals(j)
    is_tie = piece.level_max == piece.level_min and piece.level_min in criticals
    try:
        if is_tie:
            expected = geo.tie_profile(j, piece.level_min, piece.residue, piece.m)
        else:
            hi_for_profile = piece.level_max
            if hi_for_profile is None:
                # an unbounded tail lies beyond every tie; a critical at or
                # above level_min would make run_profile raise, which is the
                # desired failure for inconsistent pieces
                hi_for_profile = max([piece.level_min] + [d + 1 for d in criticals])
            expected = geo.run_profile(j, piece.level_min, hi_for_profile)
    except AssertionError as err:
        # the profiles assert the sweep's invariants, which a piece handed in
        # from outside the sweep need not satisfy
        return PrepareCheck(False, None, f"piece geometry is inconsistent: {err}")
    if expected != (piece.exponent, piece.h_exponent):
        witness = PadicScalar(center.value + piece.residue * ctx.power(piece.level_min), ctx)
        return PrepareCheck(
            False,
            witness,
            f"profile (exponent, h) should be {expected}, piece carries "
            f"({piece.exponent}, {piece.h_exponent})",
        )
    return PrepareCheck(True, None, "piece matches direct factor evaluation")


def value_unit_class(
    f: FactoredTerm, piece: PreparedPiece, ell: int, depth: int = 1
) -> Optional[int]:
    """Common ac_ell residue of f on the piece, or None when it varies.

    Reported per piece on request; the minimal ell making it constant is
    not computed.
    """
    geo = _Geometry(f)
    ctx = geo.ctx
    center = geo.centers[piece.chosen_center_index]
    last = piece.level_min + 1 if piece.level_max is None else min(piece.level_max, piece.level_min + 1)
    residue = None
    for a in range(piece.level_min, last + 1):
        rep = PadicScalar(center.value + piece.residue * ctx.power(a), ctx)
        for t in Ball(rep, a + piece.m).representatives(depth):
            r = f.evaluate(t).ac(ell).residue
            if residue is None:
                residue = r
            elif r != residue:
                return None
    return residue
