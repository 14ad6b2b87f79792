"""Exact univariate preparation of factored-linear terms.

For f(t) = u * prod_i (t - c_i)^(a_i) the window around the centers is
split into finitely many disjoint cells on each of which

    ord f(t) = H + e * ord(t - c_j)

holds exactly for one chosen center c_j and integer constants (e, H):
the norm of f is a monomial in the distance to the center.

The cells come from one walk down the ball tree of the centers.  The
centers of a ball of level a have the same annuli {ord(t - c) = b} for
a <= b < split, the ball's split level being the least distance between
two of its centers, and on those annuli every |t - c_i| is frozen or tracks
|t - c_o| uniformly, where c_o is the center of least index: they form
one run of c_o.  At the split level the annulus around c_o breaks into
the ac_m classes of t - c_o.  A class pointing at no other center is a
tie cell, where the tie factors contribute through the residue
difference.  The class pointing at a partner is the partner's ball of
level split + m, where the walk goes on; c_o's own child ball goes on one
level deeper.  A ball holding a single center ends in a tail: one
unbounded-depth cell per angular class.

The raw center values, ord(u) and the pairwise center distances are
computed once, when the FactoredTerm is built, and the sweep,
verify_prepared and the profiles read them from the term: nothing is cached
beside it.  A piece is plain data: the term, the chosen center's index, the
exponent e, H, the level range, the angular class and its depth m.  Its Cell
is built from those fields each time it is read, so the sweep builds no Cell
and no PadicScalar.  verify_prepared checks every level of a piece, a tail up
to two levels past its last critical distance; it computes on raw values,
builds a PadicScalar only for a witness, and a Ball only for a ball that holds
a center.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .qp_core import (
    INFINITE_ORD, CosetSpec, PadicScalar, PrimeContext, format_ord, residue, unit_residue, valuation,
)
from .regions import Ball, Window
from .cells import Cell, point_cell
from .syntax import _Parser

__all__ = [
    "FactoredTerm",
    "PreparedPiece",
    "PrepareCheck",
    "parse_factored",
    "prepare",
    "verify_prepared",
    "piece_contains",
]

@dataclass(frozen=True)
class FactoredTerm:
    """u * prod (t - c_i)^(a_i) with distinct centers and nonzero integer
    exponents; the valuation is factor-by-factor and exact.

    The centers, their raw values, the exponents, ord(u) and the pairwise
    center distances are computed once, when the term is built, and read by
    the sweep, the verification and the profiles below."""

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
        # outside the dataclass fields, so equality, hashing and repr still see
        # only unit and factors; values[i] is the raw value of c_i and
        # dist[i][j] = ord(c_i - c_j)
        p = self.context.p
        values = tuple(c.value for c, _ in self.factors)
        object.__setattr__(self, "centers", tuple(c for c, _ in self.factors))
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "exponents", tuple(a for _, a in self.factors))
        object.__setattr__(self, "unit_ord", self.unit.ord())
        dist = tuple(
            tuple(None if i == j else valuation(ci - cj, p) for j, cj in enumerate(values))
            for i, ci in enumerate(values)
        )
        object.__setattr__(self, "dist", dist)

    @property
    def context(self) -> PrimeContext:
        return self.unit.context

    def ord_at(self, x) -> "int | float":
        """ord f(x) at the raw value x, an int or a Fraction, as the exact
        sum ord(u) + sum a_i ord(x - c_i)."""
        total, p = self.unit_ord, self.context.p
        for c, exponent in zip(self.values, self.exponents):
            o = valuation(x - c, p)
            if o == INFINITE_ORD:
                if exponent > 0:
                    return INFINITE_ORD
                raise ZeroDivisionError(f"pole of f at t = {x}")
            total += exponent * o
        return total

    # geometry of the center set

    def balls(self, members: list, level: int) -> list:
        """members grouped into the balls of the given level, in order of
        first appearance, each in the order of members: centers share a ball
        exactly when their residues mod p^level are equal."""
        groups: dict = {}
        for i in members:
            groups.setdefault(residue(self.values[i], level, self.context.p), []).append(i)
        return list(groups.values())

    def criticals(self, j: int) -> set:
        return {d for i, d in enumerate(self.dist[j]) if i != j}

    def tie_residue(self, j: int, i: int, m: int) -> int:
        """ac_m(c_i - c_j): the angular class around c_j that points at c_i."""
        return unit_residue(self.values[i] - self.values[j], self.dist[j][i], m, self.context.p)

    def profile(self, j: int, lo: int, hi: int, xi: Optional[int] = None, m: int = 1) -> tuple:
        """(exponent, H) on levels [lo, hi] around c_j: factors strictly closer
        than lo are frozen, strictly farther than hi track t.

        A distance to c_j inside [lo, hi] is a tie, resolvable only on one
        level a = lo = hi and one angular class xi of depth m: a tie factor
        contributes a + r where p^r exactly divides the residue difference
        xi - w mod p^m.  The class pointing at a tie partner (xi = w) is not
        resolvable at depth m and is never emitted."""
        e = self.exponents[j]
        h = self.unit_ord
        for i, d in enumerate(self.dist[j]):
            if i == j:
                continue
            if d > hi:
                e += self.exponents[i]
            elif d < lo:
                h += self.exponents[i] * d
            elif xi is None:
                raise AssertionError(f"run [{lo},{hi}] crosses the tie at {d}")
            else:
                delta = (xi - self.tie_residue(j, i, m)) % self.context.p**m
                if delta == 0:
                    raise AssertionError(f"class {xi} points at center {i}: not resolvable")
                h += self.exponents[i] * (d + valuation(delta, self.context.p))
        return e, h

    def __str__(self) -> str:
        parts = [str(self.unit.value)]
        for center, exponent in self.factors:
            body = f"(t - {center.value})"
            parts.append(body if exponent == 1 else f"{body}^{exponent}")
        return " * ".join(parts)


def parse_factored(text: str, ctx: PrimeContext) -> FactoredTerm:
    """Parse the CLI factored syntax: u * (t - c1)^a1 * (t - c2)^a2 ..."""
    unit, factors = _Parser(text).read(_Parser.factored)
    return FactoredTerm(ctx.scalar(unit), tuple((ctx.scalar(c), a) for c, a in factors))


@dataclass(frozen=True)
class PreparedPiece:
    """One cell of the preparation with its exact norm profile, as plain data.

    On the cell, ord f(t) = h_exponent + exponent * ord(t - c_j) where
    c_j = term.centers[chosen_center_index] is the chosen center;
    level_min/level_max give the cell's ord(t - c_j) range (level_max None
    means unbounded depth) and residue is the ac_m class of t - c_j.  The
    Cell is not stored: `cell` builds it from these fields when it is read,
    so it is always the cell that verify_prepared and piece_contains check.
    """

    term: FactoredTerm
    chosen_center_index: int
    exponent: int
    h_exponent: int
    level_min: int
    level_max: Optional[int]
    residue: int
    m: int

    @property
    def cell(self) -> Cell:
        """The point cell c_j + residue * p^level_min * Q(m, 1) on the levels
        [level_min, level_max]."""
        ctx = self.term.context
        lam = PadicScalar(self.residue * ctx.power(self.level_min), ctx)
        return point_cell(
            self.term.centers[self.chosen_center_index],
            CosetSpec(lam, self.m, 1),
            self.level_min,
            self.level_max,
        )


@dataclass(frozen=True)
class PrepareCheck:
    passed: bool
    witness: Optional[PadicScalar]
    detail: str


# ---------------------------------------------------------------------------
# the sweep


def prepare(f: FactoredTerm, window: Window, m_depth: int = 1) -> list:
    """Disjoint prepared cells covering the union of window annuli around
    the centers (plus the balls below a tie), minus the centers.

    The scan domain is D = union over centers c_j of
    {t : v_min <= ord(t - c_j) <= v_max}.  The walk starts at each ball of
    level v_min of the center set.  An annulus belongs to the least-index
    center of the smallest ball holding the centers it surrounds: the
    annulus of level b < split is the same around all of them, and at the
    split level the classes pointing at partners go to the partners' own
    walks.  The window bounds only this first walk, whose run stops at
    v_max when the ball does not split by then.  A ball that splits at a
    level a <= v_max lies wholly in D, since each of its points is at
    ord exactly a from one of its centers; so every walk below a split is
    unbounded, and a center alone in its ball ends in a tail (level_max
    None).  All cells use coset depth m_depth (ties split into
    ac_(m_depth) classes) and step n = 1.  Output is ordered by (center
    index, level, residue).  Only the window's levels are read, never its
    depth.
    """
    if m_depth < 1:
        raise ValueError("m_depth must be >= 1")
    v_min, v_max = window.v_min, window.v_max

    pieces: list = []
    units = f.context.units_mod(m_depth)

    def emit(j: int, lo: int, level_max: Optional[int], profile: tuple) -> None:
        for xi in units:
            pieces.append(PreparedPiece(f, j, *profile, lo, level_max, xi, m_depth))

    def walk(members: list, a: int, bounded: bool) -> None:
        # members share the ball of level a around their least index o, so
        # o's annuli of levels a .. split - 1 are those of every member
        o = members[0]
        split = min((f.dist[o][i] for i in members[1:]), default=None)
        if split is None or (bounded and split > v_max):
            hi = v_max if bounded else a
            emit(o, a, hi if bounded else None, f.profile(o, a, hi))
            return
        if a < split:
            emit(o, a, split - 1, f.profile(o, a, split - 1))
        partners = [i for i in members if f.dist[o][i] == split]
        skip = {f.tie_residue(o, i, m_depth) for i in partners}
        for xi in units:
            if xi not in skip:
                e, h = f.profile(o, split, split, xi, m_depth)
                pieces.append(PreparedPiece(f, o, e, h, split, split, xi, m_depth))
        walk(f.balls(members, split + 1)[0], split + 1, False)
        for ball in f.balls(partners, split + m_depth):
            walk(ball, split + m_depth, False)

    for ball in f.balls(list(range(len(f.centers))), v_min):
        walk(ball, v_min, True)
    pieces.sort(key=lambda p: (p.chosen_center_index, p.level_min, p.residue))
    return pieces


# ---------------------------------------------------------------------------
# verification (the independent oracle) and helpers


def piece_contains(f: FactoredTerm, piece: PreparedPiece, t: PadicScalar) -> bool:
    """Whether t lies in the piece: ord(t - c_j) in the level range and
    ac_m(t - c_j) = residue.  Both are read from t - c_j = num / den with the
    numerator and denominator cross-multiplied and not reduced.  f must be
    the piece's own term."""
    if f is not piece.term and f != piece.term:
        raise ValueError("the piece was prepared from another term")
    x, c = t.value, f.values[piece.chosen_center_index]
    if x.__class__ is int and c.__class__ is int:
        num, den = x - c, 1
    else:
        num = x.numerator * c.denominator - c.numerator * x.denominator
        den = x.denominator * c.denominator
    if not num:
        return False
    p = f.context.p
    v_num, v_den = valuation(num, p), valuation(den, p)
    o = v_num - v_den
    if o < piece.level_min or (piece.level_max is not None and o > piece.level_max):
        return False
    if piece.m < 1:
        raise ValueError("angular component depth must be >= 1")
    # num / p^v_num and den / p^v_den are units whose quotient has the unit
    # part of t - c_j, so its ac_m is r exactly when r is a residue in
    # [0, p^m) with num / p^v_num = r * den / p^v_den mod p^m
    pm, r = p**piece.m, piece.residue
    return 0 <= r < pm and (num // p**v_num - r * (den // p**v_den)) % pm == 0


def _mismatch(t: PadicScalar, direct: "int | float", predicted: int) -> PrepareCheck:
    return PrepareCheck(
        False, t, f"ord f({t}) = {format_ord(direct)} but the piece predicts {predicted}"
    )


def verify_prepared(f: FactoredTerm, piece: PreparedPiece, depth: int) -> PrepareCheck:
    """Check a prepared piece against direct factor evaluation.

    On each ball c_j + xi p^a + p^(a+m) Z_p of the piece, ord f(t) computed
    as ord(u) + sum a_i ord(t - c_i) must equal h_exponent + exponent * a
    exactly.  A ball that holds no center is decided exactly by one point,
    its canonical center: every ord(t - c_i) is constant on it.  Only a ball
    that holds a center (never one of the sweep's own pieces) is scanned at
    its depth-M representatives, for the least failing point or the pole.

    Every level of a bounded piece is checked, and a tail's levels up to
    hi + 1, where hi = max(level_min, d + 1) over the distances
    d = ord(c_i - c_j): on a level a >= hi no ball holds a center and every
    ord(t - c_i), i != j, is the constant d, so the direct ord f is affine
    in a, as is the prediction, and two affine functions that agree at hi
    and hi + 1 agree on the whole tail.
    The (exponent, h) pair is additionally checked against the geometric
    profile of the cell on [level_min, hi], which pins the exponent even on
    single-level pieces where the identity alone cannot distinguish it.
    f must be the piece's own term.
    """
    if f is not piece.term and f != piece.term:
        raise ValueError("the piece was prepared from another term")
    if depth < 1:
        raise ValueError("verification depth must be >= 1")
    ctx, p = f.context, f.context.p
    j = piece.chosen_center_index
    center = f.values[j]
    criticals = f.criticals(j)
    is_tie = piece.level_max == piece.level_min and piece.level_min in criticals
    hi = piece.level_max
    if hi is None:
        # a critical at or above level_min would make the profile raise,
        # which is the desired failure for inconsistent pieces
        hi = max([piece.level_min] + [d + 1 for d in criticals])
    for a in range(piece.level_min, hi + 2 if piece.level_max is None else hi + 1):
        radius = a + piece.m
        # the canonical centre of the ball c_j + xi p^a + p^(a+m) Z_p
        x = residue(center + piece.residue * ctx.power(a), radius, p)
        predicted = piece.h_exponent + piece.exponent * a
        ords = [valuation(x - c, p) for c in f.values]
        if all(o < radius for o in ords):
            # no center lies in the ball, so every ord(t - c_i) is constant
            # on it and its first representative decides the identity exactly
            direct = f.unit_ord + sum(e * o for e, o in zip(f.exponents, ords))
            if direct != predicted:
                return _mismatch(PadicScalar(x, ctx), direct, predicted)
            continue
        for rep in Ball(PadicScalar(x, ctx), radius).representatives(depth):
            try:
                direct = f.ord_at(rep)
            except ZeroDivisionError as err:
                # a piece from outside the sweep may contain a center
                return PrepareCheck(False, PadicScalar(rep, ctx), f"{err}, inside the piece")
            if direct != predicted:
                return _mismatch(PadicScalar(rep, ctx), direct, predicted)

    try:
        expected = f.profile(j, piece.level_min, hi, piece.residue if is_tie else None, piece.m)
    except AssertionError as err:
        # the profile asserts the sweep's invariants, which a piece handed in
        # from outside the sweep need not satisfy
        return PrepareCheck(False, None, f"piece geometry is inconsistent: {err}")
    if expected != (piece.exponent, piece.h_exponent):
        witness = PadicScalar(center + piece.residue * ctx.power(piece.level_min), ctx)
        return PrepareCheck(
            False,
            witness,
            f"profile (exponent, h) should be {expected}, piece carries "
            f"({piece.exponent}, {piece.h_exponent})",
        )
    return PrepareCheck(True, None, "piece matches direct factor evaluation")

