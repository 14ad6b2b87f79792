"""Ultrametric balls, valuation windows, and residue-class enumeration.

A ball is the set center + p^k Z_p.  Windows truncate Q_p to a finite
range of valuations and a finite angular depth M, which makes exhaustive
scans possible; every result obtained this way is labeled with the depth
at which it was verified.

Windows and balls yield raw points: enumerate_window and
Ball.representatives return ints and Fractions in lowest terms (an int when
integral), the values the compiled terms and the kernels of qp_core read,
and splitting_classes takes them with the prime.  A PadicScalar is built
only for what leaves an analysis: a witness, a centre or an input.

The ball tree of a point set is a list of bare (level, members, children)
tuples of point indices, one per class that splits; a caller that needs
a label per member, to search for pairs across two children, gets it from
child_labels.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .qp_core import PadicScalar, PrimeContext, residue, valuation

__all__ = [
    "Ball",
    "Window",
    "first_overlap",
    "enumerate_window",
    "splitting_classes",
    "child_labels",
    "least_cross_pair",
    "least_ord_break",
]


@dataclass(frozen=True)
class Ball:
    """The set center + p^radius_ord Z_p.

    The stored center is canonicalized (reduced mod p^radius_ord), so two
    balls are equal as dataclasses exactly when they are equal as sets.
    """

    center: PadicScalar
    radius_ord: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "center", self.center.reduce_mod_power(self.radius_ord))

    @property
    def context(self) -> PrimeContext:
        return self.center.context

    def contains(self, x: PadicScalar) -> bool:
        """Whether x is in the ball: its residue mod p^radius_ord is the
        canonical centre.  A scalar of another prime raises ValueError."""
        p = self.center._context_with(x).p
        return residue(x.value, self.radius_ord, p) == self.center.value

    def representatives(self, depth: int) -> list:
        """One point per residue class of the ball mod p^(radius_ord + depth),
        in canonical ascending order: the raw values center + p^radius_ord * r,
        r in [0, p^depth), each an int when integral and a Fraction in lowest
        terms otherwise."""
        if depth < 1:
            raise ValueError("representative depth must be >= 1")
        c, step = self.center.value, self.context.power(self.radius_ord)
        n = self.context.p**depth
        if c.__class__ is int and step.__class__ is int:
            return list(range(c, c + n * step, step))
        points = [c + r * step for r in range(n)]
        return [x.numerator if x.denominator == 1 else x for x in points]

    def __str__(self) -> str:
        return f"{self.center} + {self.context.p}^{self.radius_ord}"


def first_overlap(balls: Sequence[Ball]) -> Optional[tuple]:
    """The least (i, j), i < j, of two balls that overlap, or None.

    Two balls are disjoint or nested, so they overlap exactly when the one
    of smaller radius_ord, the larger set, holds the other's centre.  The
    pairs are scanned in index order, one Ball.contains each: fit_cell's
    lists hold one image ball per source level, so they are short.
    """
    if any(ball.context is not balls[0].context for ball in balls):
        raise ValueError("balls from different prime contexts")
    for i, a in enumerate(balls):
        for j in range(i + 1, len(balls)):
            b = balls[j]
            if a.contains(b.center) if a.radius_ord <= b.radius_ord else b.contains(a.center):
                return i, j
    return None


@dataclass(frozen=True)
class Window:
    """The annulus {x : v_min <= ord(x) <= v_max} discretized at depth M:
    each valuation level splits into balls of radius ord(x) + M."""

    v_min: int
    v_max: int
    depth: int

    def __post_init__(self) -> None:
        if self.v_min > self.v_max:
            raise ValueError("window requires v_min <= v_max")
        if self.depth < 1:
            raise ValueError("window depth must be >= 1")

    def levels(self) -> range:
        return range(self.v_min, self.v_max + 1)

    def ball_of(self, x: PadicScalar) -> Ball:
        """The granularity ball x + p^(ord(x) + depth) Z_p of a point x != 0."""
        if x.is_zero:
            raise ValueError("the point 0 has no granularity ball")
        return Ball(x, x.ord() + self.depth)


def enumerate_window(window: Window, ctx: PrimeContext) -> tuple:
    """One canonical representative p^v * u per residue class of the window,
    as a tuple of raw values in level order: an int for v >= 0, else the
    Fraction u / p^(-v), in lowest terms as u is a unit.

    v runs over the window levels and u over the units in [1, p^M).  Each
    point stands for its granularity ball rep + p^(v+M) Z_p, which
    ``window.ball_of(ctx.scalar(rep))`` builds; these balls are pairwise
    disjoint and partition the window exactly.  Zero is never enumerated:
    callers that need it add it explicitly.  The number of points is
    (v_max - v_min + 1) * (p^M - p^(M-1)).
    """
    units = ctx.units_mod(window.depth)
    points = []
    for v in window.levels():
        if v >= 0:
            scale = ctx.p**v
            points.extend([u * scale for u in units])
        else:
            den = ctx.p**-v
            points.extend([Fraction(u, den) for u in units])
    return tuple(points)


# ---------------------------------------------------------------------------
# the ball tree of a finite point set


def _interleave(ints: Sequence[Sequence[int]], p: int) -> list:
    """One integer key per tuple of ints, whose residue mod p^(n*k) decides
    every coordinate mod p^k, for every k >= 0 (n = the tuple length).

    Each coordinate c is reduced to r = c mod p^D, with one D for all the
    tuples and p^D > 2 * max |c|, and digit j of r_i goes to position n*j + i.
    """
    span = 2 * max(abs(c) for pt in ints for c in pt)
    digits = 1
    reach = p
    while reach <= span:
        digits += 1
        reach *= p
    keys = []
    for pt in ints:
        residues = [c % reach for c in pt]
        key = 0
        weight = 1
        for _ in range(digits):
            for i, r in enumerate(residues):
                residues[i], digit = divmod(r, p)
                key += digit * weight
                weight *= p
        keys.append(key)
    return keys


def splitting_classes(points: Sequence, p: int) -> list:
    """Every class of the ultrametric ball tree of points that splits, as a
    tuple (level, members, children): the indices of the points that agree
    mod p^level, and those members grouped into two or more classes mod
    p^(level+1), in order of first appearance (child_labels numbers them).

    A point is a raw value in Z[1/p], an int or a Fraction in lowest terms,
    or a tuple of n of them, and two points agree mod p^k when every
    coordinate does: the ball of radius p^(-k) of the max norm.  With lo
    the least finite ord of any coordinate, each coordinate c becomes the
    integer c * p^(-lo) (zero becomes 0), and two points agree mod p^k
    exactly when these integers agree mod p^(k - lo).  For int coordinates
    lo is the ord of their gcd, one math.gcd and one valuation.  A point of
    one coordinate is keyed by its integer.  A tuple keys to one integer
    that interleaves the base-p digits of its coordinates (_interleave):
    every coordinate c is reduced to r = c mod p^D with a D common to all
    points and p^D > 2 * max |c|, and digit j of r_i goes to position
    n*j + i.

    The interleaving law: keys agree mod p^(n*k) exactly when every
    coordinate agrees mod p^k.  The residue of a key mod p^(n*k) holds the
    digits j < k of every r_i and nothing else, so keys agree there exactly
    when every r_i agrees mod p^min(k, D).  For k <= D that is c_i mod p^k,
    as r_i = c_i mod p^D.  For k > D, agreement of c_i mod p^k gives equal
    r_i; and equal r_i give c_i = c'_i, since p^D divides c_i - c'_i while
    |c_i - c'_i| <= 2 * max |c| < p^D.  So the child of a point at level k
    is named by its key mod p^(n*(k + 1 - lo)), a plain int.

    The tree starts at level lo, where all the points agree.  A pair of
    points at ord distance exactly k is a pair across two children of the
    level-k class holding both, so every pair lies across exactly one split
    class, whose level is the pair's ord distance.  Members ascend, and a
    class comes before its descendants.  Costs O(len(points) * levels): at
    each level one loop groups a class's members by key residue in a dict.
    """
    if not points:
        return []
    n = len(points[0]) if points[0].__class__ is tuple else 0
    values = [c for pt in points for c in pt] if n else points
    if all(v.__class__ is int for v in values):
        g = gcd(*values)
        lo = valuation(g, p) if g else 0
    else:
        lo = min(valuation(v, p) for v in values if v)
    if lo >= 0:
        # every coordinate is an int divisible by p^lo
        down = p**lo
        ints = [v // down for v in values]
    else:
        # every denominator divides p^(-lo)
        up = p**-lo
        ints = [int(v * up) for v in values]
    keys = _interleave([ints[k : k + n] for k in range(0, len(ints), n)], p) if n else ints
    if len(set(keys)) != len(keys):
        raise ValueError("ball tree points must be distinct")
    step = p ** max(n, 1)
    out = []
    stack = [(lo, list(range(len(keys))), step)]
    while stack:
        level, members, modulus = stack.pop()
        children: dict = {}
        for i in members:
            label = keys[i] % modulus
            child = children.get(label)
            if child is None:
                children[label] = [i]
            else:
                child.append(i)
        groups = list(children.values())
        if len(groups) > 1:
            out.append((level, members, groups))
        level += 1
        modulus *= step
        for child in groups:
            if len(child) > 1:
                stack.append((level, child, modulus))
    return out


def child_labels(members: Sequence[int], children: Sequence[Sequence[int]]) -> list:
    """The index in children of the child that holds each member, aligned
    with members: two members of a split class share a child exactly when
    their labels are equal."""
    index = {i: label for label, child in enumerate(children) for i in child}
    return [index[i] for i in members]


def least_cross_pair(
    members: Sequence[int], labels: Sequence, keys: Sequence, same: bool
) -> Optional[tuple]:
    """The lexicographically least (i, j), i before j in members, with
    labels that differ and keys that are equal when `same` (differ when
    not); None if no pair qualifies.

    labels and keys are aligned with members.  One pass counts the labels
    and keys still ahead of each i, so the first i with a partner is found
    in linear time, and one more pass finds its least partner.
    """
    ahead_label = Counter(labels)
    ahead_key = Counter(keys)
    ahead_both = Counter(zip(labels, keys))
    ahead = len(members)
    for pos, (label, key) in enumerate(zip(labels, keys)):
        ahead -= 1
        ahead_label[label] -= 1
        ahead_key[key] -= 1
        ahead_both[label, key] -= 1
        partners = ahead_key[key] - ahead_both[label, key]  # other label, same key
        if not same:
            partners = ahead - ahead_label[label] - partners
        if partners:
            for n in range(pos + 1, len(members)):
                if labels[n] != label and (keys[n] == key) == same:
                    return members[pos], members[n]
    return None


def least_ord_break(
    members: Sequence[int], labels: Sequence, values: Sequence, level: int, p: int
) -> Optional[tuple]:
    """The lexicographically least (i, j) across labels with
    ord(values_i - values_j) != level, or None; values are raw values.

    The ord is below level exactly when the residues mod p^level differ,
    and above it exactly when the residues mod p^(level+1) agree.
    """
    low = [residue(v, level, p) for v in values]
    high = [residue(v, level + 1, p) for v in values]
    pairs = (
        least_cross_pair(members, labels, low, same=False),
        least_cross_pair(members, labels, high, same=True),
    )
    return min((pair for pair in pairs if pair is not None), default=None)
