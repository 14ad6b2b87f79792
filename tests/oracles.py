"""Slow reference implementations that the tests compare the library with.

The all-pairs scans are references for the ball-tree algorithms: each
visits every pair (i, j), i < j, in index order and keeps the first pair
that decides the answer, which is the lexicographically least one.  They
are quadratic.

tuple_splitting_classes is the reference for the ball tree of
regions.splitting_classes: the tree of caller-built integer key tuples,
from level 0 of the keys.

window_points and ball_points are the references for
regions.enumerate_window and Ball.representatives: the points listed level
by level and step by step in Fraction arithmetic, as the docstrings define
them.

all_pairs_overlap is the reference for regions.first_overlap: every pair
in index order, where two balls overlap exactly when the one of smaller
radius_ord holds the other's centre, by the ord of the scalar difference.

The frac_* functions are references for the scalar kernel: the Q_p
formulas of qp_core computed on Fractions only, with no integer fast path
and no caching.

division_in_coset is the reference for qp_core.in_coset: membership by
the angular component of the quotient x / lambda.

char_tokens is the reference for the term tokenizer: one character at a
time, with the str predicates that define the token language.

distance_balls is the reference for prepare.FactoredTerm.balls: the
centers grouped by their pairwise distances, one group head at a time.

worklist_prepare is the reference for prepare: the fix-point over level
sets that the walk down the ball tree of the centers replaced.

exhaustive_verify_prepared is the reference for verify_prepared: it
evaluates ord f at every depth-M representative of every checked ball, and
scans a tail two levels past the last level that verify_prepared checks.

scalar_piece_contains is the reference for prepare.piece_contains: the ord
and ac of the PadicScalar difference t - c_j.

top_level_parse is the reference for cli._parse: the whole command line
read by the top-level parser, which finds the command name and hands the
words after it to the command's parser.

_eval and _eval_cond are the references for the compiled evaluator: the
recursive walk over the term tree, one node at a time, with PadicScalar
arithmetic at every node.  walk_piecewise evaluates a piecewise function
with them.  The walk states levelspike by its definition through frac_ord
and frac_ac: p^(2n) where the angular component mod p^(2n) of a point of
level n >= 1 is 1.
"""

from fractions import Fraction
from typing import Mapping

from ultralip.cli import _build_parser
from ultralip.prepare import PrepareCheck, PreparedPiece
from ultralip.qp_core import INFINITE_ORD, CosetSpec, PadicScalar, PrimeContext, format_ord
from ultralip.regions import Ball
from ultralip.syntax import (
    Add,
    And,
    Condition,
    CosetMember,
    Div,
    IntPow,
    LevelSpike,
    Mul,
    NormCmp,
    NormVal,
    Not,
    Or,
    OrdCongruence,
    ParseError,
    RationalConst,
    Sub,
    Term,
    TrueCond,
    Variable,
)
from ultralip.terms import (
    BuiltinDomainError,
    DivisionByZero,
    PieceDomainError,
    PieceOverlapError,
    UnboundVariableError,
    _point_str,
)


def scan_pairs(points, values):
    """Best ratio exponent of |f(x)-f(y)| / |x-y| and the first pair reaching it.

    Pairs with f(x) = f(y) are skipped; tuple points use the max norm.
    Returns (None, None) when every pair is skipped.
    """
    best = None
    best_witness = None
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            ef = (values[i] - values[j]).norm_exponent()
            if ef is None:
                continue
            if isinstance(points[i], tuple):
                # the max norm: the largest exponent of a nonzero component
                diffs = [a - b for a, b in zip(points[i], points[j])]
                ex = max(d.norm_exponent() for d in diffs if not d.is_zero)
            else:
                ex = (points[i] - points[j]).norm_exponent()
            if best is None or ef - ex > best:
                best = ef - ex
                best_witness = (points[i], points[j])
    return best, best_witness


def distance_pairs(reps, images, jac_ord):
    """First (i, j) with ord(f(x_i) - f(x_j)) != jac_ord + ord(x_i - x_j), or None."""
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            lhs = (images[i] - images[j]).ord()
            rhs = (reps[i] - reps[j]).ord() + jac_ord
            if lhs != rhs:
                return i, j
    return None


def local_pairs(group, vals):
    """First (i, j) with ord(vals_i - vals_j) < ord(group_i - group_j), or None."""
    for i in range(len(group)):
        for j in range(i + 1, len(group)):
            if (vals[i] - vals[j]).ord() < (group[i] - group[j]).ord():
                return i, j
    return None


def exloc_pairs(points, values):
    """First pair of points at different levels breaking an exloc identity.

    Returns ((i, j), 0) when ord(f_i - f_j) != max(ord x_i, ord x_j) fails
    as the value identity |f(x1)-f(x2)| = |x2|^-1, ((i, j), 1) when
    ord(x_i - x_j) != min(ord x_i, ord x_j), or None.
    """
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            a, b = i, j
            if points[a].ord() > points[b].ord():
                a, b = b, a
            if points[a].ord() == points[b].ord():
                continue
            if (values[a] - values[b]).norm_exponent() != points[b].ord():
                return (i, j), 0
            if (points[a] - points[b]).norm_exponent() != -points[a].ord():
                return (i, j), 1
    return None


def tuple_splitting_classes(keys, p):
    """Every class of the ultrametric ball tree of keys that splits, as a
    tuple (level, members, labels, children): labels[n] is the tuple of the
    coordinates of members[n] mod p^(level+1), and children lists the
    members of each label in order of first appearance.

    keys[i] is a tuple of integers, and two keys agree mod p^k when every
    coordinate does: the ball of radius p^(-k) of the max norm.  A pair of
    keys at ord distance exactly k (the least coordinate ord) is a pair
    across two children of the level-k class holding both, so every pair
    lies across exactly one split class.  Members ascend, and a class comes
    before its descendants.  Costs O(len(keys) * levels).
    """
    if len(set(keys)) != len(keys):
        raise ValueError("ball tree keys must be distinct")
    out = []
    stack = [(0, list(range(len(keys))))]
    while stack:
        level, members = stack.pop()
        modulus = p ** (level + 1)
        labels = [tuple(c % modulus for c in keys[i]) for i in members]
        children: dict = {}
        for i, label in zip(members, labels):
            children.setdefault(label, []).append(i)
        if len(children) > 1:
            out.append((level, members, labels, list(children.values())))
        stack.extend((level + 1, child) for child in children.values() if len(child) > 1)
    return out


def window_points(v_min, v_max, depth, p):
    """p^v * u for each level v in [v_min, v_max], in ascending order, and
    each u in [1, p^depth) prime to p, in ascending order."""
    return [
        Fraction(p) ** v * u
        for v in range(v_min, v_max + 1)
        for u in range(1, p**depth)
        if u % p
    ]


def ball_points(center, radius_ord, depth, p):
    """center + i * p^radius_ord for i in [0, p^depth), in ascending order."""
    return [Fraction(center) + i * Fraction(p) ** radius_ord for i in range(p**depth)]


def balls_overlap(a: Ball, b: Ball) -> bool:
    """Whether two balls meet: the one of smaller radius_ord, the larger
    set, holds the other's centre, ord(small.center - big.center) >= its
    radius_ord."""
    big, small = (a, b) if a.radius_ord <= b.radius_ord else (b, a)
    return (small.center - big.center).ord() >= big.radius_ord


def all_pairs_overlap(balls):
    """First (i, j), i < j in index order, of two balls that are not disjoint, or None."""
    for i in range(len(balls)):
        for j in range(i + 1, len(balls)):
            if balls_overlap(balls[i], balls[j]):
                return i, j
    return None


# ---------------------------------------------------------------------------
# the scalar kernel on Fractions only


def frac_multiplicity(n, p):
    """Multiplicity of p in the nonzero integer n."""
    v = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        v += 1
    return v


def frac_ord(x, p):
    """ord_p of the rational x, or None for 0."""
    x = Fraction(x)
    if x == 0:
        return None
    return frac_multiplicity(x.numerator, p) - frac_multiplicity(x.denominator, p)


def frac_unit_part(x, p):
    """x / p^ord(x) for nonzero x."""
    return Fraction(x) / Fraction(p) ** frac_ord(x, p)


def frac_ac(x, p, n):
    """The angular component residue of x mod p^n; 0 for x = 0."""
    if Fraction(x) == 0:
        return 0
    pn = p**n
    u = frac_unit_part(x, p)
    return (u.numerator * pow(u.denominator, -1, pn)) % pn


def frac_reduce_mod_power(x, p, k):
    """The smallest nonnegative multiple of p^ord(x) congruent to x mod p^k."""
    v = frac_ord(x, p)
    if v is None or v >= k:
        return Fraction(0)
    span = p ** (k - v)
    u = frac_unit_part(x, p)
    r = (u.numerator * pow(u.denominator, -1, span)) % span
    return r * Fraction(p) ** v


FRAC_OPS = {
    "+": lambda a, b: Fraction(a) + Fraction(b),
    "-": lambda a, b: Fraction(a) - Fraction(b),
    "*": lambda a, b: Fraction(a) * Fraction(b),
    "/": lambda a, b: Fraction(a) / Fraction(b),
}


def frac_pow(x, k):
    return Fraction(x) ** k


_TWO_CHAR = ("||", "&&", "<=", "->")
_ONE_CHAR = set("+-*/^()|<>=!%,;{}[]")


def char_tokens(source):
    """(kind, text, line, col) of each token, ending with one eof token.

    Raises ParseError at the first character that starts no token.
    """
    tokens = []
    line, col, i = 1, 1, 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        two = source[i : i + 2]
        if two in _TWO_CHAR:
            tokens.append(("op", two, line, col))
            i += 2
            col += 2
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(("int", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("ident", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _ONE_CHAR:
            tokens.append(("op", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("eof", "", line, col))
    return tokens


def distance_balls(f, members, level):
    """members grouped into the balls of the given level by the pairwise
    distances f.dist: each joins the first group whose first member is at
    distance >= level, else starts a group of its own."""
    groups = []
    for i in members:
        for group in groups:
            if f.dist[group[0]][i] >= level:
                group.append(i)
                break
        else:
            groups.append([i])
    return groups


def tie_partners(f, j, a):
    return [i for i in range(len(f.centers)) if i != j and f.dist[i][j] == a]


def worklist_prepare(f, window, m_depth=1):
    """The preparation as a worklist fix-point over per-center level sets,
    then turned back into runs: the reference for prepare's ball-tree walk.

    Each center keeps the set of levels it must emit.  Identical annuli go
    to the least index, a tie annulus goes to its cluster's least index,
    and every tie hands the partners' deeper levels to their own tails,
    until nothing changes.  Consecutive non-critical levels then merge into
    runs, and a run reaching a_max on a center with a tail is unbounded.
    """
    ctx = f.context
    k = len(f.centers)
    v_min, v_max = window.v_min, window.v_max

    all_dist = [f.dist[i][j] for i in range(k) for j in range(i + 1, k)]
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
                    [i for i in range(k) if i != j and f.dist[i][j] > a] + [j]
                )
                if owner < j:
                    transfer(j, a, owner)
                    changed = True
        # tie closure
        for j in range(k):
            for a in sorted(required[j]):
                ties = tie_partners(f, j, a)
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
        criticals = f.criticals(j)
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
                    f.tie_residue(j, i, m_depth) for i in tie_partners(f, j, lo)
                }
                for xi in units:
                    if xi in skip:
                        continue
                    e, h = f.profile(j, lo, lo, xi, m_depth)
                    pieces.append(PreparedPiece(f, j, e, h, lo, level_max, xi, m_depth))
            else:
                e, h = f.profile(j, lo, hi)
                for xi in units:
                    pieces.append(PreparedPiece(f, j, e, h, lo, level_max, xi, m_depth))
    pieces.sort(key=lambda p: (p.chosen_center_index, p.level_min, p.residue))
    return pieces


def scalar_piece_contains(f, piece, t):
    """Membership in a prepared piece by the ord and ac of the PadicScalar t - c_j."""
    delta = t - f.centers[piece.chosen_center_index]
    o = delta.ord()
    if o == INFINITE_ORD or o < piece.level_min:
        return False
    if piece.level_max is not None and o > piece.level_max:
        return False
    return delta.ac(piece.m) == piece.residue


def exhaustive_verify_prepared(f, piece, depth):
    """Check a prepared piece against direct factor evaluation: the reference
    for verify_prepared, which decides a ball holding no center from one point
    and a tail from its two levels hi and hi + 1 past the critical distances.

    For every depth-M representative t of the piece's balls, on every level
    of a bounded piece and on the levels up to hi + 3 of a tail, ord f(t)
    computed as ord(u) + sum a_i ord(t - c_i) must equal
    h_exponent + exponent * ord(t - c_j) exactly.
    The (exponent, h) pair is additionally checked against the geometric
    profile of the cell, which pins the exponent even on single-level
    pieces where the identity alone cannot distinguish it.
    """
    if depth < 1:
        raise ValueError("verification depth must be >= 1")
    ctx = f.context
    j = piece.chosen_center_index
    center = f.centers[j]
    criticals = f.criticals(j)
    is_tie = piece.level_max == piece.level_min and piece.level_min in criticals
    hi = piece.level_max
    if hi is None:
        # an unbounded tail lies beyond every tie; a critical at or above
        # level_min would make the profile raise, which is the desired
        # failure for inconsistent pieces
        hi = max([piece.level_min] + [d + 1 for d in criticals])
    last = hi + 3 if piece.level_max is None else hi

    for a in range(piece.level_min, last + 1):
        rep = PadicScalar(center.value + piece.residue * ctx.power(a), ctx)
        ball = Ball(rep, a + piece.m)
        for t in map(ctx.scalar, ball.representatives(depth)):
            try:
                direct = f.ord_at(t.value)
            except ZeroDivisionError as err:
                # a piece from outside the sweep may contain a center
                return PrepareCheck(False, t, f"{err}, inside the piece")
            predicted = piece.h_exponent + piece.exponent * a
            if direct != predicted:
                return PrepareCheck(
                    False,
                    t,
                    f"ord f({t}) = {format_ord(direct)} but the piece predicts {predicted}",
                )

    try:
        if is_tie:
            expected = f.profile(j, piece.level_min, piece.level_min, piece.residue, piece.m)
        else:
            expected = f.profile(j, piece.level_min, hi)
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


# ---------------------------------------------------------------------------
# coset membership by division


def division_in_coset(x: PadicScalar, spec: CosetSpec) -> bool:
    """Exact membership of x in lambda*Q_{m,n}.

    For lambda = 0 the coset is {0}; otherwise x must be nonzero with
    ord(x) - ord(lambda) divisible by n and ac_m(x / lambda) = 1.
    """
    if spec.is_zero:
        return x.is_zero
    if x.is_zero:
        return False
    shift = x.ord() - spec.lam.ord()
    if shift % spec.n != 0:
        return False
    return (x / spec.lam).ac(spec.m) == 1


# ---------------------------------------------------------------------------
# the term tree walk


def _eval(t: Term, point: Mapping, ctx: PrimeContext) -> PadicScalar:
    if isinstance(t, RationalConst):
        return PadicScalar(t.value, ctx)
    if isinstance(t, Variable):
        try:
            return point[t.name]
        except KeyError:
            raise UnboundVariableError(f"unbound variable {t.name!r}") from None
    if isinstance(t, Add):
        return _eval(t.left, point, ctx) + _eval(t.right, point, ctx)
    if isinstance(t, Sub):
        return _eval(t.left, point, ctx) - _eval(t.right, point, ctx)
    if isinstance(t, Mul):
        return _eval(t.left, point, ctx) * _eval(t.right, point, ctx)
    if isinstance(t, Div):
        denom = _eval(t.right, point, ctx)
        if denom.is_zero:
            raise DivisionByZero(t.right)
        return _eval(t.left, point, ctx) / denom
    if isinstance(t, IntPow):
        base = _eval(t.base, point, ctx)
        if base.is_zero and t.exponent < 0:
            raise DivisionByZero(t)
        return base**t.exponent
    if isinstance(t, NormVal):
        arg = _eval(t.arg, point, ctx)
        if arg.is_zero:
            raise BuiltinDomainError("normval is declared on nonzero arguments")
        return PadicScalar(ctx.power(-arg.ord()), ctx)
    if isinstance(t, LevelSpike):
        x = _eval(t.arg, point, ctx).value
        if x == 0:
            return PadicScalar(0, ctx)
        level = frac_ord(x, ctx.p)
        if level < 1:
            raise BuiltinDomainError("levelspike is defined on p*Z_p and at 0")
        marked = frac_ac(x, ctx.p, 2 * level) == 1
        return PadicScalar(ctx.p ** (2 * level) if marked else 0, ctx)
    raise TypeError(f"not a term node: {t!r}")


def _eval_cond(c: Condition, point: Mapping, ctx: PrimeContext) -> bool:
    if isinstance(c, TrueCond):
        return True
    if isinstance(c, NormCmp):
        # |a| < |b| exactly when ord a > ord b; ord 0 is INFINITE_ORD = math.inf,
        # above every int, so 0 is the least norm
        lhs = _eval(c.lhs, point, ctx).ord()
        rhs = _eval(c.rhs, point, ctx).ord()
        if c.op == "<":
            return lhs > rhs
        if c.op == "<=":
            return lhs >= rhs
        if c.op == "=":
            return lhs == rhs
        raise ValueError(f"unknown norm comparison {c.op!r}")
    if isinstance(c, OrdCongruence):
        v = _eval(c.term, point, ctx).ord()
        return v != INFINITE_ORD and v % c.modulus == c.residue
    if isinstance(c, CosetMember):
        x = _eval(c.term, point, ctx)
        lam = PadicScalar(c.lam, ctx)
        return division_in_coset(x, CosetSpec(lam, c.m, c.n))
    if isinstance(c, And):
        return _eval_cond(c.left, point, ctx) and _eval_cond(c.right, point, ctx)
    if isinstance(c, Or):
        return _eval_cond(c.left, point, ctx) or _eval_cond(c.right, point, ctx)
    if isinstance(c, Not):
        return not _eval_cond(c.inner, point, ctx)
    raise TypeError(f"not a condition node: {c!r}")


def walk_piecewise(pf, point, ctx):
    """evaluate_piecewise by the tree walk: every piece condition is
    evaluated, and exactly one may hold."""
    matches = [body for cond, body in pf.pieces if _eval_cond(cond, point, ctx)]
    if not matches:
        raise PieceDomainError(f"no piece covers the point {_point_str(point)}")
    if len(matches) > 1:
        raise PieceOverlapError(f"pieces overlap at the point {_point_str(point)}")
    return _eval(matches[0], point, ctx)


def top_level_parse(argv):
    return _build_parser()[0].parse_args(argv)
