import copy
import dataclasses
import itertools
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import rationals
from oracles import distance_balls, exhaustive_verify_prepared, scalar_piece_contains, worklist_prepare
from ultralip.cells import cell_contains, format_cell, point_cell
from ultralip.qp_core import CosetSpec, PadicScalar, PrimeContext
from ultralip.regions import Ball, Window, enumerate_window
from ultralip.syntax import parse_term
from ultralip.terms import evaluate
from ultralip.prepare import (
    FactoredTerm,
    parse_factored,
    piece_contains,
    prepare,
    verify_prepared,
)


def in_domain(f, w, t):
    """t lies in some window annulus around some center (and is no center)."""
    if any(t.value == c.value for c in f.centers):
        return False
    for c in f.centers:
        o = (t - c).ord()
        if w.v_min <= o <= w.v_max:
            return True
    return False


def domain_sample(f, w, depth=2, deep_probes=2):
    """Representatives of every window annulus around every center, plus a few
    deeper probes (the tie handoffs must cover those too)."""
    ctx = f.context
    pts = {}
    for c in f.centers:
        for x in enumerate_window(Window(w.v_min, w.v_max, depth), ctx):
            pts[c.value + x] = None
        for extra in range(1, deep_probes + 1):
            pts[c.value + ctx.power(w.v_max + extra)] = None
    return [ctx.scalar(v) for v in pts]


def assert_partition(f, pieces, w, depth=2):
    for t in domain_sample(f, w, depth):
        hits = sum(1 for p in pieces if piece_contains(f, p, t))
        if in_domain(f, w, t):
            assert hits == 1, f"{t} covered {hits} times"
        else:
            assert hits <= 1, f"{t} covered {hits} times outside the window"


class TestWorkedExamples:
    def test_two_centers_p5(self, ctx5):
        """f = t(t-1) on ord-window [-2,3]: far region has slope 2, the unit
        annulus splits into classes with |f| = 1, and each center keeps a
        deep region with slope 1."""
        f = parse_factored("1 * (t - 0) * (t - 1)", ctx5)
        pieces = prepare(f, Window(-2, 3, 1))
        by_profile = {}
        for p in pieces:
            key = (p.chosen_center_index, p.level_min, p.level_max, p.exponent, p.h_exponent)
            by_profile.setdefault(key, []).append(p)
        assert (0, -2, -1, 2, 0) in by_profile  # |f| = |t|^2 far out
        assert (0, 1, None, 1, 0) in by_profile  # |f| = |t| close to 0
        assert (1, 1, None, 1, 0) in by_profile  # |f| = |t-1| close to 1
        ties = [p for p in pieces if p.level_min == p.level_max == 0]
        assert {p.residue for p in ties} == {2, 3, 4}  # class 1 hands off to center 1
        for p in ties:
            assert p.h_exponent + p.exponent * 0 == 0  # |f| = 1 there
        assert all(verify_prepared(f, p, 3).passed for p in pieces)
        assert_partition(f, pieces, Window(-2, 3, 1))

    def test_single_center_square(self, ctx3):
        f = parse_factored("1 * (t - 0)^2", ctx3)
        pieces = prepare(f, Window(-1, 2, 1))
        assert len(pieces) == 2  # one per unit class mod 3
        for p in pieces:
            assert (p.exponent, p.h_exponent) == (2, 0)
            assert (p.level_min, p.level_max) == (-1, 2)
        assert all(verify_prepared(f, p, 3).passed for p in pieces)
        assert_partition(f, pieces, Window(-1, 2, 1))

    def test_tie_handoff_p2(self, ctx2):
        """f = t(t-2) at p=2: the tie annulus ord(t)=1 is exactly the deep
        region of the center 2, so no level-1 pieces around 0 survive."""
        f = parse_factored("1 * (t - 0) * (t - 2)", ctx2)
        pieces = prepare(f, Window(-1, 3, 1))
        assert not any(
            p.chosen_center_index == 0 and p.level_min == 1 for p in pieces
        )
        deep = [p for p in pieces if p.level_min == 2 and p.level_max is None]
        assert {p.chosen_center_index for p in deep} == {0, 1}
        assert all(verify_prepared(f, p, 3).passed for p in pieces)
        assert_partition(f, pieces, Window(-1, 3, 1))

    def test_negative_exponents(self, ctx3):
        f = parse_factored("2 * (t - 0)^-1 * (t - 1)^2", ctx3)
        pieces = prepare(f, Window(-2, 2, 1))
        assert all(verify_prepared(f, p, 2).passed for p in pieces)
        assert_partition(f, pieces, Window(-2, 2, 1))

    def test_deeper_ac_split(self, ctx3):
        f = parse_factored("1 * (t - 0) * (t - 1)", ctx3)
        pieces = prepare(f, Window(-1, 2, 1), m_depth=2)
        assert all(p.m == 2 for p in pieces)
        assert all(verify_prepared(f, p, 2).passed for p in pieces)
        assert_partition(f, pieces, Window(-1, 2, 1))

    def test_clustered_centers(self, ctx3):
        """Three centers with two distance scales: 0 and 9 tie deep, 1 ties
        with both at level 0."""
        f = parse_factored("1 * (t - 0) * (t - 9) * (t - 1)", ctx3)
        pieces = prepare(f, Window(-1, 4, 1))
        assert all(verify_prepared(f, p, 2).passed for p in pieces)
        assert_partition(f, pieces, Window(-1, 4, 1), depth=2)


class TestFactoredTerm:
    def test_parse_and_print(self, ctx5):
        f = parse_factored("3/2 * (t - 1/5)^2 * (t + 2)^-1", ctx5)
        assert f.unit.value == Fraction(3, 2)
        assert f.factors[0][0].value == Fraction(1, 5)
        assert f.factors[1] == (ctx5.scalar(-2), -1)

    def test_evaluate_matches_term(self, ctx5):
        f = parse_factored("2 * (t - 1)^2 * (t - 3)^-1", ctx5)
        term = parse_term(str(f))
        for v in (0, 2, Fraction(1, 5), 10):
            t = ctx5.scalar(v)
            assert f.ord_at(t.value) == evaluate(term, {"t": t}).ord()

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.data())
    def test_printed_term_has_the_same_ord(self, data):
        """Negative and fractional centers, negative exponents and negative
        rational units all print as a term with the same ord as ord_at."""
        p = data.draw(st.sampled_from([2, 3, 5]))
        ctx = PrimeContext(p)
        rationals = st.tuples(
            st.integers(-30, 30), st.integers(1, 30), st.integers(-2, 2)
        ).map(lambda nmk: Fraction(nmk[0], nmk[1]) * Fraction(p) ** nmk[2])
        centers = data.draw(st.lists(rationals, min_size=1, max_size=4, unique=True))
        exponents = st.integers(-3, 3).filter(bool)
        factors = tuple((ctx.scalar(c), data.draw(exponents)) for c in centers)
        f = FactoredTerm(ctx.scalar(data.draw(rationals.filter(bool))), factors)
        term = parse_term(str(f))
        poles = {c.value for c, a in factors if a < 0}
        for v in data.draw(st.lists(rationals | st.sampled_from(centers), min_size=1, max_size=5)):
            if v not in poles:
                t = ctx.scalar(v)
                assert f.ord_at(t.value) == evaluate(term, {"t": t}).ord()

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(st.data())
    def test_balls_match_the_pairwise_grouping(self, data):
        """Grouping by residue against grouping by the pairwise distances,
        on int and Fraction centres and any order of members."""
        p = data.draw(st.sampled_from([2, 3, 5]))
        ctx = PrimeContext(p)
        values = data.draw(st.lists(rationals(p), min_size=1, max_size=8, unique_by=Fraction))
        f = FactoredTerm(ctx.scalar(1), tuple((ctx.scalar(c), 1) for c in values))
        order = data.draw(st.permutations(range(len(values))))
        members = order[: data.draw(st.integers(1, len(values)))]
        level = data.draw(st.integers(-3, 5))
        assert f.balls(members, level) == distance_balls(f, members, level)

    def test_validation(self, ctx3):
        with pytest.raises(ValueError):
            FactoredTerm(ctx3.scalar(0), ((ctx3.scalar(1), 1),))
        with pytest.raises(ValueError):
            FactoredTerm(ctx3.scalar(1), ((ctx3.scalar(1), 1), (ctx3.scalar(1), 2)))
        with pytest.raises(ValueError):
            FactoredTerm(ctx3.scalar(1), ((ctx3.scalar(1), 0),))

    def test_pole_at_center(self, ctx3):
        f = parse_factored("1 * (t - 1)^-1", ctx3)
        with pytest.raises(ZeroDivisionError):
            f.ord_at(1)


class TestMutationSensitivity:
    def test_exponent_corruption_detected(self, ctx5):
        f = parse_factored("1 * (t - 0) * (t - 1)", ctx5)
        for piece in prepare(f, Window(-2, 3, 1)):
            for delta in (-1, 1):
                bad = dataclasses.replace(piece, exponent=piece.exponent + delta)
                check = verify_prepared(f, bad, 3)
                assert not check.passed
                assert check.witness is not None

    def test_h_corruption_detected(self, ctx5):
        f = parse_factored("1 * (t - 0) * (t - 1)", ctx5)
        for piece in prepare(f, Window(-1, 1, 1)):
            bad = dataclasses.replace(piece, h_exponent=piece.h_exponent + 1)
            check = verify_prepared(f, bad, 3)
            assert not check.passed

    def test_piece_across_a_tie_fails(self, ctx5):
        """A run piece stretched over the tie at level 0 passes the direct
        check on its own balls but has no single profile: it is reported as
        a failed check, not raised."""
        f = parse_factored("1 * (t - 0) * (t - 1)", ctx5)
        piece = next(p for p in prepare(f, Window(-2, 1, 1)) if p.level_min == -2)
        stretched = dataclasses.replace(piece, level_max=0, residue=2)
        check = verify_prepared(f, stretched, 2)
        assert not check.passed
        assert "crosses the tie at 0" in check.detail

    def test_unrefined_tie_piece_fails(self, ctx5):
        """A tie-annulus piece whose class straddles the handoff (no ac
        refinement) cannot satisfy the identity: coset refinement is
        necessary, not incidental."""
        f = parse_factored("1 * (t - 0) * (t - 1)", ctx5)
        tie = next(
            p for p in prepare(f, Window(-1, 1, 1))
            if p.level_min == p.level_max == 0
        )
        smeared = dataclasses.replace(tie, residue=1)  # the handed-off class
        check = verify_prepared(f, smeared, 2)
        assert not check.passed

    def test_piece_holding_a_pole_fails(self, ctx3):
        """A piece around 9 at level 2 in class 2 is the ball 0 + 27 Z_3, which
        holds the pole at 0: the check fails there instead of raising."""
        f = parse_factored("1 * (t - 0)^-1 * (t - 9)", ctx3)
        piece = dataclasses.replace(
            prepare(f, Window(0, 2, 1))[0],
            chosen_center_index=1, level_min=2, level_max=2, residue=2, m=1,
        )
        check = verify_prepared(f, piece, 2)
        assert not check.passed
        assert check.witness == ctx3.scalar(0)
        assert check.detail == "pole of f at t = 0, inside the piece"

    def test_piece_holding_a_zero_fails(self, ctx3):
        """The same ball around 9 holds the center 0 of positive exponent,
        where f vanishes: the detail writes its ord as +inf."""
        f = parse_factored("1 * (t - 0) * (t - 9)", ctx3)
        piece = dataclasses.replace(
            prepare(f, Window(0, 2, 1))[0],
            chosen_center_index=1, level_min=2, level_max=2, residue=2, m=1,
        )
        for check in (verify_prepared(f, piece, 2), exhaustive_verify_prepared(f, piece, 2)):
            assert not check.passed
            assert check.witness == ctx3.scalar(0)
            assert check.detail == "ord f(0) = +inf but the piece predicts 4"


    @pytest.mark.parametrize("level_max", [None, 4], ids=["tail", "bounded"])
    def test_every_level_is_checked(self, ctx3, monkeypatch, level_max):
        """A piece of 0 that runs past the center 27, at distance 3, with a
        profile that trusts the piece: the direct check alone finds the zero
        of f at 27, on the piece's fourth level."""
        f = parse_factored("1 * (t - 0) * (t - 27)", ctx3)
        run = next(p for p in prepare(f, Window(0, 2, 1)) if p.chosen_center_index == 0 and p.residue == 1)
        piece = dataclasses.replace(run, level_max=level_max)
        assert (piece.level_min, piece.exponent, piece.h_exponent) == (0, 2, 0)
        own = (piece.exponent, piece.h_exponent)
        monkeypatch.setattr(FactoredTerm, "profile", lambda f, j, lo, hi, xi=None, m=1: own)
        check = verify_prepared(f, piece, 2)
        assert not check.passed
        assert check.witness == ctx3.scalar(27)
        assert check.detail == "ord f(27) = +inf but the piece predicts 6"

    def test_a_tail_is_decided_by_two_levels(self, ctx3, monkeypatch):
        """A tail of a single center with the wrong slope agrees with f on its
        first level only: the second level the check reads finds it."""
        f = parse_factored("1 * (t - 0)", ctx3)
        tail = dataclasses.replace(prepare(f, Window(0, 0, 1))[0], level_max=None, exponent=2)
        assert (tail.level_min, tail.residue, tail.h_exponent) == (0, 1, 0)
        monkeypatch.setattr(FactoredTerm, "profile", lambda f, j, lo, hi, xi=None, m=1: (2, 0))
        check = verify_prepared(f, tail, 2)
        assert not check.passed
        assert check.witness == ctx3.scalar(3)
        assert check.detail == "ord f(3) = 1 but the piece predicts 2"

class TestRandomOracle:
    def _random_factored(self, rng, ctx, max_degree=4):
        k = rng.randint(1, 3)
        centers = []
        seen = set()
        while len(centers) < k:
            v = rng.randint(-2, 2)
            u = rng.choice([1, 2, 3, 7, rng.randint(1, 30)])
            if u % ctx.p == 0:
                continue
            c = Fraction(u * rng.choice([-1, 1])) * Fraction(ctx.p) ** v
            if c not in seen:
                seen.add(c)
                centers.append(ctx.scalar(c))
        budget = max_degree
        factors = []
        for i, c in enumerate(centers):
            hi = budget - (len(centers) - i - 1)
            a = rng.randint(1, max(1, hi)) * rng.choice([1, 1, -1])
            budget -= abs(a)
            factors.append((c, a))
        unit = ctx.scalar(random_unitish(rng, ctx.p))
        return FactoredTerm(unit, tuple(factors))

    def test_random_terms_pass_oracle(self, ctx3):
        rng = random.Random(42)
        for _ in range(8):
            f = self._random_factored(rng, ctx3)
            pieces = prepare(f, Window(-3, 3, 1))
            for piece in pieces:
                check = verify_prepared(f, piece, 2)
                assert check.passed, f"{f}: {check.detail}"
            assert_partition(f, pieces, Window(-3, 3, 1), depth=1)


@st.composite
def branching_terms(draw):
    """(f, window, m_depth): each center after the first branches off an
    earlier one at a depth in [-3, 6], so ties, clusters and nested splits
    all occur; a branch that lands on an existing center is dropped."""
    p = draw(st.sampled_from([2, 3, 5]))
    ctx = PrimeContext(p)
    centers = [Fraction(draw(st.integers(-9, 9)), draw(st.sampled_from([1, p])))]
    for _ in range(draw(st.integers(0, 5))):
        parent = draw(st.sampled_from(centers))
        unit = draw(st.integers(1, p - 1)) + p * draw(st.integers(-p * p, p * p))
        center = parent + unit * Fraction(p) ** draw(st.integers(-3, 6))
        if center not in centers:
            centers.append(center)
    exponents = st.sampled_from([-2, -1, 1, 2, 3])
    factors = tuple((ctx.scalar(c), draw(exponents)) for c in centers)
    unit = Fraction(draw(st.sampled_from([1, 2, -5]))) * Fraction(p) ** draw(st.integers(-1, 1))
    lo = draw(st.integers(-6, 6))
    window = Window(lo, lo + draw(st.integers(0, 8)), 1)
    return FactoredTerm(ctx.scalar(unit), factors), window, draw(st.integers(1, 3))


def piece_key(p):
    return (
        format_cell(p.cell), p.chosen_center_index, p.exponent, p.h_exponent,
        p.level_min, p.level_max, p.residue, p.m,
    )


class TestWalkOracle:
    """The walk down the ball tree of the centers gives the same pieces, in
    the same order, as the worklist fix-point it replaced."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(branching_terms())
    def test_walk_matches_the_worklist(self, case):
        f, window, m_depth = case
        walked = [piece_key(p) for p in prepare(f, window, m_depth)]
        assert walked == [piece_key(p) for p in worklist_prepare(f, window, m_depth)]


def cell_of(piece):
    """The point cell around c_j in the class residue * p^level_min * Q(m, 1)
    on the piece's levels, built from its fields."""
    ctx = piece.term.context
    lam = ctx.scalar(piece.residue * ctx.power(piece.level_min))
    return point_cell(
        piece.term.centers[piece.chosen_center_index],
        CosetSpec(lam, piece.m, 1),
        piece.level_min,
        piece.level_max,
    )


class TestPieceCell:
    """A piece stores no cell: `cell` is built from the fields that
    verify_prepared and piece_contains read, so it follows every change."""

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(branching_terms(), st.data())
    def test_the_cell_follows_the_fields(self, case, data):
        f, window, m_depth = case
        pieces = prepare(f, window, m_depth)
        assert all(piece.term is f and piece.cell == cell_of(piece) for piece in pieces)
        piece = data.draw(st.sampled_from(pieces))
        p, lo, hi = f.context.p, piece.level_min, piece.level_max
        changes = {
            "chosen_center_index": st.integers(0, len(f.centers) - 1),
            "level_min": st.integers(lo - 3, lo + 3 if hi is None else hi),
            "level_max": st.one_of(st.none(), st.integers(lo, lo + 3)),
            "residue": st.sampled_from(f.context.units_mod(piece.m)),
            "m": st.integers(piece.m, 3),  # so the residue stays a class mod p^m
        }
        points = st.builds(
            lambda c, u, e: c.value + u * Fraction(p) ** e,
            st.sampled_from(f.centers),
            st.integers(-(p**3), p**3),
            st.integers(lo - 2, lo + 4),
        )
        for name, values in changes.items():
            changed = dataclasses.replace(piece, **{name: data.draw(values, label=name)})
            assert changed.cell == cell_of(changed)
            for x in map(f.context.scalar, data.draw(st.lists(points, min_size=1, max_size=4))):
                assert cell_contains(changed.cell, x) == piece_contains(f, changed, x)


MUTATIONS = ("exponent", "h", "center", "levels", "tail", "residue", "holds a center")


@st.composite
def checked_pieces(draw):
    """(f, piece): a piece of prepare's output, changed by up to two
    mutations that take it outside the sweep.  "holds a center" moves the
    piece so that one of its checked balls holds a center of f, a pole or a
    zero of f by the sign of that center's exponent."""
    f, window, m_depth = draw(branching_terms())
    piece = draw(st.sampled_from(prepare(f, window, m_depth)))
    centers = f.centers
    shifts = st.sampled_from([-2, -1, 1, 2])
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), max_size=2)):
        if kind == "exponent":
            piece = dataclasses.replace(piece, exponent=piece.exponent + draw(shifts))
        elif kind == "h":
            piece = dataclasses.replace(piece, h_exponent=piece.h_exponent + draw(shifts))
        elif kind == "center":
            j = draw(st.integers(0, len(centers) - 1))
            piece = dataclasses.replace(piece, chosen_center_index=j)
        elif kind == "levels":
            lo = piece.level_min + draw(st.integers(-2, 2))
            piece = dataclasses.replace(piece, level_min=lo, level_max=lo + draw(st.integers(0, 3)))
        elif kind == "tail":
            piece = dataclasses.replace(piece, level_max=None)
        elif kind == "residue":  # any class mod p^m, units or not
            residue = draw(st.integers(0, f.context.p**piece.m - 1))
            piece = dataclasses.replace(piece, residue=residue)
        else:
            j = draw(st.integers(0, len(centers) - 1))
            held = draw(st.integers(0, len(centers) - 1))
            if held == j:  # residue 0 puts c_j itself in every ball of the piece
                level, residue = piece.level_min, 0
            else:  # the ball at level ord(c - c_j) in the class of c - c_j holds c
                gap = centers[held] - centers[j]
                level, residue = gap.ord(), gap.ac(piece.m)
            lo = level - draw(st.integers(0, 2))
            hi = draw(st.one_of(st.none(), st.integers(lo, lo + 3)))
            piece = dataclasses.replace(
                piece, chosen_center_index=j, level_min=lo, level_max=hi, residue=residue,
            )
    return f, piece


class TestExhaustiveOracle:
    """Deciding a ball that holds no center from one point gives the same
    verdict, witness and detail as evaluating every representative."""

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(checked_pieces(), st.integers(1, 3))
    def test_matches_the_exhaustive_check(self, case, depth):
        f, piece = case
        fast = verify_prepared(f, piece, depth)
        slow = exhaustive_verify_prepared(f, piece, depth)
        assert (fast.passed, fast.witness, fast.detail) == (slow.passed, slow.witness, slow.detail)
        assert str(fast.witness) == str(slow.witness)

    @pytest.mark.parametrize(
        "p, text, window, m_depth",
        [
            (5, "1 * (t - 0) * (t - 1)", (-2, 3), 1),
            (2, "1 * (t - 0) * (t - 2)", (-1, 3), 1),
            (3, "2 * (t - 0)^-1 * (t - 1)^2", (-2, 2), 1),
            (3, "1 * (t - 0) * (t - 9) * (t - 1)", (-1, 4), 2),
            (3, "1/9 * (t - 1/3)^2 * (t + 5/9)^-1 * (t - 4)", (-3, 3), 3),
        ],
        ids=["two-centers", "tie-handoff", "negative-exponent", "cluster", "rational-centers"],
    )
    def test_sweep_pieces_never_enumerate(self, monkeypatch, p, text, window, m_depth):
        """No piece of the sweep holds a center, so none of its balls is
        scanned point by point."""
        f = parse_factored(text, PrimeContext(p))
        pieces = prepare(f, Window(*window, 1), m_depth)

        def refuse(ball, depth):
            raise AssertionError(f"enumerated {ball}")

        monkeypatch.setattr(Ball, "representatives", refuse)
        for piece in pieces:
            check = verify_prepared(f, piece, 3)
            assert check.passed, check.detail

    def test_the_distances_are_computed_once_when_the_term_is_built(self, monkeypatch):
        built = []
        init = FactoredTerm.__post_init__
        monkeypatch.setattr(FactoredTerm, "__post_init__", lambda f: (built.append(f), init(f))[1])
        f = parse_factored("7 * (t - 2) * (t - 11)^2 * (t - 29)^-1", PrimeContext(3))
        assert built == [f]
        assert f.dist == tuple(
            tuple(None if i == j else (ci - cj).ord() for j, cj in enumerate(f.centers))
            for i, ci in enumerate(f.centers)
        )
        # from here on no scalar difference is taken at all: distances are
        # read from the term, and tie residues (angular components) are taken
        # on raw center values
        centers = {c.value for c in f.centers}
        differences, residues = [], []
        sub, tie_residue = PadicScalar.__sub__, FactoredTerm.tie_residue
        monkeypatch.setattr(
            PadicScalar,
            "__sub__",
            lambda x, y: (differences.append(x.value in centers and y.value in centers), sub(x, y))[1],
        )
        monkeypatch.setattr(
            FactoredTerm, "tie_residue", lambda g, *args: (residues.append(args), tie_residue(g, *args))[1]
        )
        pieces = prepare(f, Window(0, 2, 1))
        for piece in pieces:
            assert verify_prepared(f, piece, 2).passed
        assert len(pieces) > 1 and built == [f]
        assert residues and differences == []

    def test_a_pickled_or_copied_term_prepares_alike(self):
        f = parse_factored("7 * (t - 2) * (t - 11)^2 * (t - 29)^-1", PrimeContext(3))
        pieces = prepare(f, Window(-1, 2, 1), 2)
        for twin in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f)):
            assert twin == f and hash(twin) == hash(f) and repr(twin) == repr(f)
            assert twin.dist == f.dist
            assert prepare(twin, Window(-1, 2, 1), 2) == pieces
            assert all(verify_prepared(twin, piece, 2).passed for piece in pieces)


class TestPieceContains:
    """piece_contains on raw values against the PadicScalar route."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(checked_pieces(), st.data())
    def test_matches_the_scalar_route(self, case, data):
        """ord and ac of t - c_j read from the cross-multiplied numerator and
        denominator decide membership as the PadicScalar difference does, at
        the centers, near them at every scale, and at rationals whose
        denominators are prime to p."""
        f, piece = case
        ctx = f.context
        p = ctx.p
        if data.draw(st.booleans()):  # a residue outside [0, p^m) is no class
            residue = data.draw(st.integers(-(p**piece.m), 2 * p**piece.m))
            piece = dataclasses.replace(piece, residue=residue)
        centers = st.sampled_from(f.centers).map(lambda c: c.value)
        near = st.builds(
            lambda c, u, e: c + u * Fraction(p) ** e,
            centers,
            st.integers(-(p**3), p**3),
            st.integers(-4, 6),
        )
        dens = st.sampled_from([1, 2, 3, 4, 5, 7, 8, 9, 25])
        other = st.builds(Fraction, st.integers(-60, 60), dens)
        for t in data.draw(st.lists(st.one_of(centers, near, other), min_size=1, max_size=10)):
            x = ctx.scalar(t)
            assert piece_contains(f, piece, x) == scalar_piece_contains(f, piece, x)

    def test_a_class_of_depth_zero_is_refused(self, ctx3):
        f = parse_factored("1 * (t - 0)", ctx3)
        piece = dataclasses.replace(prepare(f, Window(0, 2, 1))[0], m=0)
        assert not piece_contains(f, piece, ctx3.scalar(27))  # ord 3 is outside the levels
        for contains in (piece_contains, scalar_piece_contains):
            with pytest.raises(ValueError, match="depth must be >= 1"):
                contains(f, piece, ctx3.scalar(1))


class TestThePiecesOwnTerm:
    """verify_prepared and piece_contains read the centers from f and the
    cell from piece.term, so f must be the term the piece was prepared from."""

    TEXT = "7 * (t - 2) * (t - 11)^2 * (t - 29)^-1"

    def test_another_term_is_refused(self):
        f = parse_factored(self.TEXT, PrimeContext(3))
        other = parse_factored("7 * (t - 2) * (t - 11)^2 * (t - 28)^-1", PrimeContext(3))
        for piece in prepare(f, Window(-1, 2, 1), 2):
            with pytest.raises(ValueError, match="prepared from another term"):
                verify_prepared(other, piece, 2)
            with pytest.raises(ValueError, match="prepared from another term"):
                piece_contains(other, piece, f.centers[0])

    def test_the_same_term_parsed_twice_passes(self):
        f = parse_factored(self.TEXT, PrimeContext(3))
        twin = parse_factored(self.TEXT, PrimeContext(3))
        assert twin is not f and twin == f
        for piece in prepare(f, Window(-1, 2, 1), 2):
            assert verify_prepared(twin, piece, 2).passed
            for t in (-1, 5, 2 + 3**2, 11 + 2 * 3, 29 - 3**3):
                x = f.context.scalar(t)
                assert piece_contains(twin, piece, x) == piece_contains(f, piece, x)


def random_unitish(rng, p):
    num = rng.randint(1, 50) * rng.choice([-1, 1])
    den = rng.randint(1, 50)
    x = Fraction(num, den)
    return x if x != 0 else Fraction(1)

