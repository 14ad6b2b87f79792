import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import all_pairs_overlap, ball_points, balls_overlap, window_points
from ultralip.qp_core import PrimeContext
from ultralip.regions import (
    Ball,
    Window,
    enumerate_window,
    first_overlap,
)

from conftest import random_rational, rationals


class TestBall:
    def test_contains_examples(self, ctx3):
        b = Ball(ctx3.scalar(1), 1)
        assert b.contains(ctx3.scalar(4))
        assert not b.contains(ctx3.scalar(2))
        assert Ball(ctx3.scalar(1), 2).contains(ctx3.scalar(10))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.data())
    def test_contains_matches_the_scalar_route(self, data):
        """Membership by residue against ord(x - c) >= r on the centre as
        drawn, for int and Fraction centres and points; a point of another
        prime is refused."""
        p = data.draw(st.sampled_from([2, 3, 5, 7]))
        ctx = PrimeContext(p)
        rational = rationals(p)
        c, r = data.draw(rational), data.draw(st.integers(-2, 4))
        x = data.draw(st.one_of(rational, rational.map(lambda offset: c + offset)))
        ball = Ball(ctx.scalar(c), r)
        assert ball.contains(ctx.scalar(x)) == ((ctx.scalar(x) - ctx.scalar(c)).ord() >= r)
        other = PrimeContext(data.draw(st.sampled_from([q for q in (2, 3, 5, 7) if q != p])))
        with pytest.raises(ValueError, match="different prime contexts"):
            ball.contains(other.scalar(x))

    def test_equality_is_set_equality(self, ctx3):
        assert Ball(ctx3.scalar(4), 1) == Ball(ctx3.scalar(1), 1)
        assert Ball(ctx3.scalar(4), 1) != Ball(ctx3.scalar(1), 2)
        assert hash(Ball(ctx3.scalar(4), 1)) == hash(Ball(ctx3.scalar(1), 1))

    def test_representatives(self, ctx3):
        b = Ball(ctx3.scalar(1), 1)
        reps = b.representatives(2)
        assert reps == [1, 4, 7, 10, 13, 16, 19, 22, 25]
        reps = [ctx3.scalar(r) for r in reps]
        assert all(b.contains(r) for r in reps)
        # one per residue class mod p^(radius+depth)
        assert len({r.reduce_mod_power(3).value for r in reps}) == len(reps)

    @given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-3, 3), st.integers(-3, 3))
    def test_dichotomy(self, c1, c2, k1, k2):
        """Two balls are disjoint or nested: when they meet, the one of
        smaller radius_ord holds every point of the other."""
        ctx = PrimeContext(3)
        b1 = Ball(ctx.scalar(c1), k1)
        b2 = Ball(ctx.scalar(c2), k2)
        big, small = (b1, b2) if k1 <= k2 else (b2, b1)
        probe = [ctx.scalar(x) for x in small.representatives(1) + big.representatives(1)]
        both = [x for x in probe if b1.contains(x) and b2.contains(x)]
        if balls_overlap(b1, b2):
            assert both and all(big.contains(ctx.scalar(x)) for x in small.representatives(2))
        else:
            assert not both


class TestWindow:
    def test_validation(self):
        with pytest.raises(ValueError):
            Window(2, 1, 1)
        with pytest.raises(ValueError):
            Window(0, 1, 0)


class TestEnumeration:
    def test_counts(self, ctx3, ctx2, ctx5):
        assert len(enumerate_window(Window(0, 1, 2), ctx3)) == 12
        assert len(enumerate_window(Window(0, 0, 1), ctx2)) == 1
        assert len(enumerate_window(Window(-1, 1, 1), ctx5)) == 12

    def test_count_formula(self, ctx5):
        w = Window(-2, 1, 2)
        rs = enumerate_window(w, ctx5)
        assert len(rs) == (w.v_max - w.v_min + 1) * (5**2 - 5)

    def test_zero_excluded_and_granularity(self, ctx3):
        w = Window(-1, 2, 2)
        for x in map(ctx3.scalar, enumerate_window(w, ctx3)):
            assert not x.is_zero
            ball = w.ball_of(x)
            assert ball.contains(x)
            assert ball.radius_ord == x.ord() + 2

    def test_zero_has_no_granularity_ball(self, ctx3):
        with pytest.raises(ValueError):
            Window(-1, 2, 2).ball_of(ctx3.scalar(0))

    def test_partition_disjoint(self, ctx3):
        w = Window(0, 1, 2)
        balls = [w.ball_of(ctx3.scalar(x)) for x in enumerate_window(w, ctx3)]
        for i in range(len(balls)):
            for j in range(i + 1, len(balls)):
                assert not balls_overlap(balls[i], balls[j])

    def test_partition_covers_window(self, ctx3):
        w = Window(-1, 2, 2)
        rs = enumerate_window(w, ctx3)
        rng = random.Random(13)
        hits = 0
        while hits < 50:
            x = ctx3.scalar(random_rational(rng, 3, spread=3))
            v = x.ord()
            if not w.v_min <= v <= w.v_max:
                continue
            hits += 1
            containing = [b for b in (w.ball_of(ctx3.scalar(r)) for r in rs) if b.contains(x)]
            assert len(containing) == 1

    def test_refinement_coherence(self, ctx3):
        coarse, fine = Window(0, 1, 2), Window(0, 1, 3)
        coarse_balls = [coarse.ball_of(ctx3.scalar(x)) for x in enumerate_window(coarse, ctx3)]
        for x in map(ctx3.scalar, enumerate_window(fine, ctx3)):
            ball = fine.ball_of(x)
            inside = [
                b for b in coarse_balls if b.radius_ord <= ball.radius_ord and b.contains(ball.center)
            ]
            assert len(inside) == 1

    def test_canonical_representatives(self, ctx3):
        rs = enumerate_window(Window(1, 1, 1), ctx3)
        assert rs == (3, 6)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.data())
    def test_raw_points_match_the_listed_ones(self, data):
        """enumerate_window and Ball.representatives give, in order, the
        points their docstrings list, each an int exactly when it is
        integral and a Fraction otherwise."""
        p = data.draw(st.sampled_from([2, 3, 5]))
        ctx = PrimeContext(p)
        depth = data.draw(st.integers(1, 3))
        v_min = data.draw(st.integers(-3, 1))
        v_max = v_min + data.draw(st.integers(0, 2))
        points = enumerate_window(Window(v_min, v_max, depth), ctx)
        assert isinstance(points, tuple)
        assert list(points) == window_points(v_min, v_max, depth, p)
        assert len(points) == (v_max - v_min + 1) * (p**depth - p ** (depth - 1))
        centre = Fraction(data.draw(st.integers(-30, 30))) * Fraction(p) ** data.draw(st.integers(-2, 2))
        radius = data.draw(st.integers(-2, 3))
        ball = Ball(ctx.scalar(centre), radius)
        reps = ball.representatives(depth)
        assert reps == ball_points(ball.center.value, radius, depth, p)
        for x in (*points, *reps):
            assert x.__class__ is (int if Fraction(x).denominator == 1 else Fraction)


class TestFirstOverlap:
    """The pair scan through Ball.contains against the oracle's pairwise
    loop on scalar differences."""

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.data())
    def test_random_balls_match_all_pairs(self, data):
        p = data.draw(st.sampled_from([2, 3, 5]))
        ctx = PrimeContext(p)
        centre = st.builds(
            lambda n, e: Fraction(n) * Fraction(p) ** e, st.integers(-30, 30), st.integers(-2, 2)
        )
        ball = st.builds(lambda c, r: Ball(ctx.scalar(c), r), centre, st.integers(-2, 3))
        balls = data.draw(st.lists(ball, max_size=12))
        assert first_overlap(balls) == all_pairs_overlap(balls)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(st.data())
    def test_a_partition_with_one_ball_added_matches_all_pairs(self, data):
        """Disjoint balls, the granularity balls of a window, in any order,
        with at most one more ball anywhere among them."""
        p = data.draw(st.sampled_from([2, 3, 5]))
        ctx = PrimeContext(p)
        lo = data.draw(st.integers(-2, 1))
        w = Window(lo, lo + data.draw(st.integers(0, 2)), data.draw(st.integers(1, 2)))
        balls = data.draw(st.permutations([w.ball_of(ctx.scalar(x)) for x in enumerate_window(w, ctx)]))
        assert first_overlap(balls) is None
        if data.draw(st.booleans()):
            extra = Ball(ctx.scalar(data.draw(st.integers(-20, 20))), data.draw(st.integers(-1, 4)))
            balls.insert(data.draw(st.integers(0, len(balls))), extra)
        assert first_overlap(balls) == all_pairs_overlap(balls)

    def test_examples(self, ctx3):
        a, b, c = Ball(ctx3.scalar(1), 1), Ball(ctx3.scalar(2), 1), Ball(ctx3.scalar(4), 2)
        assert first_overlap([]) is None and first_overlap([a, b]) is None
        assert first_overlap([a, b, c]) == (0, 2)
        assert first_overlap([c, b, a, a]) == (0, 2)
        with pytest.raises(ValueError, match="different prime contexts"):
            first_overlap([a, Ball(PrimeContext(5).scalar(1), 1)])
