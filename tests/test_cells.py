import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import ultralip.cells as cells
from ultralip.qp_core import CosetSpec, PrimeContext
from ultralip.regions import Ball, Window, enumerate_window
from ultralip.cells import (
    Cell,
    NoCandidateFits,
    ZeroCellHasNoBalls,
    ball_of_cell,
    cell_contains,
    enumerate_balls,
    fit_cell,
    format_cell,
    parse_cell,
    point_cell,
)
from ultralip.syntax import RationalConst, TrueCond, parse_condition, parse_term


def unit_coset_cell(ctx, m=1, n=1, lam=1, level_min=None, level_max=None):
    return point_cell(ctx.scalar(0), CosetSpec(ctx.scalar(lam), m, n), level_min, level_max)


class TestMembership:
    def test_examples(self, ctx3):
        cell = unit_coset_cell(ctx3)
        assert cell_contains(cell, ctx3.scalar(4))
        assert not cell_contains(cell, ctx3.scalar(2))
        assert not cell_contains(cell, ctx3.scalar(0))

    def test_zero_cell_is_graph_of_center(self, ctx3):
        cell = point_cell(ctx3.scalar(5), CosetSpec(ctx3.scalar(0), 1, 1))
        assert cell_contains(cell, ctx3.scalar(5))
        assert not cell_contains(cell, ctx3.scalar(6))

    def test_base_condition_and_center_terms(self, ctx3):
        cell = Cell(
            base_vars=("y",),
            fiber_var="t",
            base_condition=parse_condition("|y| = |1|"),
            center=parse_term("y^2"),
            alpha=None,
            beta=None,
            coset=CosetSpec(ctx3.scalar(1), 1, 1),
        )
        y = {"y": ctx3.scalar(2)}
        assert cell_contains(cell, ctx3.scalar(5), y)  # 5 - 4 = 1 in Q(1,1)
        assert not cell_contains(cell, ctx3.scalar(5), {"y": ctx3.scalar(3)})  # base fails


class TestBallOfCell:
    def test_examples(self, ctx3):
        cell = unit_coset_cell(ctx3, m=1)
        assert ball_of_cell(cell, ctx3.scalar(4)) == Ball(ctx3.scalar(1), 1)
        cell2 = unit_coset_cell(ctx3, m=2)
        assert ball_of_cell(cell2, ctx3.scalar(1)) == Ball(ctx3.scalar(1), 2)
        assert ball_of_cell(cell, ctx3.scalar(3)) == Ball(ctx3.scalar(3), 2)

    def test_zero_cell_has_no_balls(self, ctx3):
        cell = point_cell(ctx3.scalar(0), CosetSpec(ctx3.scalar(0), 1, 1))
        with pytest.raises(ZeroCellHasNoBalls):
            ball_of_cell(cell, ctx3.scalar(0))

    def test_point_outside_rejected(self, ctx3):
        with pytest.raises(ValueError):
            ball_of_cell(unit_coset_cell(ctx3), ctx3.scalar(2))

    def test_maximality(self, ctx3):
        """The ball is inside the fiber and its one-step enlargement is not;
        probed exhaustively one residue level deeper."""
        points = {
            1: (ctx3.scalar(1), ctx3.scalar(4), ctx3.scalar(3), ctx3.scalar(Fraction(1, 3))),
            2: (ctx3.scalar(1), ctx3.scalar(10), ctx3.scalar(3), ctx3.scalar(Fraction(1, 3))),
        }
        for m in (1, 2):
            cell = unit_coset_cell(ctx3, m=m)
            for t in points[m]:
                ball = ball_of_cell(cell, t)
                for probe in ball.representatives(2):
                    assert cell_contains(cell, ctx3.scalar(probe))
                bigger = Ball(t, ball.radius_ord - 1)
                assert any(
                    not cell_contains(cell, ctx3.scalar(probe)) for probe in bigger.representatives(2)
                )

    def test_formula_equivalence(self, ctx3):
        """The translation construction t + p^(m + ord t) Z_p equals the level
        set {w : ord(w) = a, ac_m(w) = ac_m(lambda)} on every representative."""
        for m in (1, 2):
            for t in map(ctx3.scalar, enumerate_window(Window(-2, 2, m), ctx3)):
                lam_residue = t.ac(m)
                lam = ctx3.scalar(Fraction(lam_residue) * Fraction(3) ** t.ord())
                cell = point_cell(ctx3.scalar(0), CosetSpec(lam, m, 1))
                assert cell_contains(cell, t)
                constructed = ball_of_cell(cell, t)
                a = t.ord()
                set_formula = Ball(
                    ctx3.scalar(Fraction(lam_residue) * Fraction(3) ** a), a + m
                )
                assert constructed == set_formula


class TestEnumerateBalls:
    def test_congruence_filter(self, ctx3):
        cell = unit_coset_cell(ctx3, m=1, n=2)
        balls = enumerate_balls(cell, {}, Window(0, 4, 1))
        assert [b.radius_ord - 1 for b in balls] == [0, 2, 4]

    def test_boundary_bounds(self, ctx3):
        cell = unit_coset_cell(ctx3, level_min=1)
        balls = enumerate_balls(cell, {}, Window(0, 3, 1))
        assert [b.radius_ord - 1 for b in balls] == [1, 2, 3]

    def test_zero_cell_error(self, ctx3):
        cell = point_cell(ctx3.scalar(0), CosetSpec(ctx3.scalar(0), 1, 1))
        with pytest.raises(ZeroCellHasNoBalls):
            enumerate_balls(cell, {}, Window(0, 1, 1))

    def test_balls_disjoint_and_in_cell(self, ctx3):
        cell = unit_coset_cell(ctx3, m=2, n=2, lam=Fraction(5, 3))
        balls = enumerate_balls(cell, {}, Window(-3, 3, 1))
        for b1, b2 in itertools.combinations(balls, 2):
            assert not oracles.balls_overlap(b1, b2)
        for b in balls:
            for probe in b.representatives(1):
                assert cell_contains(cell, ctx3.scalar(probe))

    def test_cell_ball_index(self, ctx3):
        cell = unit_coset_cell(ctx3, m=1, n=2)
        balls = enumerate_balls(cell, {}, Window(0, 4, 1))
        assert [b.radius_ord - cell.coset.m for b in balls] == [0, 2, 4]

    def test_balls_above_a_base_point(self, ctx3):
        cell = Cell(
            base_vars=("y",),
            fiber_var="t",
            base_condition=parse_condition("|y| = |1|"),
            center=parse_term("y^2"),
            alpha=None,
            beta=None,
            coset=CosetSpec(ctx3.scalar(1), 1, 1),
        )
        y = {"y": ctx3.scalar(2)}
        balls = enumerate_balls(cell, y, Window(0, 2, 1))
        assert [b.radius_ord for b in balls] == [1, 2, 3]
        for b in balls:
            for probe in b.representatives(1):
                assert cell_contains(cell, ctx3.scalar(probe), y)
        # a base point failing the base condition has no balls above it
        assert enumerate_balls(cell, {"y": ctx3.scalar(3)}, Window(0, 2, 1)) == []


class TestFitCell:
    def test_single_progression(self, ctx3):
        balls = [Ball(ctx3.scalar(3**a), a + 1) for a in range(3)]
        cells = fit_cell(balls, [ctx3.scalar(0)])
        assert len(cells) == 1
        cell = cells[0]
        assert cell.coset.m == 1 and cell.coset.n == 1
        assert set(enumerate_balls(cell, {}, Window(0, 2, 1))) == set(balls)

    def test_two_ac_classes(self, ctx3):
        balls = [Ball(ctx3.scalar(1), 1), Ball(ctx3.scalar(2), 1)]
        cells = fit_cell(balls, [ctx3.scalar(0)])
        assert len(cells) == 2
        residues = {c.coset.lam.ac(1) for c in cells}
        assert residues == {1, 2}

    def test_no_candidate_fits(self, ctx3):
        with pytest.raises(NoCandidateFits):
            fit_cell([Ball(ctx3.scalar(1), 1)], [ctx3.scalar(1)])

    def test_second_candidate_used(self, ctx3):
        balls = [Ball(ctx3.scalar(1), 1)]
        cells = fit_cell(balls, [ctx3.scalar(4), ctx3.scalar(0)])
        assert len(cells) == 1
        assert set(enumerate_balls(cells[0], {}, Window(0, 0, 1))) == set(balls)

    def test_levels_split_into_two_progressions(self, ctx3):
        balls = [Ball(ctx3.scalar(3**a), a + 1) for a in (0, 1, 2, 4)]
        cells = fit_cell(balls, [ctx3.scalar(0)])
        assert len(cells) == 2
        covered = set()
        for c in cells:
            covered |= set(enumerate_balls(c, {}, Window(0, 4, 1)))
        assert covered == set(balls)

    def test_roundtrip_mixed_radii(self, ctx5):
        balls = [
            Ball(ctx5.scalar(2), 1),
            Ball(ctx5.scalar(10), 2),
            Ball(ctx5.scalar(50), 3),
            Ball(ctx5.scalar(8), 2),
        ]
        cells = fit_cell(balls, [ctx5.scalar(0)])
        covered = []
        for c in cells:
            covered.extend(enumerate_balls(c, {}, Window(-1, 4, 1)))
        assert sorted(covered, key=lambda b: (b.radius_ord, b.center.value)) == sorted(
            set(balls), key=lambda b: (b.radius_ord, b.center.value)
        )
        for b1, b2 in itertools.combinations(covered, 2):
            assert b1 != b2

    @pytest.mark.parametrize(
        "levels",
        [range(20), [*range(17), 18, 21, 24, 30], [0, 1, 3, 4, 7]],
        ids=["one progression", "three progressions", "three short progressions"],
    )
    def test_greedy_cover_gives_back_the_balls(self, ctx3, levels):
        """The greedy cover of one (m, xi) group, at any number of levels,
        has cells that give back exactly the input balls."""
        balls = [Ball(ctx3.scalar(3**b + 3 ** (b + 1)), b + 2) for b in levels]
        cells = fit_cell(balls, [ctx3.scalar(0)])
        covered = []
        for c in cells:
            covered.extend(enumerate_balls(c, {}, Window(0, max(levels), 1)))
        assert sorted(covered, key=lambda b: b.radius_ord) == balls

    def test_the_greedy_rule_takes_the_first_longest_chain(self, ctx3):
        """Levels {0,1,3,4,7}: from 0 every step reaches a chain of two, and
        step 1 comes first; then {3,4} by step 1 again, and 7 alone.  Two
        cells, {0,3} and {1,4,7} by step 3, would also cover them."""
        balls = [Ball(ctx3.scalar(3**b), b + 1) for b in (0, 1, 3, 4, 7)]
        assert [format_cell(c) for c in fit_cell(balls, [ctx3.scalar(0)])] == [
            "cell(center=0; coset=1*Q(1,1); ord in [0,1])",
            "cell(center=0; coset=27*Q(1,1); ord in [3,4])",
            "cell(center=0; coset=2187*Q(1,1); ord in [7,7])",
        ]

    def test_overlapping_input_rejected(self, ctx3):
        with pytest.raises(ValueError):
            fit_cell([Ball(ctx3.scalar(1), 1), Ball(ctx3.scalar(4), 2)], [ctx3.scalar(0)])

    def test_an_overlap_names_its_least_pair(self, ctx3):
        balls = [Ball(ctx3.scalar(2), 2), Ball(ctx3.scalar(1), 1), Ball(ctx3.scalar(4), 2)]
        with pytest.raises(cells.BallsOverlap) as caught:
            fit_cell(balls, [ctx3.scalar(0)])
        assert caught.value.pair == (1, 2)
        assert str(caught.value) == "input balls are not pairwise disjoint: 1 + 3^1 vs 4 + 3^2"

    def test_an_overlap_is_reported_before_the_candidates_are_tried(self, ctx3):
        """Both candidates lie inside a ball, but the overlap comes first."""
        balls = [Ball(ctx3.scalar(1), 1), Ball(ctx3.scalar(4), 2)]
        with pytest.raises(cells.BallsOverlap) as caught:
            fit_cell(balls, [ctx3.scalar(1), ctx3.scalar(4)])
        assert caught.value.pair == (0, 1)


def is_progression(levels) -> bool:
    ordered = sorted(levels)
    return len({b - a for a, b in zip(ordered, ordered[1:])}) <= 1


class TestGreedyCover:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(
        st.sampled_from([2, 3, 5]),
        st.integers(-20, 20),
        st.integers(1, 12),
        st.integers(1, 2),
        st.dictionaries(
            st.integers(-3, 8), st.lists(st.integers(0, 19), min_size=1, max_size=2, unique=True), min_size=1
        ),
    )
    def test_the_cells_partition_each_group_into_progressions(self, p, num, den, m, picks):
        """Balls d + u*p^b of radius b + m, with one or two unit residues u
        per level b (picks[b] indexes the units mod p^m): the fitted cells
        give back exactly the balls, each (m, u) group's cells partition its
        levels into progressions, and a group gives one cell exactly when
        its levels form one progression."""
        ctx = PrimeContext(p)
        d = Fraction(num, den)
        units = ctx.units_mod(m)
        groups, balls = {}, []
        for b, indices in picks.items():
            for u in {units[i % len(units)] for i in indices}:
                groups.setdefault(u, set()).add(b)
                balls.append(Ball(ctx.scalar(d + u * ctx.power(b)), b + m))
        covered, covers = [], {}
        for cell in fit_cell(balls, [ctx.scalar(d)]):
            found = enumerate_balls(cell, {}, Window(-3, 8, 1))
            lo, hi = cell.level_bounds({})
            prog = range(lo, hi + 1, cell.coset.n)
            assert cell.coset.m == m
            assert [ball.radius_ord - m for ball in found] == list(prog)
            covers.setdefault(cell.coset.lam_ac, []).append(prog)
            covered.extend(found)
        key = lambda ball: (ball.radius_ord, ball.center.value)
        assert sorted(covered, key=key) == sorted(balls, key=key)
        assert covers.keys() == groups.keys()
        for u, cover in covers.items():
            assert sorted(b for prog in cover for b in prog) == sorted(groups[u])
            assert (len(cover) == 1) == is_progression(groups[u])


class TestCellLiterals:
    def test_parse_and_format_roundtrip(self, ctx3):
        for src in (
            "cell(center=0; coset=1*Q(1,1); all)",
            "cell(center=1/3; coset=2*Q(2,3); ord in [0,4])",
            "cell(center=0; coset=1*Q(1,1); ord > 2)",
            "cell(center=0; coset=-1*Q(1,2); ord < 5)",
        ):
            cell = parse_cell(src, ctx3)
            assert parse_cell(format_cell(cell), ctx3) == cell

    def test_base_and_var_segments(self, ctx3):
        cell = parse_cell("cell(center=y; coset=1*Q(1,1); all; base=|y| = |1|; var=x)", ctx3)
        assert cell.fiber_var == "x"
        assert cell.base_vars == ("y",)
        assert cell_contains(cell, ctx3.scalar(3), {"y": ctx3.scalar(2)})

    def test_missing_coset_rejected(self, ctx3):
        from ultralip.syntax import ParseError

        with pytest.raises(ParseError):
            parse_cell("cell(center=0; all)", ctx3)
