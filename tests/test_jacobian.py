import collections
import contextlib
import dataclasses
import io
import itertools
import random
from fractions import Fraction

import pytest

from oracles import balls_overlap, distance_pairs
from ultralip import cells, jacobian, regions
from ultralip.cli import main
from ultralip.qp_core import INFINITE_ORD, CosetSpec, PrimeContext
from ultralip.regions import Ball, Window
from ultralip.cells import format_cell, parse_cell, point_cell
from ultralip.jacobian import (
    BallCorrespondence,
    CorrespondenceFailure,
    JacobianCertificate,
    JacobianViolation,
    NotABall,
    ViolationKind,
    check_ball_correspondence,
    check_jacobian_on_ball,
    map_ball,
    verify_certificate,
)
from ultralip.syntax import fiber_variable, parse_term
from ultralip.terms import differentiate, evaluate


def run_cli(argv) -> tuple:
    """The exit code and the standard output of the command line."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def coset_cell(ctx, lam=1, m=1, n=1, var="x"):
    return point_cell(ctx.scalar(0), CosetSpec(ctx.scalar(lam), m, n), fiber_var=var)


class TestFiberVariable:
    def test_the_one_variable_of_f_or_the_default(self, ctx3):
        assert fiber_variable(parse_term("y^2 + y"), "t") == "y"
        assert fiber_variable(parse_term("7"), "x") == "x"
        with pytest.raises(ValueError, match="term must be univariate"):
            fiber_variable(parse_term("x*y"), "x")
        with pytest.raises(ValueError, match="term must be univariate"):
            check_ball_correspondence(parse_term("x*y"), coset_cell(ctx3), {}, Window(0, 1, 1), 1)


class TestCheckJacobian:
    def test_square_on_unit_ball(self, ctx3):
        cert = check_jacobian_on_ball(parse_term("x^2"), Ball(ctx3.scalar(1), 1), 3)
        assert isinstance(cert, JacobianCertificate)
        assert cert.jac_ord == 0
        assert cert.image == Ball(ctx3.scalar(1), 1)
        assert cert.verified_depth == 3

    def test_square_on_maximal_ideal(self, ctx3):
        result = check_jacobian_on_ball(parse_term("x^2"), Ball(ctx3.scalar(0), 1), 2)
        assert isinstance(result, JacobianViolation)
        assert result.failed_condition in (
            ViolationKind.C_JAC_ORD_VARIES,
            ViolationKind.A_NOT_INJECTIVE,
        )
        self._recheck(parse_term("x^2"), result, ctx3)

    @staticmethod
    def _recheck(f, violation, ctx):
        """Witnesses re-verify the violation by direct evaluation."""
        pts = violation.witness
        if violation.failed_condition is ViolationKind.A_NOT_INJECTIVE:
            assert evaluate(f, {"x": pts[0]}, ctx) == evaluate(f, {"x": pts[1]}, ctx)
        elif violation.failed_condition is ViolationKind.C_JAC_ORD_VARIES:
            from ultralip.terms import differentiate

            d = differentiate(f, "x")
            ords = [evaluate(d, {"x": w}, ctx).ord() for w in pts]
            assert len(pts) == 1 and ords[0] == INFINITE_ORD or ords[0] != ords[1]

    def test_affine_map(self, ctx3):
        cert = check_jacobian_on_ball(parse_term("3*x+1"), Ball(ctx3.scalar(1), 1), 2)
        assert cert.jac_ord == 1
        assert cert.image == Ball(ctx3.scalar(4), 2)

    def test_distance_identity_is_condition_d(self, ctx3):
        """On a certified ball ord(f(x)-f(y)) - ord(x-y) equals jac_ord on
        every representative pair, verbatim."""
        f = parse_term("x^2")
        ball = Ball(ctx3.scalar(1), 1)
        cert = check_jacobian_on_ball(f, ball, 3)
        reps = [ctx3.scalar(x) for x in ball.representatives(3)]
        vals = {x: evaluate(f, {"x": x}, ctx3) for x in reps}
        for x, y in itertools.combinations(reps, 2):
            assert (vals[x] - vals[y]).ord() - (x - y).ord() == cert.jac_ord

    # x plus two locally constant terms on Z_2: f' = 1, but f(2) - f(0) =
    # 9/2 - 3/2 is a unit while 2 - 0 is not
    SPIKED = "x + 1/2*normval(x+2)^(-1) + 1/2*normval(x+5)^(-1)"

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_the_distance_identity_fails_at_depth_two(self, ctx2, depth):
        """Depth 1 certifies, depth 2 passes (a) to (c) and fails the distance
        identity (d) on the least pair the all-pairs oracle finds, and depth
        3 sees two images collide first."""
        f = parse_term(self.SPIKED)
        ball = Ball(ctx2.scalar(0), 0)
        result = check_jacobian_on_ball(f, ball, depth)
        if depth == 1:
            assert result == JacobianCertificate(ball, Ball(ctx2.scalar(Fraction(1, 2)), 0), 0, 1)
            return
        reps = [ctx2.scalar(x) for x in ball.representatives(depth)]
        images = [evaluate(f, {"x": x}, ctx2) for x in reps]
        jac = evaluate(differentiate(f, "x"), {"x": reps[0]}, ctx2).ord()
        i, j = distance_pairs(reps, images, jac)
        if depth == 2:
            assert result.failed_condition is ViolationKind.D_DISTANCE_MISMATCH
            assert result.witness == (reps[i], reps[j]) == (ctx2.scalar(0), ctx2.scalar(2))
            assert result.detail == "ord(f(x)-f(y)) = 0 but ord(f') + ord(x-y) = 1 for x=0, y=2"
        else:
            assert result.failed_condition is ViolationKind.A_IMAGE_NOT_BALL
            assert result.witness == (ctx2.scalar(1), ctx2.scalar(6))

    def test_image_radius_law(self, ctx3, ctx5):
        for ctx, src, center, radius in (
            (ctx3, "x^2", 1, 1),
            (ctx3, "3*x+1", 1, 1),
            (ctx3, "x/3", 1, 1),
            (ctx5, "x^3+x", 2, 1),
        ):
            cert = check_jacobian_on_ball(parse_term(src), Ball(ctx.scalar(center), radius), 2)
            assert isinstance(cert, JacobianCertificate)
            assert cert.image.radius_ord == cert.jac_ord + cert.ball.radius_ord

    def test_soundness_at_lower_depth(self, ctx3):
        f = parse_term("x^3")
        ball = Ball(ctx3.scalar(1), 1)
        deep = check_jacobian_on_ball(f, ball, 3)
        assert isinstance(deep, JacobianCertificate)
        for m in (1, 2):
            shallow = check_jacobian_on_ball(f, ball, m)
            assert isinstance(shallow, JacobianCertificate)
            assert shallow.jac_ord == deep.jac_ord
            assert shallow.image == deep.image

    def test_depth_validation(self, ctx3):
        with pytest.raises(ValueError):
            check_jacobian_on_ball(parse_term("x"), Ball(ctx3.scalar(1), 1), 0)

    @pytest.mark.parametrize(
        "src, witness, detail",
        [
            # f(3) leaves the forced ball before f(7) shares a residue class
            ("x + 1/3*normval(x - 12) + 2*normval(x - 9)", 3, "f(3) = 100/27 falls outside 1/3 + 3^0"),
            # f(5) shares the class of f(0) before f(6) leaves the forced ball
            (
                "x + 6*normval(x - 15)",
                5,
                "f(0) and f(5) collide in one residue class of 0 + 3^0; the image cannot tile the ball",
            ),
        ],
        ids=["outside-first", "collision-first"],
    )
    def test_condition_a_reports_the_first_failing_image(self, ctx3, src, witness, detail):
        result = check_jacobian_on_ball(parse_term(src), Ball(ctx3.scalar(0), 0), 2)
        assert result.failed_condition is ViolationKind.A_IMAGE_NOT_BALL
        assert result.witness == (ctx3.scalar(0), ctx3.scalar(witness))
        assert result.detail == detail


def random_jacobian_check(rng):
    """(f, ball, depth): a polynomial of degree 1 to 5 with rational
    coefficients, a ball at p in {2, 3, 5} with a rational centre and a
    radius ord in [-2, 3], and a depth in [1, 3]."""
    ctx = PrimeContext(rng.choice((2, 3, 5)))
    degree = rng.randint(1, 5)
    coeffs = [Fraction(rng.randint(-20, 20), rng.choice((1, 1, 2, 3, 4, 5, 9))) for _ in range(degree)]
    coeffs.append(Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 2, 3))))
    f = parse_term(" + ".join(f"({c})*x^{i}" for i, c in enumerate(coeffs)))
    centre = Fraction(rng.randint(-30, 30), rng.choice((1, 1, 2, 3, 5)))
    return f, Ball(ctx.scalar(centre), rng.randint(-2, 3)), rng.randint(1, 3)


class TestTaylorShiftCertificate:
    """The Taylor-shift test against the exhaustive check as its oracle."""

    def test_a_shift_certificate_is_the_exhaustive_one(self):
        rng = random.Random(5)
        for _ in range(600):
            f, ball, depth = random_jacobian_check(rng)
            result = check_jacobian_on_ball(f, ball, depth)
            expected = jacobian._exhaustive_certificate(f, "x", ball, depth)
            assert result == expected, (f, ball, depth)
            assert result.as_json_dict() == expected.as_json_dict()

    def test_most_draws_pass_the_shift_test(self, monkeypatch):
        """The same draws, with the exhaustive check replaced by None: at
        least half of them are certified by the shift alone."""
        monkeypatch.setattr(jacobian, "_exhaustive_certificate", lambda *args: None)
        rng = random.Random(5)
        results = [check_jacobian_on_ball(*random_jacobian_check(rng)) for _ in range(600)]
        assert sum(isinstance(r, JacobianCertificate) for r in results) >= 300

    def test_a_shift_certificate_evaluates_nothing(self, ctx3, monkeypatch):
        calls = []
        representatives, compile_value = Ball.representatives, jacobian.compile_value
        monkeypatch.setattr(
            Ball, "representatives", lambda ball, depth: (calls.append(ball), representatives(ball, depth))[1]
        )
        monkeypatch.setattr(
            jacobian, "compile_value", lambda term, ctx: (calls.append(term), compile_value(term, ctx))[1]
        )
        f = parse_term("x^3 + 2*x")
        # f(1 + 3y) = 3 + 15y + 27y^2 + 27y^3: ord 15 = 1 < 3
        cert = check_jacobian_on_ball(f, Ball(ctx3.scalar(1), 1), 3)
        assert cert == JacobianCertificate(Ball(ctx3.scalar(1), 1), Ball(ctx3.scalar(3), 1), 0, 3)
        assert calls == []
        # f(y) = 2y + y^3 on Z_3 fails the test, ord 2 = ord 1, and (a)
        # fails: f(1) = 3 and f(2) = 12 agree mod 9
        result = check_jacobian_on_ball(f, Ball(ctx3.scalar(0), 0), 2)
        assert result.failed_condition is ViolationKind.A_IMAGE_NOT_BALL
        assert calls


class TestMapBall:
    def test_square(self, ctx3):
        assert map_ball(parse_term("x^2"), Ball(ctx3.scalar(1), 1), 2) == Ball(ctx3.scalar(1), 1)

    def test_cube_contracts(self, ctx3):
        assert map_ball(parse_term("x^3"), Ball(ctx3.scalar(1), 1), 2) == Ball(ctx3.scalar(1), 2)

    def test_square_off_unit_class(self, ctx3):
        assert map_ball(parse_term("x^2"), Ball(ctx3.scalar(2), 1), 2) == Ball(ctx3.scalar(4), 1)

    def test_constant_map_is_not_a_ball(self, ctx3):
        result = map_ball(parse_term("normval(x)"), Ball(ctx3.scalar(1), 1), 2)
        assert isinstance(result, NotABall)

    def test_locally_constant_spike_not_a_ball(self, ctx3):
        result = map_ball(parse_term("levelspike(x)"), Ball(ctx3.scalar(3), 2), 2)
        assert isinstance(result, NotABall)


def random_correspondence(rng):
    """(argv, f, cell, window, depth): a polynomial of degree 1 to 4 with
    rational coefficients, on the cell of the coset lam*Q(m, n) about a
    centre 0 or not, at p in {2, 3, 5}, over a window of one to four levels
    at a depth in [1, 3]; argv is the correspondence command that asks the
    same."""
    p = rng.choice((2, 3, 5))
    ctx = PrimeContext(p)
    coeffs = [Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3))) for _ in range(rng.randint(1, 4))]
    coeffs.append(Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 1, 2))))
    src = " + ".join(f"({c})*x^{i}" for i, c in enumerate(coeffs))
    centre = rng.choice((0, 0, rng.randint(-6, 6), Fraction(rng.randint(1, 5), rng.choice((2, 3)))))
    coset = f"{rng.choice((1, 2, p, 7))}*Q({rng.randint(1, 2)},{rng.randint(1, 2)})"
    v_min = rng.randint(-1, 2)
    window, depth = Window(v_min, v_min + rng.randint(0, 3), 1), rng.randint(1, 3)
    cell = parse_cell(f"cell(center={centre}; coset={coset}; all; var=x)", ctx)
    argv = [
        "correspondence", "-p", str(p), "-f", src, "--coset", coset, f"--center={centre}", "--var", "x",
        f"--window={window.v_min}:{window.v_max}", "-M", str(depth), "--json",
    ]
    return argv, parse_term(src), cell, window, depth


class TestCorrespondence:
    def test_square_levels_double(self, ctx3):
        corr = check_ball_correspondence(
            parse_term("x^2"), coset_cell(ctx3), {}, Window(0, 3, 1), 3
        )
        assert isinstance(corr, BallCorrespondence)
        for source, image in corr.pairs:
            a = source.radius_ord - 1
            assert image.radius_ord - (a + 1) == a  # level doubles: b = 2a
        fitted = corr.fitted_image_cell
        assert fitted.coset.m == 1 and fitted.coset.n == 2
        assert fitted.center_at({}).is_zero

    def test_scaling_shifts_levels(self, ctx3):
        corr = check_ball_correspondence(
            parse_term("3*x"), coset_cell(ctx3), {}, Window(0, 2, 1), 2
        )
        assert isinstance(corr, BallCorrespondence)
        for source, image in corr.pairs:
            assert image.radius_ord == source.radius_ord + 1
        assert corr.fitted_image_cell.coset.n == 1
        assert corr.fitted_image_cell.coset.lam.ord() == 1

    def test_bijectivity_and_disjoint_images(self, ctx3):
        corr = check_ball_correspondence(
            parse_term("x^3"), coset_cell(ctx3), {}, Window(0, 2, 1), 2
        )
        assert isinstance(corr, BallCorrespondence)
        sources = [s for s, _ in corr.pairs]
        images = [i for _, i in corr.pairs]
        assert len(set(sources)) == len(sources) == len(set(images)) == len(images)
        for b1, b2 in itertools.combinations(images, 2):
            assert not balls_overlap(b1, b2)

    def test_not_injective_reported(self, ctx3):
        corr = check_ball_correspondence(
            parse_term("x*normval(x)"), coset_cell(ctx3), {}, Window(0, 2, 1), 2
        )
        assert isinstance(corr, CorrespondenceFailure)
        assert corr.kind == "not_injective"
        x1, x2 = corr.witnesses
        assert evaluate(parse_term("x*normval(x)"), {"x": x1}, ctx3) == evaluate(
            parse_term("x*normval(x)"), {"x": x2}, ctx3
        )

    def test_image_not_ball_reported(self, ctx3):
        corr = check_ball_correspondence(
            parse_term("normval(x)"), coset_cell(ctx3), {}, Window(0, 2, 1), 2
        )
        assert isinstance(corr, CorrespondenceFailure)
        assert corr.kind in ("not_injective", "image_not_ball")

    def test_images_overlap_reported(self, ctx3):
        # u^2 perturbed by a deep level-dependent shift: injective on values,
        # every level maps essentially onto the same unit ball
        f = parse_term("x^2*normval(x)^2 + 59049*x")
        corr = check_ball_correspondence(f, coset_cell(ctx3), {}, Window(0, 2, 1), 2)
        assert isinstance(corr, CorrespondenceFailure)
        assert corr.kind == "images_overlap"

    def test_the_images_are_checked_for_overlap_once(self, ctx3, monkeypatch):
        """fit_cell's check is the only one; its pair becomes the failure."""
        calls = []
        first_overlap = cells.first_overlap
        monkeypatch.setattr(cells, "first_overlap", lambda balls: (calls.append(balls), first_overlap(balls))[1])
        f = parse_term("x^2*normval(x)^2 + 59049*x")
        corr = check_ball_correspondence(f, coset_cell(ctx3), {}, Window(0, 2, 1), 2)
        assert len(calls) == 1
        assert corr.witnesses == (Ball(ctx3.scalar(1), 1), Ball(ctx3.scalar(3), 2))
        assert corr.detail == "images 1 + 3^1 and 1 + 3^1 of 1 + 3^1 and 3 + 3^2 are not disjoint"

    def test_no_candidate_fits_reported(self, ctx3):
        # f(center) is undefined (pole) and the image ball contains 0
        f = parse_term("3 - 3/x")
        corr = check_ball_correspondence(f, coset_cell(ctx3), {}, Window(0, 0, 1), 2)
        assert isinstance(corr, CorrespondenceFailure)
        assert corr.kind == "no_candidate_fits"

    def test_image_not_single_cell_reported(self, ctx3):
        """The images split into two (m, xi) groups; the witnesses are the
        fitted cells, in fit_cell's order."""
        cell = parse_cell("cell(center=0; coset=1*Q(2,1); all; var=x)", ctx3)
        corr = check_ball_correspondence(parse_term("x^2+x"), cell, {}, Window(1, 4, 1), 2)
        assert isinstance(corr, CorrespondenceFailure)
        assert corr.kind == "image_not_single_cell"
        assert [format_cell(c) for c in corr.witnesses] == [
            "cell(center=0; coset=9*Q(2,1); ord in [2,4]; var=x)",
            "cell(center=0; coset=12*Q(2,1); ord in [1,1]; var=x)",
        ]
        assert corr.detail == "image balls fit into 2 cells, not one; a single cell was required"

    def test_extra_candidate_rescues(self, ctx3):
        f = parse_term("3 - 3/x")
        corr = check_ball_correspondence(
            f, coset_cell(ctx3), {}, Window(0, 0, 1), 2,
            extra_candidates=[ctx3.scalar(1)],
        )
        assert isinstance(corr, BallCorrespondence)

    def test_empty_window(self, ctx3):
        cell = point_cell(ctx3.scalar(0), CosetSpec(ctx3.scalar(1), 1, 5), fiber_var="x")
        corr = check_ball_correspondence(parse_term("x"), cell, {}, Window(1, 4, 1), 2)
        assert isinstance(corr, CorrespondenceFailure)
        assert corr.kind == "no_balls_in_window"

    @staticmethod
    def _count_evaluations(monkeypatch) -> tuple:
        """The points f is evaluated at, and the balls whose representatives
        are built, in order, from here on."""
        calls, built = [], []
        compile_value, representatives = jacobian.compile_value, Ball.representatives

        def counting(term, ctx):
            f_at = compile_value(term, ctx)
            return lambda point: (calls.append(point["x"]), f_at(point))[1]

        monkeypatch.setattr(jacobian, "compile_value", counting)
        monkeypatch.setattr(
            Ball, "representatives", lambda ball, depth: (built.append(ball), representatives(ball, depth))[1]
        )
        return calls, built

    def test_f_is_evaluated_once_per_representative(self, ctx3, monkeypatch):
        """A term that is not a polynomial is tiled from its values."""
        calls, built = self._count_evaluations(monkeypatch)
        cell = coset_cell(ctx3)
        corr = check_ball_correspondence(parse_term("x^3*normval(x)"), cell, {}, Window(0, 2, 1), 2)
        assert isinstance(corr, BallCorrespondence) and len(corr.pairs) == 3
        sources = [source for source, _ in corr.pairs]
        assert built == sources
        reps = [x for source in sources for x in Ball.representatives(source, 2)]
        assert calls == reps + [cell.center_at({}).value]

    def test_a_shift_correspondence_evaluates_f_only_at_the_centre(self, ctx3, monkeypatch):
        """x^3 passes the shift test on every ball of the window, and its
        images are disjoint: no representative is built."""
        calls, built = self._count_evaluations(monkeypatch)
        cell = coset_cell(ctx3)
        corr = check_ball_correspondence(parse_term("x^3"), cell, {}, Window(0, 2, 1), 2)
        assert isinstance(corr, BallCorrespondence)
        assert [image for _, image in corr.pairs] == [
            Ball(ctx3.scalar(1), 2), Ball(ctx3.scalar(27), 5), Ball(ctx3.scalar(729), 8)
        ]
        assert built == []
        assert calls == [cell.center_at({}).value]

    @pytest.mark.parametrize("src", ["x^3", "x^3*normval(x)"], ids=["shift", "tiled"])
    def test_depth_below_one_raises_after_the_window_check(self, ctx3, src):
        f = parse_term(src)
        with pytest.raises(ValueError, match="depth must be >= 1"):
            check_ball_correspondence(f, coset_cell(ctx3), {}, Window(0, 2, 1), 0)
        empty = point_cell(ctx3.scalar(0), CosetSpec(ctx3.scalar(1), 1, 5), fiber_var="x")
        corr = check_ball_correspondence(f, empty, {}, Window(1, 4, 1), 0)
        assert corr.kind == "no_balls_in_window"

    def test_overlapping_shift_images_take_the_tiled_route(self, ctx3, monkeypatch):
        """x^2 passes the shift test on every ball of 1 + 1*Q(1,1), but the
        images of the balls at levels 0 and 1 overlap, so the failure is the
        tiled route's."""
        cell = parse_cell("cell(center=1; coset=1*Q(1,1); all; var=x)", ctx3)
        f, window = parse_term("x^2"), Window(0, 3, 1)
        balls = cells.enumerate_balls(cell, {}, window)
        assert None not in [jacobian._shift_image(f, ball) for ball in balls]
        tiled = []
        tiled_images = jacobian._tiled_images
        monkeypatch.setattr(jacobian, "_tiled_images", lambda *args: (tiled.append(args), tiled_images(*args))[1])
        corr = check_ball_correspondence(f, cell, {}, window, 2)
        assert len(tiled) == 1
        assert corr.kind == "images_overlap"
        assert corr.witnesses == (Ball(ctx3.scalar(2), 1), Ball(ctx3.scalar(4), 2))

    def test_the_shift_test_stops_at_the_first_failing_ball(self, ctx3, monkeypatch):
        """x^2 + x fails the shift test on 1 + 3^1 (ord b_1 = ord b_2 = 2)
        and passes it on the deeper balls, which are not shifted."""
        shifted = []
        shift_image = jacobian._shift_image
        monkeypatch.setattr(jacobian, "_shift_image", lambda f, ball: (shifted.append(ball), shift_image(f, ball))[1])
        f, cell, window = parse_term("x^2 + x"), coset_cell(ctx3), Window(0, 2, 1)
        check_ball_correspondence(f, cell, {}, window, 2)
        assert shifted == [Ball(ctx3.scalar(1), 1)]
        balls = cells.enumerate_balls(cell, {}, window)
        assert [shift_image(f, ball) is None for ball in balls] == [True, False, False]

    def test_a_shift_correspondence_scans_for_overlap_once(self, ctx3, monkeypatch):
        """fit_cell's scan of the shift images is the only one."""
        calls = []
        for module in (regions, cells, jacobian):
            if hasattr(module, "first_overlap"):
                original = module.first_overlap
                monkeypatch.setattr(
                    module, "first_overlap", lambda balls, original=original: (calls.append(balls), original(balls))[1]
                )
        cell = parse_cell("cell(center=0; coset=1*Q(1,1); all; var=x)", ctx3)
        corr = check_ball_correspondence(parse_term("x^3"), cell, {}, Window(0, 8, 3), 3)
        assert isinstance(corr, BallCorrespondence) and len(corr.pairs) == 9
        assert calls == [[image for _, image in corr.pairs]]

    def test_the_shift_route_is_the_tiled_route(self, monkeypatch):
        """Seeded draws through the API and the command line, against the
        same calls with the shift test made to fail, which forces the
        tiled route.  The draws reach every way the shift route can fall
        back."""
        rng = random.Random(32)
        seen = collections.Counter()
        for _ in range(300):
            argv, f, cell, window, depth = random_correspondence(rng)
            shifts = [jacobian._shift_image(f, ball) for ball in cells.enumerate_balls(cell, {}, window)]
            route = "fails" if None in shifts else "overlap" if shifts and regions.first_overlap(shifts) else "shift"
            result = check_ball_correspondence(f, cell, {}, window, depth)
            printed = run_cli(argv)
            with monkeypatch.context() as patched:
                patched.setattr(jacobian, "_shift_image", lambda f, ball: None)
                assert check_ball_correspondence(f, cell, {}, window, depth) == result, argv
                assert run_cli(argv) == printed, argv
            seen[route, getattr(result, "kind", "correspondence")] += 1
        kinds = {kind for _, kind in seen}
        assert {"not_injective", "images_overlap", "image_not_single_cell"} <= kinds, seen
        assert seen["shift", "correspondence"] and seen["shift", "image_not_single_cell"], seen
        assert seen["overlap", "images_overlap"] and seen["fails", "correspondence"], seen

    def test_a_collision_is_reported_before_a_later_undefined_point(self, ctx3):
        # f(1) = f(4) = -4 + 1/3, and f is undefined at the next
        # representative 7, where normval meets 0
        f = parse_term("x^2 - 5*x + normval(x - 7)")
        corr = check_ball_correspondence(f, coset_cell(ctx3), {}, Window(0, 0, 1), 2)
        assert isinstance(corr, CorrespondenceFailure) and corr.kind == "not_injective"
        assert corr.witnesses == (ctx3.scalar(1), ctx3.scalar(4))
        assert corr.detail == "f(1) = f(4) = -11/3"

    def test_correspondence_above_a_base_point(self, ctx3):
        from ultralip.cells import Cell
        from ultralip.syntax import parse_condition

        cell = Cell(
            base_vars=("y",),
            fiber_var="x",
            base_condition=parse_condition("|y| = |1|"),
            center=parse_term("y"),
            alpha=None,
            beta=None,
            coset=CosetSpec(ctx3.scalar(1), 1, 1),
        )
        corr = check_ball_correspondence(
            parse_term("3*x"), cell, {"y": ctx3.scalar(2)}, Window(0, 2, 1), 2
        )
        assert isinstance(corr, BallCorrespondence)
        for source, image in corr.pairs:
            assert image.radius_ord == source.radius_ord + 1


class TestVerifyCertificate:
    def test_clean_certificate_passes(self, ctx3):
        f = parse_term("x^2")
        cert = check_jacobian_on_ball(f, Ball(ctx3.scalar(1), 1), 3)
        assert verify_certificate(f, cert).passed

    def test_jac_ord_mutations_detected(self, ctx3):
        f = parse_term("x^2")
        cert = check_jacobian_on_ball(f, Ball(ctx3.scalar(1), 1), 3)
        for delta in (-1, 1):
            bad = dataclasses.replace(cert, jac_ord=cert.jac_ord + delta)
            check = verify_certificate(f, bad)
            assert not check.passed
            assert check.detail

    def test_image_mutation_detected(self, ctx3):
        f = parse_term("x^2")
        cert = check_jacobian_on_ball(f, Ball(ctx3.scalar(1), 1), 3)
        bad = dataclasses.replace(
            cert,
            image=Ball(ctx3.scalar(2), cert.image.radius_ord),
        )
        assert not verify_certificate(f, bad).passed
