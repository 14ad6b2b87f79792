import dataclasses
import itertools
from fractions import Fraction

import pytest

from ultralip import jacobian
from ultralip.qp_core import INFINITE_ORD, CosetSpec, PrimeContext
from ultralip.regions import Ball, BallRelation, Window
from ultralip.cells import point_cell
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
from ultralip.terms import evaluate, parse_term


def coset_cell(ctx, lam=1, m=1, n=1, var="x"):
    return point_cell(ctx.scalar(0), CosetSpec(ctx.scalar(lam), m, n), fiber_var=var)


class TestFiberVariable:
    def test_the_one_variable_of_f_or_the_default(self, ctx3):
        assert jacobian._fiber_variable(parse_term("y^2 + y"), "t") == "y"
        assert jacobian._fiber_variable(parse_term("7"), "x") == "x"
        with pytest.raises(ValueError, match="term must be univariate"):
            jacobian._fiber_variable(parse_term("x*y"), "x")
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
        reps = ball.representatives(3)
        vals = {x: evaluate(f, {"x": x}, ctx3) for x in reps}
        for x, y in itertools.combinations(reps, 2):
            assert (vals[x] - vals[y]).ord() - (x - y).ord() == cert.jac_ord

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
            assert b1.relation(b2) is BallRelation.DISJOINT

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

    def test_no_candidate_fits_reported(self, ctx3):
        # f(center) is undefined (pole) and the image ball contains 0
        f = parse_term("3 - 3/x")
        corr = check_ball_correspondence(f, coset_cell(ctx3), {}, Window(0, 0, 1), 2)
        assert isinstance(corr, CorrespondenceFailure)
        assert corr.kind == "no_candidate_fits"

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

    def test_f_is_evaluated_once_per_representative(self, ctx3, monkeypatch):
        calls = []
        compile_term = jacobian.compile_term

        def counting(term, ctx):
            f_at = compile_term(term, ctx)
            return lambda point: (calls.append(point["x"]), f_at(point))[1]

        monkeypatch.setattr(jacobian, "compile_term", counting)
        cell = coset_cell(ctx3)
        corr = check_ball_correspondence(parse_term("x^3"), cell, {}, Window(0, 2, 1), 2)
        assert isinstance(corr, BallCorrespondence) and len(corr.pairs) == 3
        reps = [x for source, _ in corr.pairs for x in source.representatives(2)]
        assert calls == reps + [cell.center_at({})]

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
        from ultralip.terms import parse_condition

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
