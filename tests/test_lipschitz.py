import dataclasses
import itertools
from fractions import Fraction

import pytest

from ultralip.qp_core import CosetSpec, PadicScalar, PrimeContext
from ultralip.regions import Window, enumerate_window
from ultralip.cells import point_cell
from ultralip.jacobian import (
    CorrespondenceFailure,
    JacobianViolation,
    check_ball_correspondence,
    check_jacobian_on_ball,
)
from ultralip.lipschitz import (
    CenterNotZero,
    EmptyRegion,
    Mode,
    certified_cell_constant,
    check_bounded_derivative_local_lipschitz,
    counterexample_exloc,
    counterexample_exloc2,
    empirical_lipschitz,
)
from ultralip.syntax import TrueCond, parse, parse_condition, parse_term
from ultralip.terms import evaluate


def coset_cell(ctx, lam=1, m=1, n=1, var="x"):
    return point_cell(ctx.scalar(0), CosetSpec(ctx.scalar(lam), m, n), fiber_var=var)


class TestEmpirical:
    def test_scaling(self, ctx3):
        r = empirical_lipschitz(parse_term("3*t"), TrueCond(), Window(0, 2, 2), ctx3)
        assert r.mode is Mode.EMPIRICAL_LOWER_BOUND
        assert r.constant_exponent == -1

    def test_square_on_unit_coset(self, ctx3):
        r = empirical_lipschitz(
            parse_term("t^2"), parse_condition("t in 1*Q(1,1)"), Window(0, 2, 2), ctx3
        )
        assert r.constant_exponent == 0

    def test_normval_blowup(self, ctx3):
        """The norm-embedding map has ratio exponent v1 + v2 on level pairs
        (v1 < v2); the max over the window [0,3] at depth 1 is 3 + 2 = 5, and
        the pair (ord 0, ord 3) realizes exponent 3 = -ord(x2)."""
        r = empirical_lipschitz(parse_term("normval(t)"), TrueCond(), Window(0, 3, 1), ctx3)
        assert r.constant_exponent == 5
        x1, x2 = r.witness
        assert (x1.ord(), x2.ord()) == (2, 3)
        f = parse_term("normval(t)")
        pair = (ctx3.scalar(1), ctx3.scalar(27))
        df = evaluate(f, {"t": pair[0]}) - evaluate(f, {"t": pair[1]})
        dx = pair[0] - pair[1]
        assert df.norm_exponent() - dx.norm_exponent() == 3

    def test_witness_reevaluates_to_ratio(self, ctx3):
        f = parse_term("t^3+t")
        r = empirical_lipschitz(f, TrueCond(), Window(-1, 1, 2), ctx3)
        x1, x2 = r.witness
        df = evaluate(f, {"t": x1}) - evaluate(f, {"t": x2})
        assert df.norm_exponent() - (x1 - x2).norm_exponent() == r.constant_exponent

    def test_monotone_refinement(self, ctx3):
        f = parse_term("t^2 - t")
        shallow = empirical_lipschitz(f, TrueCond(), Window(-1, 1, 1), ctx3)
        deep = empirical_lipschitz(f, TrueCond(), Window(-1, 1, 2), ctx3)
        assert deep.constant_exponent >= shallow.constant_exponent

    def test_empty_region(self, ctx3):
        with pytest.raises(EmptyRegion):
            empirical_lipschitz(
                parse_term("t"), parse_condition("|t| < |27| && |1/27| < |t|"),
                Window(0, 1, 1), ctx3,
            )

    def test_constant_function_has_no_ratio(self, ctx3):
        r = empirical_lipschitz(parse_term("t - t"), TrueCond(), Window(0, 1, 1), ctx3)
        assert r.constant_exponent is None
        assert r.witness is None

    def test_piecewise_function(self, ctx3):
        pf = parse("piecewise(t) { ord(t) % 2 = 0 -> t ; ord(t) % 2 = 1 -> 3*t }")
        r = empirical_lipschitz(pf, TrueCond(), Window(0, 1, 1), ctx3)
        assert r.constant_exponent is not None

    def test_two_variable_scan(self, ctx3):
        f = parse_term("x + 3*y")
        r = empirical_lipschitz(f, TrueCond(), Window(0, 1, 1), ctx3)
        assert r.constant_exponent == 0
        assert isinstance(r.witness[0], tuple) and len(r.witness[0]) == 2

    @pytest.mark.parametrize(
        "f, region, window, points",
        [
            # one variable, a coset region: every window point is tried once
            ("t^2 + t", "t in 1*Q(1,1)", Window(0, 2, 2), 18),
            # the bivariate grid: every pair of window points is tried once
            ("x + 3*y", "|x| < |y| || ord(x) % 2 = 0", Window(0, 1, 1), 16),
        ],
    )
    def test_one_region_test_per_candidate_point(self, ctx3, monkeypatch, f, region, window, points):
        """The scan calls eval_condition exactly once per candidate point,
        so tracing that call counts the points scanned and accepted."""
        import ultralip.lipschitz as lp

        calls = []
        eval_condition = lp.eval_condition

        def counting(c, binding, ctx):
            calls.append(dict(binding))
            return eval_condition(c, binding, ctx)

        monkeypatch.setattr(lp, "eval_condition", counting)
        cond = parse_condition(region)
        empirical_lipschitz(parse_term(f), cond, window, ctx3)
        assert len(calls) == points
        names = sorted(calls[0])
        grid = itertools.product(enumerate_window(window, ctx3), repeat=len(names))
        assert sorted(tuple(c[n].value for n in names) for c in calls) == sorted(
            tuple(x.value for x in pt) for pt in grid
        )
        accepted = [c for c in calls if eval_condition(cond, c, ctx3)]
        assert 0 < len(accepted) < points

    def test_two_variable_no_certification_offered(self):
        import ultralip.lipschitz as lp

        assert not hasattr(lp, "certified_multivariable_constant")


class TestCertified:
    def _pipeline(self, ctx, src, window, depth=3, var="x"):
        f = parse_term(src)
        cell = coset_cell(ctx, var=var)
        corr = check_ball_correspondence(f, cell, {}, window, depth)
        return f, cell, corr

    def test_square_pipeline(self, ctx3):
        f, cell, corr = self._pipeline(ctx3, "x^2", Window(0, 3, 1))
        report = certified_cell_constant(f, cell, corr, 0)
        assert report.mode is Mode.CERTIFIED_UPPER_BOUND
        assert report.constant_exponent == 0  # m = m' = 1, eps = 1
        empirical = empirical_lipschitz(
            parse_term("t^2"), parse_condition("t in 1*Q(1,1)"), Window(0, 3, 3), ctx3
        )
        assert report.constant_exponent >= empirical.constant_exponent

    def test_m_prime_exceeds_m(self, ctx3):
        """x^3 sends the unit coset into a depth-2 image coset: with m=1,
        m'=2 and eps=1 the certified constant is C = p."""
        f, cell, corr = self._pipeline(ctx3, "x^3", Window(0, 2, 1))
        assert corr.fitted_image_cell.coset.m == 2
        report = certified_cell_constant(f, cell, corr, 0)
        assert report.constant_exponent == 1
        tight = certified_cell_constant(f, cell, corr, -1)
        assert tight.constant_exponent == 0
        empirical = empirical_lipschitz(
            parse_term("t^3"), parse_condition("t in 1*Q(1,1)"), Window(0, 2, 3), ctx3
        )
        assert tight.constant_exponent >= empirical.constant_exponent

    def test_center_not_zero_rejected(self, ctx3):
        f = parse_term("x^2")
        cell = point_cell(
            ctx3.scalar(1), CosetSpec(ctx3.scalar(1), 1, 1), fiber_var="x"
        )
        corr = check_ball_correspondence(f, coset_cell(ctx3), {}, Window(0, 2, 1), 2)
        with pytest.raises(CenterNotZero):
            certified_cell_constant(f, cell, corr, 0)

    def test_image_center_witness_is_the_fitted_center(self, ctx3):
        f, cell, corr = self._pipeline(ctx3, "x^2+1", Window(0, 3, 1))
        out = certified_cell_constant(f, cell, corr, 0)
        assert isinstance(out, CorrespondenceFailure)
        assert out.kind == "ImageCenterNotZero"
        assert out.witnesses == (corr.fitted_image_cell.center_at({}),)
        assert not out.witnesses[0].is_zero

    def test_certification_failure_witnesses_recheck(self, ctx2):
        """12 x^2 maps 1 + 2Z_2 onto a ball its representatives cannot tile;
        the returned points reproduce the violation on their ball."""
        f, cell, corr = self._pipeline(ctx2, "12*x^2", Window(0, 2, 1), depth=2)
        out = certified_cell_constant(f, cell, corr, 0)
        assert isinstance(out, CorrespondenceFailure)
        assert out.kind == "CertificationFailed"
        ball = next(b for b, _ in corr.pairs if all(b.contains(x) for x in out.witnesses))
        violation = check_jacobian_on_ball(f, ball, corr.depth)
        assert isinstance(violation, JacobianViolation)
        assert (violation.witness, violation.detail) == (out.witnesses, out.detail)

    def test_ledger_identity_violation_detected(self, ctx3):
        from ultralip.regions import Ball

        f, cell, corr = self._pipeline(ctx3, "x^2", Window(0, 2, 1))
        (b0, i0), *rest = corr.pairs
        tampered = dataclasses.replace(
            corr, pairs=((b0, Ball(i0.center, i0.radius_ord + 1)),) + tuple(rest)
        )
        out = certified_cell_constant(f, cell, tampered, 0)
        assert isinstance(out, CorrespondenceFailure)
        assert out.kind == "LedgerIdentityViolated"
        (ball,) = out.witnesses
        image = next(i for b, i in tampered.pairs if b == ball)
        assert check_jacobian_on_ball(f, ball, corr.depth).image != image

    def test_derivative_bound_enforced(self, ctx3):
        f, cell, corr = self._pipeline(ctx3, "x^3", Window(0, 2, 1))
        out = certified_cell_constant(f, cell, corr, -2)  # |f'| = p^-1 > p^-2
        assert isinstance(out, CorrespondenceFailure)
        assert out.kind == "DerivativeBoundExceeded"
        (ball,) = out.witnesses
        assert ball in [b for b, _ in corr.pairs]
        assert check_jacobian_on_ball(f, ball, corr.depth).jac_ord < 2


class TestBoundedDerivativeCheck:
    def test_unit_derivative_passes(self, ctx3):
        out = check_bounded_derivative_local_lipschitz(
            parse_term("t + t^3"), TrueCond(), Window(0, 2, 3), ctx3
        )
        assert out.status == "passed"

    def test_large_derivative_skips(self, ctx3):
        out = check_bounded_derivative_local_lipschitz(
            parse_term("t/3"), TrueCond(), Window(0, 2, 2), ctx3
        )
        assert out.status == "skipped"
        assert out.witness is not None

    def test_a_bivariate_term_is_refused(self, ctx3):
        with pytest.raises(ValueError, match="term must be univariate"):
            check_bounded_derivative_local_lipschitz(
                parse_term("x*y"), TrueCond(), Window(0, 1, 1), ctx3
            )

    def test_small_derivative_p2(self, ctx2):
        out = check_bounded_derivative_local_lipschitz(
            parse_term("t^2"), TrueCond(), Window(1, 3, 3), ctx2
        )
        assert out.status == "passed"

    def test_locally_constant_spike_fails_nothing(self, ctx3):
        # levelspike is locally constant: derivative 0, all same-ball pairs equal
        out = check_bounded_derivative_local_lipschitz(
            parse_term("levelspike(t)"), parse_condition("|t| < |1|"), Window(1, 3, 3), ctx3
        )
        assert out.status == "passed"


class TestExloc:
    def test_trace_shape(self, ctx3):
        trace = counterexample_exloc(Window(0, 4, 2), ctx3)
        assert [e.ratio_exponent for e in trace.entries] == [1, 3, 5, 7]
        ratios = [e.ratio_exponent for e in trace.entries]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_pair_identity_equality(self, ctx3):
        """|f(x1) - f(x2)| equals |x2|^(-1) exactly on every pair with
        |x2| < |x1|: the defining inequality is realized with equality."""
        f = parse_term("normval(t)")
        reps = sorted(enumerate_window(Window(0, 3, 2), ctx3), key=lambda s: s.ord())
        for x1, x2 in itertools.combinations(reps, 2):
            if x1.ord() == x2.ord():
                continue
            df = evaluate(f, {"t": x1}) - evaluate(f, {"t": x2})
            assert df.norm_exponent() == x2.ord()
            assert (x1 - x2).norm_exponent() == -x1.ord()

    def test_local_constancy(self, ctx3):
        f = parse_term("normval(t)")
        window = Window(0, 3, 2)
        for x in enumerate_window(window, ctx3):
            expected = evaluate(f, {"t": x})
            for probe in window.ball_of(x).representatives(2):
                assert evaluate(f, {"t": probe}) == expected

    def test_rejects_negative_window(self, ctx3):
        with pytest.raises(ValueError):
            counterexample_exloc(Window(-1, 2, 1), ctx3)

    def test_p2_instance(self, ctx2):
        trace = counterexample_exloc(Window(1, 4, 1), ctx2)
        assert [e.ratio_exponent for e in trace.entries] == [3, 5, 7]


class TestExloc2:
    def test_paper_identities(self, ctx3):
        """|b_i - b_j| = p |b_i^3| and |g(b_i) - g(b_j)| = |b_i^2| at every
        level, and the ratio exponent is exactly n - 1."""
        trace = counterexample_exloc2(5, ctx3)
        for e in trace.entries:
            n = e.level
            b_i, b_j = e.witness
            assert b_i.value == Fraction(3) ** n
            assert (b_i - b_j).norm_exponent() == 1 - 3 * n
            assert (b_i**3).norm_exponent() == -3 * n
            assert e.ratio_exponent == n - 1

    def test_level2_witness(self, ctx3):
        trace = counterexample_exloc2(2, ctx3)
        b_i, b_j = trace.entries[1].witness
        assert (b_i.value, b_j.value) == (9, 252)
        assert trace.entries[1].ratio_exponent == 1
        assert trace.entries[0].ratio_exponent == 0

    def test_derivative_trace_decays(self, ctx3):
        trace = counterexample_exloc2(4, ctx3)
        assert list(trace.derivative_entries) == [(1, -1), (2, -2), (3, -3), (4, -4)]

    def test_spike_values(self, ctx3):
        g = parse_term("levelspike(t)")
        assert evaluate(g, {"t": ctx3.scalar(9)}).value == 81
        assert evaluate(g, {"t": ctx3.scalar(252)}).is_zero
        assert evaluate(g, {"t": ctx3.scalar(0)}).is_zero
        # marked ball membership is decided mod p^(3n)
        assert evaluate(g, {"t": ctx3.scalar(9 + 729)}).value == 81

    def test_rejects_bad_levels(self, ctx3):
        with pytest.raises(ValueError):
            counterexample_exloc2(0, ctx3)


class TestCoherence:
    def test_lower_bounds_never_exceed_certified(self, ctx3):
        f = parse_term("x^2")
        cell = coset_cell(ctx3)
        corr = check_ball_correspondence(f, cell, {}, Window(0, 3, 1), 3)
        certified = certified_cell_constant(f, cell, corr, 0)
        for depth in (1, 2, 3):
            empirical = empirical_lipschitz(
                parse_term("t^2"),
                parse_condition("t in 1*Q(1,1)"),
                Window(0, 3, depth),
                ctx3,
            )
            assert empirical.constant_exponent <= certified.constant_exponent
