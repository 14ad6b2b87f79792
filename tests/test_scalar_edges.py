"""Scalars only at the edges: the per-point loops compute on raw values.

Each analysis below is run with PadicScalar.__init__ counting, after one
untimed call that compiles its terms.  Every scalar it builds must be one
that its result holds (a witness, a ball or image centre, a trace entry),
so the count does not grow with the number of points it visits.  A Ball
replaces a centre that is not canonical by the canonical one, which
reduce_mod_power builds; that replacement is not counted, and the scalar it
replaced counts for the one the result holds.  A violation that fails
after the image ball is known names that ball in its detail, and holds only
its text.
"""

import dataclasses
import sys
import types

import pytest

import ultralip.prepare
from ultralip.cells import fit_cell, point_cell
from ultralip.jacobian import (
    BallCorrespondence,
    JacobianCertificate,
    JacobianViolation,
    NotABall,
    ViolationKind,
    check_ball_correspondence,
    check_jacobian_on_ball,
    map_ball,
)
from ultralip.lipschitz import (
    check_bounded_derivative_local_lipschitz,
    counterexample_exloc,
    empirical_lipschitz,
)
from ultralip.prepare import parse_factored, prepare, verify_prepared
from ultralip.qp_core import CosetSpec, PadicScalar, PrimeContext
from ultralip.regions import Ball, Window
from ultralip.syntax import parse_condition, parse_term


@pytest.fixture
def built(monkeypatch):
    """The scalars built since the last clear: `new` holds every one, and
    `counted` those a Ball does not build to canonicalise its centre."""
    init, canonical = PadicScalar.__init__, PadicScalar.reduce_mod_power.__code__
    seen = types.SimpleNamespace(counted=[], new=[])

    def counting(self, value, context):
        init(self, value, context)
        seen.new.append(self)
        if sys._getframe(1).f_code is not canonical:
            seen.counted.append(self)

    monkeypatch.setattr(PadicScalar, "__init__", counting)
    return seen


def held(result, new) -> int:
    """How many of the scalars in `new` the result holds, through its
    fields, tuples and balls."""
    ids = {id(s) for s in new}
    found = set()

    def walk(obj):
        if isinstance(obj, PadicScalar):
            if id(obj) in ids:
                found.add(id(obj))
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                walk(item)
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            for field in dataclasses.fields(obj):
                walk(getattr(obj, field.name))

    walk(result)
    return len(found)


def run_counted(built, call):
    """call() once to compile its terms, then again with the count cleared;
    returns the second result."""
    call()
    built.counted.clear()
    built.new.clear()
    return call()


def assert_only_held(built, result, named=0):
    """Every counted scalar is held by the result, but for `named` image
    balls that its detail names."""
    assert len(built.counted) == held(result, built.new) + named


class TestScans:
    @pytest.mark.parametrize(
        "f, region, window, witness",
        [
            ("t^3 + 2*t", "|t| <= |1|", Window(-1, 2, 3), 2),
            ("normval(t) + t", "ord(t) % 2 = 0", Window(0, 3, 2), 2),
            ("x^2*y + 3*y", "|x| <= |y|", Window(0, 1, 2), 4),
        ],
    )
    def test_a_scan_builds_only_its_witness(self, ctx3, built, f, region, window, witness):
        f, region = parse_term(f), parse_condition(region)
        report = run_counted(built, lambda: empirical_lipschitz(f, region, window, ctx3))
        assert len(built.counted) == witness == held(report, built.new)

    @pytest.mark.parametrize(
        "f, status, witness",
        [("levelspike(t)/9", "failed", 2), ("t^2", "passed", 0), ("t/3", "skipped", 1)],
    )
    def test_the_local_check_builds_only_its_witness(self, ctx3, built, f, status, witness):
        f, region = parse_term(f), parse_condition("|t| < |1|")
        out = run_counted(
            built, lambda: check_bounded_derivative_local_lipschitz(f, region, Window(1, 2, 2), ctx3)
        )
        assert out.status == status
        assert len(built.counted) == witness == held(out, built.new)

    def test_exloc_builds_only_its_trace(self, ctx3, built):
        trace = run_counted(built, lambda: counterexample_exloc(Window(0, 4, 2), ctx3))
        assert len(built.counted) == 2 * len(trace.entries) == held(trace, built.new)


class TestJacobian:
    # f' = 1 on Z_2, but f(2) - f(0) is a unit while 2 - 0 is not
    SPIKED = "x + 1/2*normval(x+2)^(-1) + 1/2*normval(x+5)^(-1)"

    @pytest.mark.parametrize(
        "f, p, centre, radius, depth, kind, named",
        [
            # not a polynomial, so the check runs on the representatives
            ("x*normval(x)", 3, 1, 1, 3, None, 0),
            ("x^3 + 2*x", 3, 0, 0, 3, ViolationKind.A_IMAGE_NOT_BALL, 1),
            ("x^2", 3, 0, 1, 3, ViolationKind.C_JAC_ORD_VARIES, 0),
            ("x^3 - x", 3, 0, 0, 3, ViolationKind.A_NOT_INJECTIVE, 0),
            (SPIKED, 2, 0, 0, 2, ViolationKind.D_DISTANCE_MISMATCH, 1),
        ],
    )
    def test_the_exhaustive_check_builds_only_its_result(
        self, built, f, p, centre, radius, depth, kind, named
    ):
        ctx = PrimeContext(p)
        f, ball = parse_term(f), Ball(ctx.scalar(centre), radius)
        result = run_counted(built, lambda: check_jacobian_on_ball(f, ball, depth))
        if kind is None:
            assert isinstance(result, JacobianCertificate)
        else:
            assert isinstance(result, JacobianViolation) and result.failed_condition is kind
        assert_only_held(built, result, named)

    @pytest.mark.parametrize(
        "f, centre, radius, ball, named",
        [
            ("x^3", 1, 1, True, 0),
            ("x*normval(x)", 1, 1, True, 0),
            ("x^2", 0, 1, False, 1),  # images of 0 and 27 collide
            ("x - x", 2, 1, False, 0),  # a point, with no image ball
        ],
    )
    def test_map_ball_builds_only_its_result(self, ctx3, built, f, centre, radius, ball, named):
        f, source = parse_term(f), Ball(ctx3.scalar(centre), radius)
        result = run_counted(built, lambda: map_ball(f, source, 4))
        assert isinstance(result, Ball if ball else NotABall)
        assert_only_held(built, result, named)

    @pytest.mark.parametrize("f", ["x^3", "x^2 - 5*x + normval(x - 7)", "x^2"])
    def test_the_correspondence_builds_per_ball_not_per_representative(self, ctx3, built, f):
        """The tiling of each ball computes on its raw representatives; the
        per-ball work (ball and image centres, the fitting in cells) builds
        the same scalars at every depth."""
        f = parse_term(f)
        cell = point_cell(ctx3.scalar(0), CosetSpec(ctx3.scalar(1), 1, 1), fiber_var="x")
        counts = []
        for depth in (1, 2, 3):
            result = run_counted(
                built, lambda: check_ball_correspondence(f, cell, {}, Window(0, 2, 1), depth)
            )
            counts.append((type(result), len(built.counted)))
        assert counts[0] == counts[1] == counts[2]

    def test_fitting_the_image_balls_takes_no_scalar_difference(self, ctx3, monkeypatch):
        """fit_cell reads ball membership and the angular classes of the
        image centres with residue and unit_residue on raw values; the first
        candidate lies in an image ball, so both are read."""
        cell = point_cell(ctx3.scalar(0), CosetSpec(ctx3.scalar(1), 1, 1), fiber_var="x")
        result = check_ball_correspondence(parse_term("x^2"), cell, {}, Window(0, 15, 1), 1)
        assert isinstance(result, BallCorrespondence)
        images = [image for _, image in result.pairs]
        sub, differences = PadicScalar.__sub__, []
        monkeypatch.setattr(PadicScalar, "__sub__", lambda x, y: (differences.append((x, y)), sub(x, y))[1])
        fitted = fit_cell(images, [images[3].center, ctx3.scalar(0)], fiber_var="x")
        assert fitted == [result.fitted_image_cell] and len(images) == 16
        assert differences == []


PREPARED = pytest.mark.parametrize(
    "text, p, window, m",
    [
        ("7 * (t - 2) * (t - 11)^2 * (t - 29)^-1", 3, Window(0, 2, 1), 1),
        ("3 * (t - 1/5) * (t - 26)^3 * (t - 1)", 5, Window(-1, 3, 1), 2),
    ],
)


class TestPrepare:
    @PREPARED
    def test_the_sweep_builds_no_scalar_and_no_cell(self, built, monkeypatch, text, p, window, m):
        """A piece is plain data: the sweep builds neither the scalar
        lambda nor the cell, which the piece builds when its cell is read."""
        f = parse_factored(text, PrimeContext(p))
        cells = []
        spy = lambda *args, **kwargs: (cells.append(args), point_cell(*args, **kwargs))[1]
        monkeypatch.setattr(ultralip.prepare, "point_cell", spy)
        pieces = run_counted(built, lambda: prepare(f, window, m))
        assert len(pieces) > 1 and built.new == [] and cells == []
        assert pieces[0].cell is not None and len(cells) == 1

    @PREPARED
    def test_verify_builds_nothing_on_the_sweeps_pieces(self, built, text, p, window, m):
        f = parse_factored(text, PrimeContext(p))
        pieces = prepare(f, window, m)
        for piece in pieces:
            check = run_counted(built, lambda: verify_prepared(f, piece, 3))
            assert check.passed and check.witness is None
            assert built.new == []

    def test_a_ball_holding_a_center_is_scanned_on_raw_values(self, built):
        """The level-0 ball of class 2 around 0 holds the centers 1/2 and
        39367/2 = 1/2 + 3^9 of opposite exponents, closer to each other than
        p^(radius + M) at both depths, so ord f is constant on the
        representatives and the scan reads every one of them.  Only the ball
        is built, at either depth."""
        f = parse_factored("1 * (t - 0) * (t - 1/2) * (t - 39367/2)^-1", PrimeContext(3))
        piece = dataclasses.replace(
            prepare(f, Window(0, 0, 1))[0],
            chosen_center_index=0, level_min=0, level_max=0, residue=2, m=1, exponent=1, h_exponent=0,
        )
        counts = []
        for depth in (2, 4):
            check = run_counted(built, lambda: verify_prepared(f, piece, depth))
            assert not check.passed and check.witness is None
            counts.append(len(built.counted))
        assert counts == [1, 1]
