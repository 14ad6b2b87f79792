"""Per-ball certification of the Jacobian property and ball correspondences.

A univariate map F has the Jacobian property on a ball B when it bijects
B onto another ball, ord(F') is constant and finite on B, and

    ord(F(x) - F(y)) = ord(F') + ord(x - y)   for all x != y in B,

i.e. F is an exact isometry up to the scale p^(-ord F').

A polynomial F is first read off its Taylor shift about B = c + p^r Z_p,
g(y) = F(c + p^r y) = sum of b_i y^i (see terms.taylor_shift).  When
b_1 != 0 and ord b_1 < ord b_i for every i >= 2, then for all y != y' in
Z_p

    ord(g(y) - g(y')) = ord b_1 + ord(y - y'),   ord g'(y) = ord b_1,

so F has the Jacobian property on all of B, with jac_ord = ord b_1 - r and
image F(c) + p^(ord b_1) Z_p (Hensel's lemma).  Every condition then holds
on every pair of representatives, so the depth-M check would return the
same certificate, and it is built from the shift alone, labelled with the
depth asked for; the label stays true, as the certificate holds at every
depth.  Every other ball, and every term that is not a polynomial, is
checked exhaustively over the depth-M representatives of B: certificates
carry the depth at which they were verified, and a deeper violation could
in principle exist for non-polynomial terms.

check_ball_correspondence reads its images off the same shifts (see
_shift_image) when f is a polynomial that passes the test on every source
ball and the images are pairwise disjoint: then f is evaluated only at
the cell centre.  Each ball is mapped bijectively onto its image, so no
two representatives share a value and tiling them would give the same
ball.  Every other correspondence, and map_ball always, evaluates f once
per depth-M representative and tiles each ball from those values.  Each
exhaustive check evaluates f once per representative, and condition (d)
reads the ball tree of the representatives that regions.splitting_classes
builds, one least_ord_break per split class across the children that
regions.child_labels numbers.
The per-representative loops, and the search for the least pair that
breaks (d), run over the raw representatives of Ball.representatives and
the raw values of f and f' (see terms.compile_value), with
qp_core.valuation and qp_core.residue; a PadicScalar is built only for
what leaves a check: witnesses, image centres and ball centres.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .qp_core import (
    INFINITE_ORD,
    PadicScalar,
    PrimeContext,
    format_ord,
    residue,
    valuation,
)
from .regions import Ball, Window, child_labels, least_ord_break, splitting_classes
from .cells import BallsOverlap, Cell, NoCandidateFits, enumerate_balls, fit_cell
from .syntax import Term, fiber_variable
from .terms import EvaluationError, compile_value, differentiate, polynomial, taylor_shift

__all__ = [
    "ViolationKind",
    "JacobianCertificate",
    "JacobianViolation",
    "NotABall",
    "BallCorrespondence",
    "CorrespondenceFailure",
    "CertificateCheck",
    "check_jacobian_on_ball",
    "map_ball",
    "check_ball_correspondence",
    "verify_certificate",
]


class ViolationKind(enum.Enum):
    C_JAC_ORD_VARIES = "c_jac_ord_varies"
    A_NOT_INJECTIVE = "a_not_injective"
    A_IMAGE_NOT_BALL = "a_image_not_ball"
    D_DISTANCE_MISMATCH = "d_distance_mismatch"


@dataclass(frozen=True)
class JacobianCertificate:
    """Evidence that f has the Jacobian property on a ball, checked at a depth.

    The image radius is forced: radius_ord(image) = jac_ord + radius_ord(ball).
    """

    ball: Ball
    image: Ball
    jac_ord: int
    verified_depth: int

    def as_json_dict(self) -> dict:
        return {
            "ball": {"center": str(self.ball.center), "radius_ord": self.ball.radius_ord},
            "image": {"center": str(self.image.center), "radius_ord": self.image.radius_ord},
            "jac_ord": self.jac_ord,
            "depth": self.verified_depth,
        }


@dataclass(frozen=True)
class JacobianViolation:
    """A concrete counterexample to one of the certification conditions.

    The witness points re-check to the violation by direct evaluation.
    """

    failed_condition: ViolationKind
    witness: tuple  # one or two PadicScalar points
    detail: str

    def as_json_dict(self) -> dict:
        return {
            "violation": self.failed_condition.value,
            "witness": [str(w) for w in self.witness],
            "detail": self.detail,
        }


@dataclass(frozen=True)
class NotABall:
    """Image representatives do not tile a single ball; witnesses span the gap."""

    witnesses: tuple
    detail: str


@dataclass(frozen=True)
class BallCorrespondence:
    """Source balls of a cell paired with their image balls under f.

    The image balls are exactly the balls of the fitted image cell over
    the scanned window.  depth records the verification granularity.
    """

    pairs: tuple  # of (Ball, Ball)
    fitted_image_cell: Cell
    depth: int


@dataclass(frozen=True)
class CorrespondenceFailure:
    """A negative outcome of the correspondence, or of the certified cell
    constant built on it; the witnesses re-check it."""

    kind: str  # not_injective | image_not_ball | images_overlap |
    #            no_candidate_fits | image_not_single_cell | no_balls_in_window,
    #            or one of the four kinds of lipschitz.certified_cell_constant
    witnesses: tuple
    detail: str


@dataclass(frozen=True)
class CertificateCheck:
    passed: bool
    detail: str


def _first_collision(keys: Iterable, points: list) -> Optional[tuple]:
    """(x, y, key) for the first point y whose key an earlier point x has, or
    None.  keys is aligned with points and read lazily, up to y; the points
    and keys are raw values."""
    seen: dict = {}
    for key, y in zip(keys, points):
        if key in seen:
            return seen[key], y, key
        seen[key] = y
    return None


def _distance_break(reps: list, images: list, jac_ord: int, p: int) -> Optional[tuple]:
    """Least (i, j) with ord(images[i] - images[j]) != jac_ord +
    ord(reps[i] - reps[j]), or None; reps and images are raw values.

    Every pair lies across exactly one split class of the ball tree of reps,
    whose level is ord(reps[i] - reps[j]) (regions.splitting_classes), so
    each class is searched for its least pair across two children whose
    images are not at ord level + jac_ord (regions.least_ord_break, with the
    members labelled by their children through regions.child_labels).
    """
    found = (
        least_ord_break(
            members, child_labels(members, children), [images[i] for i in members], level + jac_ord, p
        )
        for level, members, children in splitting_classes(reps, p)
    )
    return min((pair for pair in found if pair is not None), default=None)


def _scalars(points, ctx: PrimeContext) -> tuple:
    """Raw witness points as scalars of ctx."""
    return tuple(PadicScalar(x, ctx) for x in points)


def _tile(reps: list, images: list, depth: int, ctx: PrimeContext):
    """map_ball from the raw values of f at the raw depth-M representatives
    of a ball."""
    p, first = ctx.p, images[0]
    radius = min(valuation(fx - first, p) for fx in images[1:])
    if radius == INFINITE_ORD:
        return NotABall(
            _scalars(reps[:2], ctx),
            f"f is constant ({first}) on the representatives; the image is a point",
        )
    image_ball = Ball(PadicScalar(first, ctx), radius)
    hit = _first_collision((residue(fx, radius + depth, p) for fx in images), reps)
    if hit is not None:
        return NotABall(
            _scalars(hit[:2], ctx),
            f"images of {hit[0]} and {hit[1]} collide in one residue class of "
            f"{image_ball}: the image does not tile a ball at depth {depth}",
        )
    return image_ball


def check_jacobian_on_ball(f: Term, ball: Ball, depth: int):
    """Certify the Jacobian property of f on a ball at a given depth.

    A polynomial that passes the Taylor-shift test (see the module
    docstring) is certified from its shift alone.  Every other f is
    checked on the representatives (see _exhaustive_certificate).
    Returns a JacobianCertificate or the first JacobianViolation found.
    """
    if depth < 1:
        raise ValueError("certification depth must be >= 1")
    var = fiber_variable(f, "t")
    image = _shift_image(f, ball)
    if image is not None:
        return JacobianCertificate(ball, image, image.radius_ord - ball.radius_ord, depth)
    return _exhaustive_certificate(f, var, ball, depth)


def _shift_image(f: Term, ball: Ball) -> Optional[Ball]:
    """The image f(c) + p^(ord b_1) Z_p of the ball c + p^r Z_p under f,
    read off the Taylor shift (see the module docstring), or None when f is
    not a polynomial in one variable or fails the test on the ball."""
    poly = polynomial(f)
    if poly is None or poly[0] is None:
        return None
    ctx = ball.context
    b = taylor_shift(poly, ball.center.value, ctx.power(ball.radius_ord))
    lead = valuation(b[1], ctx.p) if len(b) > 1 else INFINITE_ORD
    if lead == INFINITE_ORD or any(valuation(c, ctx.p) <= lead for c in b[2:]):
        return None
    return Ball(PadicScalar(b[0], ctx), lead)


def _exhaustive_certificate(f: Term, var: str, ball: Ball, depth: int):
    """check_jacobian_on_ball on the canonical depth-M representatives.

    Checks, in this fixed order: (c) ord(f') constant and finite, (a)
    injectivity and that the image representatives tile a single ball of
    the radius forced by the derivative valuation, (d) the distance
    identity on all pairs.  (d) is decided class by class on the ball tree
    of the representatives (see _distance_break); a violation names the
    least pair an all-pairs scan would report.
    """
    ctx = ball.context
    p = ctx.p
    deriv_at = compile_value(differentiate(f, var), ctx)
    reps = ball.representatives(depth)

    # (c) constant, finite derivative valuation
    ords = [valuation(deriv_at({var: x}), p) for x in reps]
    for x, o in zip(reps, ords):
        if o != ords[0]:
            return JacobianViolation(
                ViolationKind.C_JAC_ORD_VARIES,
                _scalars((reps[0], x), ctx),
                f"ord(f') is {format_ord(ords[0])} at {reps[0]} but {format_ord(o)} at {x}",
            )
    jac_ord = ords[0]
    if jac_ord == INFINITE_ORD:
        return JacobianViolation(
            ViolationKind.C_JAC_ORD_VARIES,
            _scalars(reps[:1], ctx),
            f"ord(f') is {format_ord(jac_ord)} (derivative vanishes) at {reps[0]}",
        )

    # (a) injectivity and image tiling at the forced radius
    f_at = compile_value(f, ctx)
    images = [f_at({var: x}) for x in reps]
    hit = _first_collision(images, reps)
    if hit is not None:
        return JacobianViolation(
            ViolationKind.A_NOT_INJECTIVE, _scalars(hit[:2], ctx), "f({}) = f({}) = {}".format(*hit)
        )
    image_radius = jac_ord + ball.radius_ord
    first = images[0]
    image_ball = Ball(PadicScalar(first, ctx), image_radius)
    # f(x) lies in the image ball exactly when it is within p^image_radius of
    # f(reps[0]), which the ball holds
    outside = next(
        (n for n, fx in enumerate(images) if valuation(fx - first, p) < image_radius), None
    )
    keys = (residue(fx, image_radius + depth, p) for fx in images[:outside])
    hit = _first_collision(keys, reps)
    if hit is not None:
        return JacobianViolation(
            ViolationKind.A_IMAGE_NOT_BALL,
            _scalars(hit[:2], ctx),
            f"f({hit[0]}) and f({hit[1]}) collide in one residue class "
            f"of {image_ball}; the image cannot tile the ball",
        )
    if outside is not None:
        return JacobianViolation(
            ViolationKind.A_IMAGE_NOT_BALL,
            _scalars((reps[0], reps[outside]), ctx),
            f"f({reps[outside]}) = {images[outside]} falls outside {image_ball}",
        )

    # (d) the exact distance identity on all representative pairs
    broken = _distance_break(reps, images, jac_ord, p)
    if broken is not None:
        i, j = broken
        lhs = valuation(images[i] - images[j], p)
        rhs = valuation(reps[i] - reps[j], p) + jac_ord
        return JacobianViolation(
            ViolationKind.D_DISTANCE_MISMATCH,
            _scalars((reps[i], reps[j]), ctx),
            f"ord(f(x)-f(y)) = {lhs} but ord(f') + ord(x-y) = {rhs} "
            f"for x={reps[i]}, y={reps[j]}",
        )

    return JacobianCertificate(ball, image_ball, jac_ord, depth)


def map_ball(f: Term, ball: Ball, depth: int):
    """Image of a ball under f, verified at depth M by residue tiling.

    If the depth-M image representatives fall in one minimal ball whose
    p^M residue classes they tile exactly, that ball is returned;
    otherwise NotABall carries two source points spanning the obstruction.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    var = fiber_variable(f, "t")
    reps = ball.representatives(depth)
    f_at = compile_value(f, ball.context)
    return _tile(reps, [f_at({var: x}) for x in reps], depth, ball.context)


def _shift_images(f: Term, source_balls: list) -> Optional[list]:
    """The shift image of every source ball (see _shift_image), or None
    from the first ball that fails the test."""
    images = []
    for ball in source_balls:
        image = _shift_image(f, ball)
        if image is None:
            return None
        images.append(image)
    return images


def _tiled_images(f_at, var: str, source_balls: list, depth: int, ctx: PrimeContext):
    """The image of each source ball, tiled from the values of f at the
    depth-M representatives, or the CorrespondenceFailure of the first
    collision across all of them or of the first ball whose image is not
    a ball."""
    points = [x for ball in source_balls for x in ball.representatives(depth)]
    # the collision check runs f lazily, up to the first repeated value, and
    # tee keeps the values it read for the tiling
    checked, kept = itertools.tee(f_at({var: x}) for x in points)
    hit = _first_collision(checked, points)
    if hit is not None:
        return CorrespondenceFailure(
            "not_injective", _scalars(hit[:2], ctx), "f({}) = f({}) = {}".format(*hit)
        )

    values = list(kept)
    images = []
    size = ctx.p**depth
    for n, ball in enumerate(source_balls):
        result = _tile(
            points[n * size : (n + 1) * size], values[n * size : (n + 1) * size], depth, ctx
        )
        if isinstance(result, NotABall):
            return CorrespondenceFailure(
                "image_not_ball",
                result.witnesses,
                f"image of {ball} is not a ball: {result.detail}",
            )
        images.append(result)
    return images


def check_ball_correspondence(
    f: Term,
    cell: Cell,
    y: Optional[Mapping],
    window: Window,
    depth: int,
    extra_candidates: Iterable[PadicScalar] = (),
):
    """Map every ball of a cell above y and fit the images into one cell.

    When f is a polynomial that passes the Taylor-shift test on every
    source ball and the shift images are pairwise disjoint, the images are
    read off the shifts and f is evaluated only at the cell center.  f
    then bijects each ball onto its image, so the depth-M route below
    would find no collision and tile each ball onto the same image.
    fit_cell's overlap scan is the one that tells: when two shift images
    overlap, f is not injective on the balls, and the depth-M route runs
    to report its least collision, or the same overlap when there is none.

    Otherwise f is evaluated once per depth-M representative of the
    balls: it must be injective on them (checked, failure reported), and
    every ball image must be a ball.  Either way the images are then
    fitted around candidate centers (f at the cell center when defined,
    0, and caller extras), and fit_cell reports the first pair of images
    that are not disjoint.
    Success returns the ball pairing and the fitted image cell.  Only the
    window's levels are read; the representative depth is `depth`.
    """
    y = y or {}
    var = fiber_variable(f, cell.fiber_var)
    ctx = cell.context
    source_balls = enumerate_balls(cell, y, window)
    if not source_balls:
        return CorrespondenceFailure(
            "no_balls_in_window", (),
            f"the cell has no balls with level in [{window.v_min},{window.v_max}]",
        )
    if depth < 1:
        raise ValueError("representative depth must be >= 1")

    f_at = compile_value(f, ctx)
    shifted = _shift_images(f, source_balls)
    images = shifted or _tiled_images(f_at, var, source_balls, depth, ctx)
    if isinstance(images, CorrespondenceFailure):
        return images

    candidates = []
    try:
        c = cell.center_at(y)
        candidates.append(PadicScalar(f_at({var: c.value}), ctx))
    except EvaluationError:
        pass
    candidates.append(ctx.scalar(0))
    candidates.extend(extra_candidates)
    try:
        fitted = fit_cell(images, candidates, fiber_var=var)
    except BallsOverlap as err:
        if images is shifted:
            # f is not injective on the balls: the tiled route reports the
            # least collision, and tiles the same images when there is none
            tiled = _tiled_images(f_at, var, source_balls, depth, ctx)
            if isinstance(tiled, CorrespondenceFailure):
                return tiled
        i, j = err.pair
        return CorrespondenceFailure(
            "images_overlap",
            (source_balls[i], source_balls[j]),
            f"images {images[i]} and {images[j]} of {source_balls[i]} "
            f"and {source_balls[j]} are not disjoint",
        )
    except NoCandidateFits as err:
        return CorrespondenceFailure(
            "no_candidate_fits", tuple(err.failures), str(err)
        )
    if len(fitted) != 1:
        return CorrespondenceFailure(
            "image_not_single_cell",
            tuple(fitted),
            f"image balls fit into {len(fitted)} cells, not one; a single cell was required",
        )
    return BallCorrespondence(tuple(zip(source_balls, images)), fitted[0], depth)


def verify_certificate(f: Term, certificate: JacobianCertificate) -> CertificateCheck:
    """Re-check a certificate against a fresh certification run.

    Detects any tampering with jac_ord or the image ball: the image radius
    law radius(image) = jac_ord + radius(ball) is checked structurally and
    the certification is re-run at the recorded depth.
    """
    expected = certificate.jac_ord + certificate.ball.radius_ord
    if certificate.image.radius_ord != expected:
        return CertificateCheck(
            False,
            f"image radius law broken: radius_ord(image) = "
            f"{certificate.image.radius_ord} but jac_ord + radius_ord(ball) = {expected}",
        )
    result = check_jacobian_on_ball(f, certificate.ball, certificate.verified_depth)
    if isinstance(result, JacobianViolation):
        return CertificateCheck(
            False, f"re-certification found a violation: {result.detail}"
        )
    if result.jac_ord != certificate.jac_ord:
        return CertificateCheck(
            False,
            f"stored jac_ord {certificate.jac_ord} disagrees with recomputed "
            f"{result.jac_ord} (witness: any representative pair of {certificate.ball})",
        )
    if result.image != certificate.image:
        return CertificateCheck(
            False,
            f"stored image {certificate.image} disagrees with recomputed {result.image}",
        )
    return CertificateCheck(True, "certificate reproduced exactly")
