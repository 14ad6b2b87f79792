"""Per-ball certification of the Jacobian property and ball correspondences.

A univariate map F has the Jacobian property on a ball B when it bijects
B onto another ball, ord(F') is constant and finite on B, and

    ord(F(x) - F(y)) = ord(F') + ord(x - y)   for all x != y in B,

i.e. F is an exact isometry up to the scale p^(-ord F').  Certification
here is exhaustive over the depth-M representatives of B, not symbolic:
certificates carry the depth at which they were verified, and a deeper
violation could in principle exist for non-polynomial terms.

Each check evaluates f once per representative; check_ball_correspondence
tiles each ball from those values as map_ball does, and condition (d) reads
the ball tree of the representatives c + p^r * i from the digits of i.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from .qp_core import INFINITE_ORD, PadicScalar, format_ord
from .regions import Ball, BallRelation, Window, least_ord_break
from .cells import Cell, NoCandidateFits, enumerate_balls, fit_cell
from .terms import EvaluationError, Term, compile_term, differentiate, free_variables

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


def _fiber_variable(f: Term, default: str) -> str:
    """The one variable of f, or default when f has none."""
    names = free_variables(f)
    if len(names) > 1:
        raise ValueError(f"term must be univariate, found variables {names}")
    return names[0] if names else default


def _first_collision(keys: Iterable, points: list) -> Optional[tuple]:
    """(x, y, key) for the first point y whose key an earlier point x has, or
    None.  keys is aligned with points and read lazily, up to y."""
    seen: dict = {}
    for key, y in zip(keys, points):
        if key in seen:
            return seen[key], y, key
        seen[key] = y
    return None


def _distance_break(images, p: int, base: int) -> Optional[tuple]:
    """Least (i, j) with ord(images[i] - images[j]) != base + ord(i - j), or None.

    images[i] is the image of the representative c + p^r * i of a ball, for
    i in [0, p^M).  The class q mod p^k, k < M, of the digit tree has the
    children q + c * p^k, 0 <= c < p, which are also their first members.
    The identity holds on all pairs exactly when in every class these have
    pairwise ord exactly base + k: by induction from the leaves, every
    member of a child is then within p^(base+k+1) of its first member.
    Only when the check fails are the classes searched for the least pair.
    """
    n = len(images)
    levels = [k for k in range(n.bit_length()) if p**k < n]  # k < M, as n = p^M
    classes = [(k, range(q, n, p**k)) for k in levels for q in range(p**k)]
    if all(
        (images[a] - images[b]).ord() == base + k
        for k, members in classes
        for a, b in itertools.combinations(members[:p], 2)
    ):
        return None
    found = (
        least_ord_break(
            members, [i % p ** (k + 1) for i in members], [images[i] for i in members], base + k
        )
        for k, members in classes
    )
    return min((pair for pair in found if pair is not None), default=None)


def _tile(reps: list, images: list, depth: int):
    """map_ball from the images of the depth-M representatives of a ball."""
    radius = min((fx - images[0]).ord() for fx in images[1:])
    if radius == INFINITE_ORD:
        return NotABall(
            (reps[0], reps[1]),
            f"f is constant ({images[0]}) on the representatives; the image is a point",
        )
    image_ball = Ball(images[0], radius)
    hit = _first_collision((fx.reduce_mod_power(radius + depth).value for fx in images), reps)
    if hit is not None:
        return NotABall(
            hit[:2],
            f"images of {hit[0]} and {hit[1]} collide in one residue class of "
            f"{image_ball}: the image does not tile a ball at depth {depth}",
        )
    return image_ball


def check_jacobian_on_ball(f: Term, ball: Ball, depth: int):
    """Certify the Jacobian property of f on a ball at a given depth.

    Checks, on the canonical depth-M representatives and in this fixed
    order: (c) ord(f') constant and finite, (a) injectivity and that the
    image representatives tile a single ball of the radius forced by the
    derivative valuation, (d) the distance identity on all pairs.  (d) is
    decided level by level on the ball tree of the representatives, in
    about p/2 comparisons per representative (see _distance_break); a
    violation names the least pair an all-pairs scan would report.
    Returns a JacobianCertificate or the first JacobianViolation found.
    """
    if depth < 1:
        raise ValueError("certification depth must be >= 1")
    var = _fiber_variable(f, "t")
    ctx = ball.context
    deriv_at = compile_term(differentiate(f, var), ctx)
    reps = ball.representatives(depth)

    # (c) constant, finite derivative valuation
    ords = [deriv_at({var: x}).ord() for x in reps]
    for x, o in zip(reps, ords):
        if o != ords[0]:
            return JacobianViolation(
                ViolationKind.C_JAC_ORD_VARIES,
                (reps[0], x),
                f"ord(f') is {format_ord(ords[0])} at {reps[0]} but {format_ord(o)} at {x}",
            )
    jac_ord = ords[0]
    if jac_ord == INFINITE_ORD:
        return JacobianViolation(
            ViolationKind.C_JAC_ORD_VARIES,
            (reps[0],),
            f"ord(f') is {format_ord(jac_ord)} (derivative vanishes) at {reps[0]}",
        )

    # (a) injectivity and image tiling at the forced radius
    f_at = compile_term(f, ctx)
    images = [f_at({var: x}) for x in reps]
    hit = _first_collision((fx.value for fx in images), reps)
    if hit is not None:
        return JacobianViolation(
            ViolationKind.A_NOT_INJECTIVE, hit[:2], "f({}) = f({}) = {}".format(*hit)
        )
    image_radius = jac_ord + ball.radius_ord
    image_ball = Ball(images[0], image_radius)
    outside = next((n for n, fx in enumerate(images) if not image_ball.contains(fx)), None)
    keys = (fx.reduce_mod_power(image_radius + depth).value for fx in images[:outside])
    hit = _first_collision(keys, reps)
    if hit is not None:
        return JacobianViolation(
            ViolationKind.A_IMAGE_NOT_BALL,
            hit[:2],
            f"f({hit[0]}) and f({hit[1]}) collide in one residue class "
            f"of {image_ball}; the image cannot tile the ball",
        )
    if outside is not None:
        return JacobianViolation(
            ViolationKind.A_IMAGE_NOT_BALL,
            (reps[0], reps[outside]),
            f"f({reps[outside]}) = {images[outside]} falls outside {image_ball}",
        )

    # (d) the exact distance identity on all representative pairs
    broken = _distance_break(images, ctx.p, image_radius)
    if broken is not None:
        i, j = broken
        lhs = (images[i] - images[j]).ord()
        rhs = (reps[i] - reps[j]).ord() + jac_ord
        return JacobianViolation(
            ViolationKind.D_DISTANCE_MISMATCH,
            (reps[i], reps[j]),
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
    var = _fiber_variable(f, "t")
    reps = ball.representatives(depth)
    f_at = compile_term(f, ball.context)
    return _tile(reps, [f_at({var: x}) for x in reps], depth)


def check_ball_correspondence(
    f: Term,
    cell: Cell,
    y: Optional[Mapping],
    window: Window,
    depth: int,
    extra_candidates: Iterable[PadicScalar] = (),
):
    """Map every ball of a cell above y and fit the images into one cell.

    f must be injective on the enumerated representatives of the fiber
    (checked, failure reported); every ball image must be a ball; images
    must be pairwise disjoint; the images are then fitted around candidate
    centers (f at the cell center when defined, 0, and caller extras).
    Success returns the ball pairing and the fitted image cell.
    """
    y = y or {}
    var = _fiber_variable(f, cell.fiber_var)
    ctx = cell.context
    source_balls = enumerate_balls(cell, y, window)
    if not source_balls:
        return CorrespondenceFailure(
            "no_balls_in_window", (), f"the cell has no balls with level in {window}"
        )

    f_at = compile_term(f, ctx)
    points = [x for ball in source_balls for x in ball.representatives(depth)]
    # the collision check runs f lazily, up to the first repeated value, and
    # tee keeps the values it read for the tiling
    checked, kept = itertools.tee(f_at({var: x}) for x in points)
    hit = _first_collision((fx.value for fx in checked), points)
    if hit is not None:
        return CorrespondenceFailure("not_injective", hit[:2], "f({}) = f({}) = {}".format(*hit))

    values = list(kept)
    images = []
    size = ctx.p**depth
    for n, ball in enumerate(source_balls):
        result = _tile(points[n * size : (n + 1) * size], values[n * size : (n + 1) * size], depth)
        if isinstance(result, NotABall):
            return CorrespondenceFailure(
                "image_not_ball",
                result.witnesses,
                f"image of {ball} is not a ball: {result.detail}",
            )
        images.append(result)

    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            if images[i].relation(images[j]) is not BallRelation.DISJOINT:
                return CorrespondenceFailure(
                    "images_overlap",
                    (source_balls[i], source_balls[j]),
                    f"images {images[i]} and {images[j]} of {source_balls[i]} "
                    f"and {source_balls[j]} are not disjoint",
                )

    candidates = []
    try:
        c = cell.center_at(y)
        candidates.append(f_at({var: c}))
    except EvaluationError:
        pass
    candidates.append(ctx.scalar(0))
    candidates.extend(extra_candidates)
    try:
        fitted = fit_cell(images, candidates, fiber_var=var)
    except NoCandidateFits as err:
        return CorrespondenceFailure(
            "no_candidate_fits", tuple(err.failures), str(err)
        )
    if len(fitted) != 1:
        return CorrespondenceFailure(
            "image_not_single_cell",
            tuple(fitted),
            f"image balls need {len(fitted)} cells; a single cell was required",
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
