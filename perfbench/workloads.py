"""The seeded workloads of the ultralip benchmark.

A workload turns a seed into a corpus: an ordered list of analyses, each
one library call (or one CLI command) together with an independent check
of its verdict.  Raw inputs -- coefficient lists, windows, balls, factored
terms, command lines -- are drawn from ``random.Random(f"{name}:{seed}")``
and reach the library only as formatted text or as its own value types.

Size mixes are fixed tables, not seeded: every seed runs the same
distribution of work, so percentiles do not fall into the gap between two
size classes.  Only coefficients, centres and constants vary with the seed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import shlex
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import oracle as O

MODULES = ("qp_core", "regions", "terms", "cells", "jacobian", "lipschitz", "prepare", "cli")


@dataclass(frozen=True)
class Lib:
    """The library's modules, imported from the checkout under test."""

    qp_core: object
    regions: object
    terms: object
    cells: object
    jacobian: object
    lipschitz: object
    prepare: object
    cli: object


@dataclass
class Analysis:
    """One timed unit of work and the independent check of its verdict.

    ``check`` returns None when the verdict is right, else a message.  It
    derives the expected verdict itself, when it is called, so that the
    oracle's work stays out of set-up.
    """

    kind: str
    call: Callable[[], object]
    canon: Callable[[object], str]
    check: Callable[[object], Optional[str]]


@dataclass(frozen=True)
class Refusal:
    """An analysis the library declined with an evaluation error."""

    error: str


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def is_refusal(canonical: str) -> bool:
    """Whether a canonical output is that of a Refusal."""
    return canonical.startswith('{"refused":')


def _values(xs) -> list:
    return [x.value for x in xs]


def _tuple_values(pt):
    return tuple(v.value for v in pt) if isinstance(pt, tuple) else pt.value


def _poly(rng: random.Random, degree: int, bound: int = 30) -> list:
    """Nonzero integer coefficients, so every draw of a degree has the same
    term size and evaluation cost."""
    return [rng.choice([-1, 1]) * rng.randint(1, bound) for _ in range(degree + 1)]


def _unit(rng: random.Random, p: int, bound: int = 20) -> int:
    while True:
        u = rng.randint(1, bound) * rng.choice([-1, 1])
        if u % p:
            return u


def _mul_poly(a: list, b: list) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _add_poly(a: list, b: list) -> list:
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]


# ---------------------------------------------------------------------------
# library, scan part: empirical Lipschitz scans, the local check and exloc


REGIONS = {
    "all": lambda p, v_min: O.region_all(),
    "coset": lambda p, v_min: O.region_coset("x", p, 1),
    "le1": lambda p, v_min: O.region_norm_le("x", p, v_min + 1),
    "even": lambda p, v_min: O.region_ord_congruence("x", p, 2, 0),
}

# (family, p, v_min, v_max, depth, region): N = points kept after the region.
# The table is fixed, so every seed runs the same size mix.  N climbs
# geometrically from 18 to 216 in steps of about 6% (12% in time, since a
# scan is quadratic), with no plateau and no gap: a slow or fast spell of
# the machine then moves the median and p90 smoothly instead of flipping
# them between two size classes.  Rational slots are the smallest, so a
# refused scan (a pole on a representative) moves neither percentile.
SCAN_SLOTS = (
    ("local_gated", 3, 0, 2, 3, "all"),  # |f'| = p: skipped at the gate
    ("local_gated", 5, 0, 2, 3, "all"),
    ("rational", 3, 1, 3, 2, "all"),  # 18
    ("rational", 5, 0, 0, 2, "all"),  # 20
    ("rational", 5, 1, 1, 2, "all"),  # 20
    ("rational", 5, 1, 2, 2, "le1"),  # 20 of 40
    ("piecewise", 3, 1, 4, 2, "all"),  # 24
    ("poly", 3, 0, 3, 2, "all"),  # 24
    ("poly", 5, 1, 1, 3, "coset"),  # 25 of 100
    ("poly", 3, 0, 2, 3, "coset"),  # 27 of 54
    ("normval", 3, 0, 0, 4, "coset"),  # 27 of 54
    ("exloc", 3, 0, 4, 2, "all"),  # 30
    ("piecewise", 3, 1, 5, 2, "all"),  # 30
    ("local", 3, 0, 2, 3, "all"),  # 54 in 6 balls: every same-ball pair checked
    ("poly", 3, 0, 1, 3, "all"),  # 36
    ("bivariate", 3, 0, 2, 1, "all"),  # 6^2 = 36
    ("poly", 3, 0, 5, 2, "all"),  # 36
    ("normval", 5, 0, 1, 2, "all"),  # 40
    ("poly", 5, 1, 2, 2, "all"),  # 40
    ("piecewise", 3, 1, 5, 3, "coset"),  # 45 of 90
    ("poly", 3, 0, 4, 3, "coset"),  # 45 of 90
    ("poly", 5, 0, 1, 3, "coset"),  # 50 of 200
    ("poly", 3, 1, 3, 3, "all"),  # 54
    ("normval", 3, 0, 0, 4, "all"),  # 54
    ("poly", 5, 0, 2, 2, "all"),  # 60
    ("bivariate", 5, 0, 1, 1, "all"),  # 8^2 = 64
    ("poly", 3, 0, 3, 3, "all"),  # 72
    ("poly", 3, 1, 4, 3, "all"),  # 72
    ("poly", 5, 1, 3, 3, "coset"),  # 75 of 300
    ("exloc", 5, 0, 3, 2, "all"),  # 80
    ("poly", 3, 1, 3, 4, "coset"),  # 81 of 162
    ("piecewise", 3, 0, 4, 3, "all"),  # 90
    ("poly", 3, 1, 5, 3, "all"),  # 90
    ("local", 5, 0, 2, 3, "all"),  # 300 in 12 balls
    ("bivariate", 3, 0, 4, 1, "all"),  # 10^2 = 100
    ("poly", 5, 0, 0, 3, "all"),  # 100
    ("normval", 3, 1, 6, 3, "all"),  # 108
    ("poly", 5, 0, 5, 2, "all"),  # 120
    ("piecewise", 5, 0, 4, 3, "coset"),  # 125 of 500
    ("poly", 3, 1, 5, 4, "coset"),  # 135 of 270
    ("poly", 3, 0, 4, 4, "coset"),  # 135 of 270
    ("bivariate", 3, 0, 1, 2, "all"),  # 12^2 = 144
    ("normval", 5, 1, 6, 3, "coset"),  # 150 of 600
    ("poly", 3, 0, 2, 4, "all"),  # 162
    ("poly", 5, 0, 6, 3, "coset"),  # 175 of 700
    ("piecewise", 3, 0, 6, 4, "coset"),  # 189 of 378
    ("poly", 5, 0, 1, 3, "all"),  # 200
    ("normval", 3, 1, 4, 4, "all"),  # 216
)


def _scan_function(rng: random.Random, family: str, p: int):
    """(source text, parser name, independent evaluator) for one scan slot.

    The evaluator raises ZeroDivisionError at a pole.
    """
    if family == "poly":
        coeffs = _poly(rng, 3)
        return O.format_poly(coeffs), "term", lambda x: O.horner(coeffs, x)
    if family == "rational":
        # poles fall wherever the draw puts them, representatives included
        num = _poly(rng, 2)
        den = [rng.randint(-30, 30) or 1, 1]
        text = f"({O.format_poly(num)})/({O.format_poly(den)})"
        return text, "term", lambda x: Fraction(O.horner(num, x)) / O.horner(den, x)
    if family == "normval":
        a = _unit(rng, p)
        coeffs = _poly(rng, 2)
        text = f"{a}*normval(x) + ({O.format_poly(coeffs)})"
        return text, "term", lambda x: a * Fraction(p) ** -O.vp(x, p) + O.horner(coeffs, x)
    if family == "piecewise":
        even = _poly(rng, 3)
        odd = _poly(rng, 2)
        text = (
            f"piecewise(x) {{ ord(x) % 2 = 0 -> {O.format_poly(even)} ; "
            f"ord(x) % 2 = 1 -> {O.format_poly(odd)} }}"
        )
        return text, "any", lambda x: O.horner(even if O.vp(x, p) % 2 == 0 else odd, x)
    if family == "bivariate":
        mono = {(i, j): rng.choice([-1, 1]) * rng.randint(1, 20) for i in range(3) for j in range(3) if 0 < i + j <= 3}
        return O.format_poly2(mono), "term", lambda pt: O.eval_poly2(mono, *pt)
    raise ValueError(family)


def _scan_analysis(lib: Lib, rng: random.Random, slot) -> Analysis:
    family, p, v_min, v_max, depth, region_name = slot
    ctx = lib.qp_core.PrimeContext(p)
    window = lib.regions.Window(v_min, v_max, depth)
    if family in ("local", "local_gated"):
        return _local_analysis(lib, rng, ctx, window, family == "local_gated")
    if family == "exloc":
        return _exloc_analysis(lib, ctx, window)

    text, grammar, value_of = _scan_function(rng, family, p)
    f = lib.terms.parse(text) if grammar == "any" else lib.terms.parse_term(text)
    region = REGIONS[region_name](p, v_min)
    cond = lib.terms.parse_condition(region.text)

    def call():
        try:
            return lib.lipschitz.empirical_lipschitz(f, cond, window, ctx)
        except lib.terms.EvaluationError as err:
            return Refusal(type(err).__name__)

    def canon(report):
        if isinstance(report, Refusal):
            return dumps({"refused": report.error})
        return dumps(report.as_json_dict())

    def check(report):
        axis = O.window_points(p, v_min, v_max, depth)
        candidates = axis if family != "bivariate" else list(itertools.product(axis, repeat=2))
        points = [pt for pt in candidates if region.test(pt)]
        defined, values = [], []
        for pt in points:
            try:
                values.append(value_of(pt))
            except ZeroDivisionError:
                continue
            defined.append(pt)
        pole = len(defined) < len(points)
        if isinstance(report, Refusal):
            return None if pole and report.error == "DivisionByZero" else f"{text}: refused ({report.error})"
        best, witness = O.scan_oracle(defined, values, p)
        if report.depth != depth or report.constant_exponent != best:
            return f"{text}: C exponent {report.constant_exponent}, expected {best}"
        got = None if report.witness is None else tuple(_tuple_values(w) for w in report.witness)
        if got != witness:
            return f"{text}: witness {got}, expected {witness}"
        if witness is not None:
            x, y = witness
            if O.ratio_exponent(value_of(x), value_of(y), x, y, p) != best:
                return f"{text}: witness ratio does not re-derive"
        return None

    return Analysis(f"scan.{family}", call, canon, check)


def _local_analysis(lib: Lib, rng: random.Random, ctx, window, gated: bool) -> Analysis:
    """Criterion-8 style: integer coefficients keep |f'| <= 1; a c/p linear
    coefficient makes |f'| = p so the gate skips the check."""
    p = ctx.p
    coeffs = [Fraction(c) for c in _poly(rng, 3)]
    if gated:
        coeffs[1] = Fraction(_unit(rng, p), p)
    text = O.format_poly(coeffs, "t")
    f = lib.terms.parse_term(text)
    true = lib.terms.parse_condition("true")
    pts = O.window_points(p, window.v_min, window.v_max, window.depth)

    def expected():
        dcoeffs = O.derivative(coeffs)
        for x in pts:
            e = O.vp(O.horner(dcoeffs, x), p)
            if e is not None and e < 0:
                return "skipped", (x,)
        groups: dict = {}
        for x in pts:
            groups.setdefault((O.vp(x, p), O.ac(x, p, 1)), []).append(x)
        for group in groups.values():
            for x, y in itertools.combinations(group, 2):
                d = O.vp(O.horner(coeffs, x) - O.horner(coeffs, y), p)
                if d is not None and d < O.vp(x - y, p):
                    return "failed", (x, y)
        return "passed", None

    def call():
        return lib.lipschitz.check_bounded_derivative_local_lipschitz(f, true, window, ctx)

    def canon(out):
        witness = None if out.witness is None else [str(w) for w in out.witness]
        return dumps({"status": out.status, "witness": witness, "detail": out.detail})

    def check(out):
        status, witness = expected()
        got = None if out.witness is None else tuple(_values(out.witness))
        if (out.status, got) != (status, witness):
            return f"{text}: {out.status} {got}, expected {status} {witness}"
        return None

    return Analysis("scan.local", call, canon, check)


def _exloc_analysis(lib: Lib, ctx, window) -> Analysis:
    p = ctx.p

    def call():
        return lib.lipschitz.counterexample_exloc(window, ctx)

    def canon(trace):
        return dumps(trace.as_json_dict())

    def check(trace):
        levels = [e.level for e in trace.entries]
        if levels != list(range(window.v_min + 1, window.v_max + 1)):
            return f"exloc levels {levels}"
        for e in trace.entries:
            x1, x2 = _values(e.witness)
            f1, f2 = Fraction(p) ** -O.vp(x1, p), Fraction(p) ** -O.vp(x2, p)
            # |f(x1) - f(x2)| = |x2|^-1 and |x1 - x2| = |x1|
            if -O.vp(f1 - f2, p) != O.vp(x2, p) or O.vp(x1 - x2, p) != O.vp(x1, p):
                return f"exloc pair identities fail at level {e.level}"
            if not e.ratio_exponent == 2 * e.level - 1 == O.ratio_exponent(f1, f2, x1, x2, p):
                return f"exloc ratio at level {e.level}"
        return None

    return Analysis("scan.exloc", call, canon, check)


def scan_corpus(lib: Lib, seed: int) -> list:
    rng = random.Random(f"scan:{seed}")
    return [_scan_analysis(lib, rng, slot) for slot in SCAN_SLOTS]


# ---------------------------------------------------------------------------
# library, certify part: Jacobian certificates, ball images, cell
# constants, re-verification

# (kind, p, depth[, levels]), in rising cost (measured on a 2-core x86 VM:
# from 0.6 ms to about 90 ms).  Violations, map_ball and a tampered radius
# cost at most linear time in p^M; certificates, honest re-verification and
# a consistently tampered certificate cost quadratic time; a cell constant
# certifies one ball per level.  M runs from 2 to 6 so that the costs form
# a ladder without gaps around the median and p90.
CERTIFY_SLOTS = (
    ("tampered_radius", 3, 3),
    ("tampered_radius", 5, 3),
    ("map_ball", 2, 4),
    ("jac_varies", 2, 4),
    ("map_ball", 3, 3),
    ("cert", 2, 3),
    ("verify", 3, 2),
    ("jac_varies", 3, 3),
    ("jac_varies", 2, 5),
    ("map_ball", 2, 5),
    ("not_injective", 2, 4),
    ("not_injective", 2, 5),
    ("map_ball", 3, 4),
    ("cert", 2, 4),
    ("not_injective", 3, 3),
    ("jac_varies", 3, 4),
    ("jac_varies", 5, 3),
    ("tampered_jac", 5, 2),
    ("map_ball", 5, 3),
    ("cert", 3, 3),
    ("verify", 3, 3),
    ("cert", 2, 5),
    ("tampered_jac", 2, 5),
    ("chain", 2, 4, 1),
    ("verify", 2, 5),
    ("not_injective", 3, 4),
    ("chain", 2, 4, 2),
    ("chain", 2, 4, 3),
    ("not_injective", 5, 3),
    ("chain", 3, 3, 1),
    ("chain", 5, 2, 1),
    ("chain", 2, 4, 4),
    ("chain", 2, 5, 1),
    ("cert", 2, 6),
    ("chain", 3, 3, 2),
    ("chain", 5, 2, 2),
    ("chain", 3, 3, 3),
    ("cert", 3, 4),
    ("tampered_jac", 3, 4),
    ("chain", 3, 3, 4),
    ("verify", 3, 4),
    ("chain", 2, 5, 3),
    ("chain", 2, 5, 2),
    ("chain", 5, 2, 3),
    ("chain", 2, 6, 1),
    ("chain", 5, 2, 4),
    ("cert", 5, 3),
    ("verify", 5, 3),
    ("chain", 2, 6, 2),
)

_CHAIN_POWER = {2: 3, 3: 2, 5: 2}


def _certifiable(rng: random.Random, p: int):
    """(cubic coeffs, centre, radius 1, jac_ord 0): an integer cubic with
    f'(c) a unit has the Jacobian property on all of c + pZ_p, because
    g(y) = f(c + p y) has ord b_1 = 1 < ord b_i for i >= 2."""
    while True:
        coeffs = _poly(rng, 3, 20)
        c = rng.randint(0, 40)
        if O.vp(O.horner(O.derivative(coeffs), c), p) == 0:
            return coeffs, c, 1, 0


def _ball(lib: Lib, ctx, center, radius: int):
    return lib.regions.Ball(ctx.scalar(center), radius)


def _ball_json(center, radius) -> dict:
    return {"center": str(Fraction(center)), "radius_ord": radius}


def _jacobian_analysis(lib: Lib, rng: random.Random, kind: str, p: int, depth: int) -> Analysis:
    ctx = lib.qp_core.PrimeContext(p)
    if kind == "cert":
        coeffs, c, r, _ = _certifiable(rng, p)
    elif kind == "jac_varies":
        # f'(c) = 0 at a representative c, so ord f' is +inf there only
        r = rng.choice([0, 1])
        c = rng.randint(1, p ** (r + depth) - 1)
        u, w, b = _unit(rng, p), rng.randint(-9, 9), rng.randint(-9, 9)
        shift = [-c, 1]
        sq = _mul_poly(shift, shift)
        coeffs = _add_poly(_add_poly([u * a for a in sq], [w * a for a in _mul_poly(sq, shift)]), [b])
    else:
        # u(x^p - x) + k(x^p - x)^2 + b: ord f' = ord u on Z_p, yet f(0) = f(1)
        r, c = 0, 0
        u, k, b = _unit(rng, p), rng.randint(-9, 9), rng.randint(-9, 9)
        frob = [0, -1] + [0] * (p - 2) + [1]
        coeffs = _add_poly(_add_poly([u * a for a in frob], [k * a for a in _mul_poly(frob, frob)]), [b])
    text = O.format_poly(coeffs)
    f = lib.terms.parse_term(text)
    ball = _ball(lib, ctx, c, r)
    memo = {}

    def call():
        return lib.jacobian.check_jacobian_on_ball(f, ball, depth)

    def canon(result):
        return dumps(result.as_json_dict())

    def check(result):
        if not memo:
            memo.update(O.jacobian_oracle(coeffs, Fraction(c), r, depth, p))
        if memo["kind"] == "certificate":
            got = result.as_json_dict() if isinstance(result, lib.jacobian.JacobianCertificate) else None
            want = {
                "ball": _ball_json(O.canonical_center(Fraction(c), p, r), r),
                "image": _ball_json(memo["image_center"], memo["image_radius"]),
                "jac_ord": memo["jac_ord"],
                "depth": depth,
            }
            return None if got == want else f"{text} on {c}+{p}^{r}: {got}, expected {want}"
        if not isinstance(result, lib.jacobian.JacobianViolation):
            return f"{text} on {c}+{p}^{r}: certified, expected {memo['kind']}"
        got = (result.failed_condition.value, tuple(_values(result.witness)))
        if got != (memo["kind"], memo["witness"]):
            return f"{text} on {c}+{p}^{r}: {got}, expected {memo}"
        return _recheck_violation(coeffs, memo, p)

    return Analysis(f"certify.{'cert' if kind == 'cert' else 'violation'}", call, canon, check)


def _recheck_violation(coeffs, verdict: dict, p: int) -> Optional[str]:
    """The witness of a violation shows it by direct evaluation."""
    w = verdict["witness"]
    if verdict["kind"] == "c_jac_ord_varies":
        d = O.derivative(coeffs)
        ords = [O.vp(O.horner(d, x), p) for x in w]
        ok = (len(w) == 1 and ords[0] is None) or (len(w) == 2 and ords[0] != ords[1])
    elif verdict["kind"] == "a_not_injective":
        ok = O.horner(coeffs, w[0]) == O.horner(coeffs, w[1])
    else:
        ok = True  # tiling and distance witnesses are re-derived by the oracle itself
    return None if ok else f"violation witness {w} does not re-check"


def _map_ball_analysis(lib: Lib, rng: random.Random, p: int, depth: int) -> Analysis:
    ctx = lib.qp_core.PrimeContext(p)
    coeffs = _poly(rng, rng.choice([2, 3]), 20)
    c, r = rng.randint(0, 30), rng.randint(0, 2)
    text = O.format_poly(coeffs)
    f = lib.terms.parse_term(text)
    ball = _ball(lib, ctx, c, r)

    def call():
        return lib.jacobian.map_ball(f, ball, depth)

    def canon(result):
        if isinstance(result, lib.jacobian.NotABall):
            return dumps({"not_a_ball": {"witnesses": [str(w) for w in result.witnesses], "detail": result.detail}})
        return dumps({"image": _ball_json(result.center.value, result.radius_ord)})

    def check(result):
        want = O.map_ball_oracle(coeffs, Fraction(c), r, depth, p)
        if isinstance(result, lib.jacobian.NotABall):
            return None if want["kind"] == "not_a_ball" else f"{text}: not a ball, expected {want}"
        got = {"kind": "ball", "center": result.center.value, "radius": result.radius_ord}
        return None if got == want else f"{text} on {c}+{p}^{r}: {got}, expected {want}"

    return Analysis("certify.map_ball", call, canon, check)


def _verify_analysis(lib: Lib, rng: random.Random, kind: str, p: int, depth: int) -> Analysis:
    """verify_certificate on a certificate built from the oracle: honest,
    with jac_ord off by one (radius law breaks at once), or with jac_ord and
    the image radius both off by one (only re-certification catches it)."""
    ctx = lib.qp_core.PrimeContext(p)
    coeffs, c, r, jac = _certifiable(rng, p)
    centre = O.canonical_center(Fraction(c), p, r)
    image_centre = O.horner(coeffs, centre)
    shift_jac = 0 if kind == "verify" else 1
    shift_radius = 1 if kind == "tampered_jac" else 0
    f = lib.terms.parse_term(O.format_poly(coeffs))
    cert = lib.jacobian.JacobianCertificate(
        _ball(lib, ctx, c, r),
        _ball(lib, ctx, image_centre, jac + r + shift_radius),
        jac + shift_jac,
        depth,
    )

    def call():
        return lib.jacobian.verify_certificate(f, cert)

    def canon(result):
        return dumps({"passed": result.passed, "detail": result.detail})

    def check(result):
        return None if result.passed == (kind == "verify") else f"verify_certificate passed={result.passed} on {kind}"

    return Analysis(f"certify.{kind}", call, canon, check)


def _chain_analysis(lib: Lib, rng: random.Random, p: int, depth: int, levels: int) -> Analysis:
    """check_ball_correspondence + certified_cell_constant for
    f = a x^k + s p^2 x^(k+1) on the cell 1*Q(1,1) around 0, with a a unit
    and k prime to p.

    Ball p^v(1 + pZ_p) maps onto a p^(kv)(1 + pZ_p) with jac_ord (k-1)v, so
    the images fit the single cell a*Q(1,k) around 0 and C = p^0."""
    ctx = lib.qp_core.PrimeContext(p)
    k = _CHAIN_POWER[p]
    a = _unit(rng, p)
    s = rng.randint(-5, 5)
    coeffs = [0] * (k + 2)
    coeffs[k] = a
    coeffs[k + 1] = s * p**2
    text = O.format_poly(coeffs)
    f = lib.terms.parse_term(text)
    cell = lib.cells.parse_cell("cell(center=0; coset=1*Q(1,1); all; var=x)", ctx)
    window = lib.regions.Window(0, levels, 1)

    def call():
        corr = lib.jacobian.check_ball_correspondence(f, cell, {}, window, depth)
        if not isinstance(corr, lib.jacobian.BallCorrespondence):
            return corr
        return corr, lib.lipschitz.certified_cell_constant(f, cell, corr, 0)

    def canon(result):
        if not isinstance(result, tuple):
            return dumps({"failure": result.kind, "detail": result.detail})
        corr, report = result
        return dumps(
            {
                "pairs": [[_ball_json(b.center.value, b.radius_ord), _ball_json(i.center.value, i.radius_ord)] for b, i in corr.pairs],
                "image_cell": lib.cells.format_cell(corr.fitted_image_cell),
                "report": report.as_json_dict(),
            }
        )

    def check(result):
        if not isinstance(result, tuple):
            return f"{text}: correspondence failed ({result.kind})"
        corr, report = result
        want = O.expected_pairs(coeffs, p, levels, k)
        got = [((b.center.value, b.radius_ord), (i.center.value, i.radius_ord)) for b, i in corr.pairs]
        if got != want:
            return f"{text}: pairs {got}, expected {want}"
        if report.constant_exponent != 0 or report.depth != depth:
            return f"{text}: certified C exponent {report.constant_exponent}, expected 0"
        pts = [x for x in O.window_points(p, 0, levels, depth) if O.ac(x, p, 1) == 1]
        empirical, _ = O.scan_oracle(pts, [O.horner(coeffs, x) for x in pts], p)
        if empirical is not None and empirical > report.constant_exponent:
            return f"{text}: certified C exponent below the empirical {empirical}"
        return None

    return Analysis("certify.chain", call, canon, check)


def certify_corpus(lib: Lib, seed: int) -> list:
    rng = random.Random(f"certify:{seed}")
    out = []
    for slot in CERTIFY_SLOTS:
        kind, p, depth = slot[:3]
        if kind in ("cert", "jac_varies", "not_injective"):
            out.append(_jacobian_analysis(lib, rng, kind, p, depth))
        elif kind == "map_ball":
            out.append(_map_ball_analysis(lib, rng, p, depth))
        elif kind == "chain":
            out.append(_chain_analysis(lib, rng, p, depth, slot[3]))
        else:
            out.append(_verify_analysis(lib, rng, kind, p, depth))
    return out


# ---------------------------------------------------------------------------
# library, prepare part: preparation, its oracle, and cover probes

PREPARE_WINDOW = (-3, 3)
# (p, exponents, ord c_1, ords of c_i - c_1 for i >= 2).  The shape of the
# centre set fixes the number of pieces, and so the work per term; the seed
# draws only the units of the centres and the rational unit of f.
PREPARE_SLOTS = (
    (2, (1,), 0, ()),
    (2, (-1,), -2, ()),
    (2, (2,), 2, ()),
    (2, (3,), 0, ()),
    (2, (1, 1), 0, (1,)),
    (2, (2, -1), -1, (0,)),
    (2, (1, 2), -2, (-1,)),
    (2, (-1, 1), 1, (3,)),
    (2, (1, 1), 0, (2,)),
    (2, (1, 1, 1), 0, (1, 2)),
    (2, (1, -1, 2), -1, (0, 1)),
    (2, (2, 1, 1), 0, (2, 1)),
    (2, (1, 1, 1), 0, (-1, 1)),
    (3, (1,), 0, ()),
    (3, (-1,), -2, ()),
    (3, (2,), 2, ()),
    (3, (3,), 0, ()),
    (3, (1, 1), 0, (1,)),
    (3, (2, -1), -1, (0,)),
    (3, (1, 2), -2, (-1,)),
    (3, (-1, 1), 1, (3,)),
    (3, (1, 1), 0, (2,)),
    (3, (2, -1), 0, (2,)),
    (3, (1, 1, 1), 0, (1, 2)),
    (3, (1, -1, 2), -1, (0, 1)),
    (3, (2, 1, 1), 0, (2, 1)),
    (3, (1, 1, 1), 0, (-1, 1)),
    (5, (1,), 0, ()),
    (5, (-1,), -2, ()),
    (5, (2,), 2, ()),
    (5, (1, 1), 0, (1,)),
    (5, (-1, 1), -1, (0,)),
)


def _random_factored(rng: random.Random, p: int, exponents: tuple, v: int, gaps: tuple):
    """Criterion-6 style: u * prod (t - c_i)^(a_i) with c_1 = w p^v and
    c_i = c_1 + w_i p^(gaps[i-2]); the w are units, u a rational."""
    c1 = _unit(rng, p, 30) * Fraction(p) ** v
    centres = [c1] + [c1 + _unit(rng, p, 30) * Fraction(p) ** g for g in gaps]
    unit = Fraction(rng.randint(1, 50) * rng.choice([-1, 1]), rng.randint(1, 50))
    return unit, list(zip(centres, exponents))


def _piece_data(piece, centres) -> tuple:
    return (centres[piece.chosen_center_index], piece.level_min, piece.level_max, piece.residue, piece.m)


def _prepare_analyses(lib: Lib, rng: random.Random, p: int, exponents: tuple, v: int, gaps: tuple) -> list:
    ctx = lib.qp_core.PrimeContext(p)
    unit, factors = _random_factored(rng, p, exponents, v, gaps)
    text = O.format_factored(unit, factors)
    term = lib.prepare.parse_factored(text, ctx)
    window = lib.regions.Window(*PREPARE_WINDOW, 1)
    centres = [c for c, _ in factors]
    held = {}

    def run_prepare():
        held["pieces"] = lib.prepare.prepare(term, window)
        return held["pieces"]

    def canon_pieces(pieces):
        return dumps(
            [
                [lib.cells.format_cell(pc.cell), pc.chosen_center_index, pc.exponent, pc.h_exponent, pc.level_min, pc.level_max, pc.residue, pc.m]
                for pc in pieces
            ]
        )

    def check_pieces(pieces):
        # ord f(t) = H + e * ord(t - c_j) by direct factor product at sample points
        for pc in pieces:
            c, lo, hi, xi, m = _piece_data(pc, centres)
            top = lo + 2 if hi is None else min(hi, lo + 2)
            for a in range(lo, top + 1):
                for s in (0, 1, p + 1):
                    t = c + (xi + p**m * s) * Fraction(p) ** a
                    got = O.vp(O.factored_value(unit, factors, t), p)
                    if got != pc.h_exponent + pc.exponent * a:
                        return f"{text}: ord f({t}) = {got}, piece predicts {pc.h_exponent} + {pc.exponent}*{a}"
        return None

    def run_verify():
        return [lib.prepare.verify_prepared(term, pc, 3) for pc in held["pieces"]]

    def canon_verify(checks):
        return dumps([[c.passed, None if c.witness is None else str(c.witness), c.detail] for c in checks])

    def check_verify(checks):
        failed = [c.detail for c in checks if not c.passed]
        return f"{text}: verify_prepared failed: {failed[0]}" if failed else check_pieces(held["pieces"])

    probes = sorted(
        {c + x for c in centres for x in O.window_points(p, *PREPARE_WINDOW, 1)}
        | {c + Fraction(p) ** (PREPARE_WINDOW[1] + extra) for c in centres for extra in (1, 2)}
    )
    probe_scalars = [ctx.scalar(t) for t in probes]

    def run_cover():
        pieces = held["pieces"]
        return [[i for i, pc in enumerate(pieces) if lib.prepare.piece_contains(term, pc, t)] for t in probe_scalars]

    def check_cover(hits):
        pieces = [_piece_data(pc, centres) for pc in held["pieces"]]
        for t, got in zip(probes, hits):
            want = [i for i, d in enumerate(pieces) if O.piece_contains_oracle(*d, t, p)]
            if got != want:
                return f"{text}: probe {t} in pieces {got}, expected {want}"
            in_domain = t not in centres and any(
                PREPARE_WINDOW[0] <= (O.vp(t - c, p) or PREPARE_WINDOW[0] - 1) <= PREPARE_WINDOW[1] for c in centres
            )
            if len(got) > 1 or (in_domain and len(got) != 1):
                return f"{text}: probe {t} covered {len(got)} times"
        return None

    return [
        Analysis("prepare.prepare", run_prepare, canon_pieces, check_pieces),
        Analysis("prepare.verify", run_verify, canon_verify, check_verify),
        Analysis("prepare.cover", run_cover, dumps, check_cover),
    ]


def prepare_corpus(lib: Lib, seed: int) -> list:
    rng = random.Random(f"prepare:{seed}")
    out = []
    for slot in PREPARE_SLOTS:
        out.extend(_prepare_analyses(lib, rng, *slot))
    return out


# ---------------------------------------------------------------------------
# tour: the README CLI tour, in process, with --json

README_TOUR = (
    'ord -p 3 "45/2"',
    "ac -p 3 -n 2 45",
    'eval -p 5 -f "(t-1)*t/(t+2)" --at t=3',
    'jacobian -p 3 -f "x^2" --ball "1 + 3^1" -M 3',
    'map-ball -p 3 -f "x^3" --ball "1 + 3^1" -M 2',
    'correspondence -p 3 -f "x^2" --coset "1*Q(1,1)" --var x --window=0:3 -M 3',
    'lipschitz -p 3 -f "normval(t)" --window=0:3 -M 1',
    'certify -p 3 -f "x^2" --coset "1*Q(1,1)" --var x --window=0:3 -M 3',
    'prepare -p 5 -f "1 * (t - 0) * (t - 1)" --window=-2:3 --verify -M 3',
    "example exloc  -p 3 --window=0:4 -M 2",
    "example exloc2 -p 3 --levels 5 --json",
)
NEGATIVE_COMMAND = 'jacobian -p 3 -f "x^2" --ball "0 + 3^1" -M 3'
USAGE_ERROR_COMMAND = 'lipschitz -p 3 -f "x" --window=0-3'


def _tour_analysis(lib: Lib, command: str, rc_expected: int, check_json: Callable) -> Analysis:
    argv = shlex.split(command)
    if "--json" not in argv:
        argv.append("--json")

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = lib.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
        return rc, out.getvalue()

    def canon(result):
        return dumps({"rc": result[0], "stdout": result[1]})

    def check(result):
        rc, stdout = result
        if rc != rc_expected:
            return f"{command}: exit {rc}, README promises {rc_expected}"
        if rc == 2:
            return None if stdout == "" else f"{command}: usage error printed a result"
        problem = check_json(json.loads(stdout))
        return None if problem is None else f"{command}: {problem}"

    return Analysis(f"tour.{argv[0]}", call, canon, check)


def _expect(**fields) -> Callable:
    def check(payload):
        bad = {k: payload.get(k) for k, v in fields.items() if payload.get(k) != v}
        return f"fields {bad}, expected {fields}" if bad else None

    return check


def _eval_fields(value: Fraction, p: int) -> dict:
    v = O.vp(value, p)
    return {
        "value": str(value),
        "ord": "+inf" if v is None else str(v),
        "norm": "0" if v is None else f"{p}^{-v}",
    }


def _certificate_check(coeffs, centre, radius: int, depth: int, p: int) -> Callable:
    def check(payload):
        want = O.jacobian_oracle(coeffs, Fraction(centre), radius, depth, p)
        if want["kind"] != "certificate":
            return f"certified, expected {want['kind']}"
        return _expect(
            ball=_ball_json(O.canonical_center(Fraction(centre), p, radius), radius),
            image=_ball_json(want["image_center"], want["image_radius"]),
            jac_ord=want["jac_ord"],
            depth=depth,
        )(payload)

    return check


def _map_ball_check(coeffs, centre, radius: int, depth: int, p: int) -> Callable:
    def check(payload):
        want = O.map_ball_oracle(coeffs, Fraction(centre), radius, depth, p)
        if want["kind"] != "ball":
            return f"image {payload.get('image')}, expected no ball"
        return _expect(image=_ball_json(want["center"], want["radius"]))(payload)

    return check


def _pairs_check(coeffs, p: int, levels: int, k: int, depth: int, certified: bool) -> Callable:
    def check(payload):
        corr = payload["correspondence"] if certified else payload
        want = [{"source": _ball_json(*source), "image": _ball_json(*image)} for source, image in O.expected_pairs(coeffs, p, levels, k)]
        if corr["pairs"] != want or corr["depth"] != depth:
            return f"pairs {corr['pairs']}, expected {want}"
        if certified and payload["C_exponent"] != 0:
            return f"C exponent {payload['C_exponent']}, expected 0"
        return None

    return check


def _lipschitz_normval_check(payload) -> Optional[str]:
    pts = O.window_points(3, 0, 3, 1)
    best, witness = O.scan_oracle(pts, [Fraction(3) ** -O.vp(x, 3) for x in pts], 3)
    want = {"C_exponent": best, "witness": [str(w) for w in witness]}
    got = {k: payload[k] for k in want}
    return None if got == want else f"{got}, expected {want}"


def _exloc_check(p: int, v_min: int, v_max: int) -> Callable:
    def check(payload):
        want = [{"n": n, "witness": [str(Fraction(p) ** (n - 1)), str(Fraction(p) ** n)], "ratio_exponent": 2 * n - 1} for n in range(v_min + 1, v_max + 1)]
        return None if payload["entries"] == want else f"entries {payload['entries']}, expected {want}"

    return check


def _exloc2_check(p: int, levels: int) -> Callable:
    def check(payload):
        # b_i = p^n on the marked ball, b_j = p^n + p^(3n-1) beside it:
        # |b_i - b_j| = p |b_i^3| and |g(b_i) - g(b_j)| = |b_i^2| give p^(n-1)
        entries = []
        for n in range(1, levels + 1):
            b_i, b_j = Fraction(p) ** n, Fraction(p) ** n + Fraction(p) ** (3 * n - 1)
            gap, spread = -O.vp(b_i - b_j, p), -O.vp(b_i**2, p)
            entries.append({"n": n, "witness": [str(b_i), str(b_j)], "ratio_exponent": spread - gap})
        trace = [{"n": n, "quotient_exponent": -n} for n in range(1, levels + 1)]
        if payload["entries"] != entries or payload["derivative_trace"] != trace:
            return "exloc2 trace differs from the identities"
        return None

    return check


def _region_scan_check(coeffs, p: int) -> Callable:
    def check(payload):
        pts = [x for x in O.window_points(p, 0, 1, 2) if O.ac(x, p, 1) == 1]
        best, witness = O.scan_oracle(pts, [O.horner(coeffs, x) for x in pts], p)
        want = {"C_exponent": best, "witness": None if witness is None else [str(w) for w in witness]}
        got = {k: payload[k] for k in want}
        return None if got == want else f"{got}, expected {want}"

    return check


def _prepare_tour_check(payload) -> Optional[str]:
    if payload.get("verified") is not True or payload.get("verify_depth") != 3:
        return "prepare --verify did not verify"
    return None


def _violation_check(coeffs, centre, radius, depth, p) -> Callable:
    def check(payload):
        want = O.jacobian_oracle(coeffs, Fraction(centre), radius, depth, p)
        got = (payload.get("violation"), tuple(Fraction(w) for w in payload.get("witness", ())))
        return None if got == (want["kind"], want.get("witness")) else f"{got}, expected {want}"

    return check


def _leading_positive(coeffs: list) -> list:
    """-f "-7*x^2" would read as an option, so flip the sign of the whole
    polynomial when its leading coefficient is negative."""
    return [-c for c in coeffs] if coeffs[-1] < 0 else coeffs


def _chain_command(command: str, rng: random.Random, p: int, levels: int, depth: int) -> tuple:
    """A seeded `certify` or `correspondence` command on f = a x^k + s p^2 x^(k+1)
    over the cell 1*Q(1,1), as in the certify part's chains: (command line,
    exit code, check)."""
    k = _CHAIN_POWER[p]
    coeffs = [0] * (k + 2)
    coeffs[k], coeffs[k + 1] = abs(_unit(rng, p)), rng.randint(-5, 5) * p**2
    text = (
        f'{command} -p {p} -f "{O.format_poly(coeffs)}" --coset "1*Q(1,1)" --var x '
        f"--window=0:{levels} -M {depth}"
    )
    return text, 0, _pairs_check(coeffs, p, levels, k, depth, certified=command == "certify")


def _jacobian_command(rng: random.Random, p: int, depth: int) -> tuple:
    """A seeded `jacobian` command on a certifiable cubic: (command line,
    exit code, check)."""
    coeffs, c, r, _ = _certifiable(rng, p)
    coeffs = _leading_positive(coeffs)
    text = f'jacobian -p {p} -f "{O.format_poly(coeffs)}" --ball "{c} + {p}^{r}" -M {depth}'
    return text, 0, _certificate_check(coeffs, c, r, depth, p)


def tour_corpus(lib: Lib, seed: int) -> list:
    rng = random.Random(f"tour:{seed}")
    x2, x3 = [0, 0, 1], [0, 0, 0, 1]
    readme_checks = (
        _expect(ord="2"),
        _expect(modulus=9, residue=5),
        _expect(**_eval_fields(Fraction(2 * 3, 5), 5)),
        _certificate_check(x2, 1, 1, 3, 3),
        _map_ball_check(x3, 1, 1, 2, 3),
        _pairs_check(x2, 3, 3, 2, 3, certified=False),
        _lipschitz_normval_check,
        _pairs_check(x2, 3, 3, 2, 3, certified=True),
        _prepare_tour_check,
        _exloc_check(3, 0, 4),
        _exloc2_check(3, 5),
    )
    commands = list(zip(README_TOUR, [0] * len(README_TOUR), readme_checks))
    commands.append((NEGATIVE_COMMAND, 1, _violation_check(x2, 0, 1, 3, 3)))
    commands.append((USAGE_ERROR_COMMAND, 2, None))
    # one-liners: their cost is argparse and parsing, not analysis.  Primes,
    # degrees and windows are fixed, so their costs do not move with the
    # seed; the seed draws the numbers.
    balls = [_ball_json(Fraction(5) ** v, v + 1) for v in range(4)]
    commands.append(('enumerate-balls -p 5 --coset "1*Q(1,1)" --window=0:3', 0, _expect(balls=balls)))
    commands.append(("example exloc -p 2 --window=0:3 -M 2", 0, _exloc_check(2, 0, 3)))
    coeffs = _leading_positive(_poly(rng, 2, 9))
    commands.append(
        (
            f'lipschitz -p 3 -f "{O.format_poly(coeffs)}" --region "x in 1*Q(1,1)" --window=0:1 -M 2',
            0,
            _region_scan_check(coeffs, 3),
        )
    )
    for p, degree in ((2, 2), (3, 3), (7, 3)):
        value = abs(_unit(rng, p, 999)) * Fraction(p) ** rng.randint(-3, 3) / rng.randint(1, 99)
        commands.append((f'ord -p {p} "{value}"', 0, _expect(ord=str(O.vp(value, p)))))
        n = rng.randint(1, 3)
        commands.append((f"ac -p {p} -n {n} {value}", 0, _expect(modulus=p**n, residue=O.ac(value, p, n))))
        coeffs = _leading_positive(_poly(rng, degree, 9))
        at = Fraction(rng.randint(1, 50), rng.randint(1, 9))
        commands.append(
            (
                f'eval -p {p} -f "{O.format_poly(coeffs, "t")}" --at t={at}',
                0,
                _expect(**_eval_fields(Fraction(O.horner(coeffs, at)), p)),
            )
        )
    # seeded heavier analyses: a ladder of costs under p90, in rising order
    # f'(c) a unit, so the image is a ball and the command exits 0
    coeffs, c, r, _ = _certifiable(rng, 3)
    coeffs = _leading_positive(coeffs)
    commands.append((f'map-ball -p 3 -f "{O.format_poly(coeffs)}" --ball "{c} + 3^{r}" -M 5', 0, _map_ball_check(coeffs, c, r, 5, 3)))
    commands.append(_jacobian_command(rng, 2, 5))
    commands.append(_chain_command("correspondence", rng, 3, 8, 3))
    commands.append(_chain_command("certify", rng, 2, 3, 4))
    for levels in (1, 2, 3, 4):
        commands.append(_chain_command("certify", rng, 3, levels, 3))
    commands.append(_jacobian_command(rng, 2, 6))
    commands.append(_jacobian_command(rng, 3, 4))
    return [_tour_analysis(lib, command, rc, check) for command, rc, check in commands]


def library_corpus(lib: Lib, seed: int) -> list:
    """Every analysis family through the library API: the scan, certify and
    prepare parts, each drawn from its own seeded stream."""
    return scan_corpus(lib, seed) + certify_corpus(lib, seed) + prepare_corpus(lib, seed)


CORPORA = {"library": library_corpus, "tour": tour_corpus}


# ---------------------------------------------------------------------------
# operand samples for the scalar micro-costs


def scalar_samples(lib: Lib, seed: int, count: int = 2000) -> dict:
    """Operands for the qp_core micro-costs: integer (point, value) pairs
    as the scan generator makes them, and rational (probe, centre) pairs
    as the prepare generator makes them."""
    rng = random.Random(f"scalars:{seed}")
    ctx = lib.qp_core.PrimeContext(3)
    pts = O.window_points(3, 0, 3, 4)
    coeffs = _poly(rng, 3)
    ints = [ctx.scalar(x) for x in pts] + [ctx.scalar(O.horner(coeffs, x)) for x in pts]
    int_pairs = [(rng.choice(ints), rng.choice(ints)) for _ in range(count)]
    frac_pairs, ac_operands = [], []
    while len(frac_pairs) < count:
        p = rng.choice([2, 3, 5])
        ctx_p = lib.qp_core.PrimeContext(p)
        _, factors = _random_factored(rng, p, (1, -1, 2), rng.randint(-2, 2), (rng.randint(-1, 1), 2))
        for c, _ in factors:
            x = rng.choice(O.window_points(p, *PREPARE_WINDOW, 2))
            t, centre = ctx_p.scalar(c + x), ctx_p.scalar(c)
            frac_pairs.append((t, centre))
            ac_operands.append((t - centre, rng.randint(1, 2)))
    return {"int_pairs": int_pairs, "frac_pairs": frac_pairs[:count], "ac_operands": ac_operands[:count]}
