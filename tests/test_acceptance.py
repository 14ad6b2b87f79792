"""Acceptance suite: one test per criterion, each printing a PASS line.

Everything is exact (tolerance 0); the only non-determinism is seeded.
Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines.
"""

import dataclasses
import itertools
import random
import time
from fractions import Fraction
from functools import lru_cache

import pytest

from ultralip.qp_core import INFINITE_ORD, CosetSpec, PadicScalar, PrimeContext
from ultralip.regions import Ball, Window, enumerate_window
from ultralip.cells import point_cell
from ultralip.jacobian import (
    BallCorrespondence,
    JacobianCertificate,
    JacobianViolation,
    ViolationKind,
    check_ball_correspondence,
    check_jacobian_on_ball,
    verify_certificate,
)
from ultralip.lipschitz import (
    certified_cell_constant,
    check_bounded_derivative_local_lipschitz,
    counterexample_exloc2,
    empirical_lipschitz,
)
from ultralip.prepare import (
    FactoredTerm,
    piece_contains,
    prepare,
    verify_prepared,
)
from ultralip.syntax import (
    Add,
    IntPow,
    Mul,
    RationalConst,
    Variable,
    parse_condition,
    parse_term,
)
from ultralip.terms import differentiate, evaluate

from conftest import random_rational


def _report(number: int, message: str, started: float, budget: float) -> None:
    elapsed = time.monotonic() - started
    print(f"PASS criterion {number}: {message} ({elapsed:.2f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


# ---------------------------------------------------------------------------
# criterion 1: ultrametric law suite


def test_criterion_1_ultrametric_laws():
    started = time.monotonic()
    rng = random.Random(1001)
    for p in (2, 3, 5, 7):
        ctx = PrimeContext(p)
        for _ in range(10_000):
            x = ctx.scalar(random_rational(rng, p))
            y = ctx.scalar(random_rational(rng, p))
            ox, oy, os = x.ord(), y.ord(), (x + y).ord()
            lo = min(ox, oy)
            assert os >= lo
            if ox != oy:
                assert os == lo
            assert (x * y).ord() == ox + oy
            n = rng.randint(1, 3)
            assert (x * y).ac(n) == x.ac(n) * y.ac(n) % p**n
    _report(1, "ultrametric, multiplicativity and ac laws on 40000 pairs", started, 10.0)


# ---------------------------------------------------------------------------
# criterion 2: ball-of-cell formula equivalence


def test_criterion_2_ball_formula_equivalence():
    started = time.monotonic()
    ctx = PrimeContext(3)
    checked = 0
    for m in (1, 2):
        for t in map(ctx.scalar, enumerate_window(Window(-2, 3, 3), ctx)):
            a = t.ord()
            lam_residue = t.ac(m)
            lam = ctx.scalar(Fraction(lam_residue) * Fraction(3) ** a)
            cell = point_cell(ctx.scalar(0), CosetSpec(lam, m, 1))
            from ultralip.cells import ball_of_cell, cell_contains

            assert cell_contains(cell, t)
            construction = ball_of_cell(cell, t)  # t + p^(m + ord t) Z_p
            set_formula = Ball(
                ctx.scalar(Fraction(lam_residue) * Fraction(3) ** a), a + m
            )
            assert construction == set_formula
            checked += 1
    _report(2, f"construction == level-set formula on {checked} representatives", started, 10.0)


# ---------------------------------------------------------------------------
# criterion 3: Jacobian certification


def test_criterion_3_jacobian_certification():
    started = time.monotonic()
    ctx = PrimeContext(3)
    f = parse_term("x^2")

    cert = check_jacobian_on_ball(f, Ball(ctx.scalar(1), 1), 4)
    assert isinstance(cert, JacobianCertificate)
    assert cert.jac_ord == 0
    assert cert.image == Ball(ctx.scalar(1), 1)
    assert cert.verified_depth == 4

    violation = check_jacobian_on_ball(f, Ball(ctx.scalar(0), 1), 4)
    assert isinstance(violation, JacobianViolation)
    # the first violation in the fixed order c, a, d; the witness re-checks
    # by direct evaluation (f-equality for the injectivity kind, a
    # derivative-valuation mismatch for the constancy kind)
    assert violation.failed_condition in (
        ViolationKind.C_JAC_ORD_VARIES,
        ViolationKind.A_NOT_INJECTIVE,
    )
    pts = violation.witness
    if violation.failed_condition is ViolationKind.A_NOT_INJECTIVE:
        assert evaluate(f, {"x": pts[0]}, ctx) == evaluate(f, {"x": pts[1]}, ctx)
    else:
        d = differentiate(f, "x")
        ords = [evaluate(d, {"x": w}, ctx).ord() for w in pts]
        assert (len(pts) == 1 and ords[0] == INFINITE_ORD) or ords[0] != ords[1]
    # the mathematical content of the failure: squaring collapses +-u pairs
    u = ctx.scalar(3)
    v = ctx.scalar(-3)
    assert evaluate(f, {"x": u}, ctx) == evaluate(f, {"x": v}, ctx)
    _report(3, "x^2 certified on 1+3Z_3 (jac_ord 0) and refuted on 3Z_3", started, 10.0)


# ---------------------------------------------------------------------------
# criterion 4: the locally constant counterexample, exactly


def test_criterion_4_exloc_reproduction():
    started = time.monotonic()
    f = parse_term("normval(t)")
    for p in (2, 3, 5):
        ctx = PrimeContext(p)
        window = Window(0, 4, 2)
        points = [ctx.scalar(x) for x in enumerate_window(window, ctx)]
        values = {x: evaluate(f, {"t": x}, ctx) for x in points}
        # constancy on every granularity ball
        for x in points:
            for probe in window.ball_of(x).representatives(2):
                assert evaluate(f, {"t": probe}, ctx) == values[x]
        # the exact identity on every pair with |x2| < |x1|
        for x1, x2 in itertools.combinations(points, 2):
            if x1.ord() > x2.ord():
                x1, x2 = x2, x1
            if x1.ord() == x2.ord():
                continue
            assert (values[x1] - values[x2]).norm_exponent() == x2.ord()
            assert (x1 - x2).norm_exponent() == -x1.ord()
    _report(4, "|f(x1)-f(x2)| = |x2|^-1 exactly for p in {2,3,5}", started, 30.0)


# ---------------------------------------------------------------------------
# criterion 5: the zero-derivative spike, exactly


def test_criterion_5_exloc2_reproduction():
    started = time.monotonic()
    ctx = PrimeContext(3)
    trace = counterexample_exloc2(5, ctx)
    assert len(trace.entries) == 5
    g = parse_term("levelspike(t)")
    for entry in trace.entries:
        n = entry.level
        b_i, b_j = entry.witness
        # |b_i - b_j| = p * |b_i^3|
        assert (b_i - b_j).norm_exponent() == (b_i**3).norm_exponent() + 1
        # |g(b_i) - g(b_j)| = |b_i^2|
        g_gap = evaluate(g, {"t": b_i}) - evaluate(g, {"t": b_j})
        assert g_gap.norm_exponent() == (b_i**2).norm_exponent()
        assert entry.ratio_exponent == n - 1
    assert [q for _, q in trace.derivative_entries] == [-1, -2, -3, -4, -5]
    _report(5, "both displayed identities exact, ratios p^(n-1), g'(0) = 0", started, 5.0)


# ---------------------------------------------------------------------------
# criteria 6 and 9 share the random factored corpus


def _random_factored(rng: random.Random, ctx: PrimeContext, max_degree: int = 4) -> FactoredTerm:
    k = rng.randint(1, 3)
    centers, seen = [], set()
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
    num = rng.randint(1, 50) * rng.choice([-1, 1])
    unit = ctx.scalar(Fraction(num, rng.randint(1, 50)))
    return FactoredTerm(unit, tuple(factors))


@lru_cache(maxsize=1)
def _criterion_6_corpus():
    rng = random.Random(606)
    window = Window(-3, 3, 1)
    corpus = []
    for p in (2, 3, 5):
        ctx = PrimeContext(p)
        for _ in range(50):
            f = _random_factored(rng, ctx)
            corpus.append((f, prepare(f, window)))
    return window, corpus


def _in_scan_domain(f: FactoredTerm, w: Window, t: PadicScalar) -> bool:
    if any(t.value == c.value for c in f.centers):
        return False
    for c in f.centers:
        o = (t - c).ord()
        if w.v_min <= o <= w.v_max:
            return True
    return False


def test_criterion_6_preparation_oracle():
    started = time.monotonic()
    window, corpus = _criterion_6_corpus()
    assert len(corpus) == 150
    pieces_total = 0
    for f, pieces in corpus:
        ctx = f.context
        for piece in pieces:
            check = verify_prepared(f, piece, 3)
            assert check.passed, f"{f}: {check.detail}"
        pieces_total += len(pieces)
        # disjointness and cover at the enumerated representatives around
        # every center, plus probes beyond the window depth (tie handoffs)
        sample = {}
        for c in f.centers:
            for x in enumerate_window(Window(window.v_min, window.v_max, 2), ctx):
                sample[c.value + x] = None
            for extra in (1, 2):
                sample[c.value + ctx.power(window.v_max + extra)] = None
        for value in sample:
            t = ctx.scalar(value)
            hits = sum(1 for piece in pieces if piece_contains(f, piece, t))
            if _in_scan_domain(f, window, t):
                assert hits == 1, f"{f}: {t} covered {hits} times"
            else:
                assert hits <= 1, f"{f}: {t} covered {hits} times beyond the window"
    _report(6, f"oracle, disjointness and cover on {pieces_total} pieces / 150 terms", started, 60.0)


# ---------------------------------------------------------------------------
# criterion 7: the m=1 certified constant


def test_criterion_7_certified_constant():
    started = time.monotonic()
    ctx = PrimeContext(3)
    f = parse_term("x^2")
    cell = point_cell(ctx.scalar(0), CosetSpec(ctx.scalar(1), 1, 1), fiber_var="x")
    corr = check_ball_correspondence(f, cell, {}, Window(0, 3, 1), 3)
    assert isinstance(corr, BallCorrespondence)
    m = cell.coset.m
    m_prime = corr.fitted_image_cell.coset.m
    # the bookkeeping identity m + jac_ord + a = m' + b on every pair
    for ball, image in corr.pairs:
        cert = check_jacobian_on_ball(f, ball, 3)
        assert isinstance(cert, JacobianCertificate)
        a = ball.radius_ord - m
        b = image.radius_ord - m_prime
        assert m + cert.jac_ord + a == m_prime + b
        assert cert.jac_ord >= 0  # |f'| <= 1 = epsilon
    report = certified_cell_constant(f, cell, corr, epsilon_exponent=0)
    assert report.constant_exponent == 0 + max(0, m_prime - m)
    empirical = empirical_lipschitz(
        parse_term("t^2"),
        parse_condition("t in 1*Q(1,1)"),
        Window(0, 3, 3),
        ctx,
    )
    assert report.constant_exponent >= empirical.constant_exponent
    _report(
        7,
        f"ledger identity holds, C = eps*p^max(0,m'-m) = 3^{report.constant_exponent} "
        f">= empirical 3^{empirical.constant_exponent}",
        started,
        30.0,
    )


# ---------------------------------------------------------------------------
# criterion 8: bounded derivative => local 1-Lipschitz


def _random_polynomial(rng: random.Random, p: int):
    """Random polynomial of degree <= 4 with coefficients of ord >= -1."""
    coeffs = []
    for _ in range(rng.randint(2, 5)):
        c = Fraction(rng.randint(-30, 30))
        if rng.random() < 0.3:
            c /= p
        coeffs.append(c)
    term = RationalConst(coeffs[0])
    for i, c in enumerate(coeffs[1:], start=1):
        if c == 0:
            continue
        term = Add(term, Mul(RationalConst(c), IntPow(Variable("t"), i)))
    return term


def test_criterion_8_bounded_derivative_check():
    started = time.monotonic()
    from ultralip.syntax import TrueCond

    window = Window(0, 2, 3)
    for p in (3, 5):
        ctx = PrimeContext(p)
        rng = random.Random(800 + p)
        kept = 0
        attempts = 0
        while kept < 20:
            attempts += 1
            assert attempts < 500, "generator failed to produce enough gated polynomials"
            f = _random_polynomial(rng, p)
            out = check_bounded_derivative_local_lipschitz(f, TrueCond(), window, ctx)
            if out.status == "skipped":
                continue
            kept += 1
            assert out.status == "passed", f"p={p}: {out.detail} on {f}"
    _report(8, "20 gated polynomials per p in {3,5}: all same-ball pairs contract", started, 30.0)


# ---------------------------------------------------------------------------
# criterion 9: mutation sensitivity


def test_criterion_9_mutation_sensitivity():
    started = time.monotonic()
    window, corpus = _criterion_6_corpus()
    mutated = 0
    for f, pieces in corpus:
        for piece in pieces:
            for delta in (-1, 1):
                bad = dataclasses.replace(piece, exponent=piece.exponent + delta)
                check = verify_prepared(f, bad, 3)
                assert not check.passed
                assert check.witness is not None
                mutated += 1

    ctx = PrimeContext(3)
    f = parse_term("x^2")
    cell = point_cell(ctx.scalar(0), CosetSpec(ctx.scalar(1), 1, 1), fiber_var="x")
    corr = check_ball_correspondence(f, cell, {}, Window(0, 3, 1), 3)
    certs = [check_jacobian_on_ball(f, ball, 3) for ball, _ in corr.pairs]
    for cert in certs:
        assert isinstance(cert, JacobianCertificate)
        for delta in (-1, 1):
            bad = dataclasses.replace(cert, jac_ord=cert.jac_ord + delta)
            check = verify_certificate(f, bad)
            assert not check.passed
            assert check.detail
            mutated += 1
    _report(9, f"{mutated} exponent/jac_ord corruptions all detected with witnesses", started, 60.0)
