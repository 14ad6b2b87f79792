"""The ball-tree scans against the all-pairs oracles in tests/oracles.py.

Every property is seeded (derandomized), so a run is reproducible.  Window
sizes stay small enough for the quadratic oracles.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import (
    distance_pairs,
    exloc_pairs,
    local_pairs,
    scan_pairs,
    tuple_splitting_classes,
)
from ultralip.jacobian import (
    JacobianCertificate,
    ViolationKind,
    _distance_break,
    check_jacobian_on_ball,
)
from ultralip.lipschitz import (
    EmptyRegion,
    _exloc_break,
    _local_break,
    _tree_scan,
    check_bounded_derivative_local_lipschitz,
    empirical_lipschitz,
)
from ultralip.qp_core import PrimeContext
from ultralip.regions import (
    Ball,
    Window,
    _interleave,
    child_labels,
    enumerate_window,
    splitting_classes,
)
from ultralip.syntax import parse_condition, parse_term
from ultralip.terms import differentiate, eval_condition, evaluate

seeded = settings(derandomize=True, deadline=None, max_examples=60)

REGIONS = ("true", "|t| < |1|", "t in 1*Q(1,1)", "ord(t) % 2 = 0", "|1| <= |t|")


@st.composite
def windows(draw, v_min=st.integers(-2, 1), budget=120):
    """(p, Window) with at most `budget` window points."""
    p = draw(st.sampled_from([2, 3, 5]))
    lo = draw(v_min)
    window = Window(lo, lo + draw(st.integers(0, 2)), draw(st.integers(1, 3)))
    levels = window.v_max - window.v_min + 1
    assume(levels * (p**window.depth - p ** (window.depth - 1)) <= budget)
    return p, window


def coefficient(p):
    return st.tuples(st.integers(-6, 6), st.integers(-1, 1)).map(
        lambda nk: Fraction(nk[0]) * Fraction(p) ** nk[1]
    )


@st.composite
def scan_terms(draw, p):
    """Source of a univariate term: a polynomial, a polynomial plus a
    normval part, or a constant written in t."""
    coeffs = draw(st.lists(coefficient(p), min_size=1, max_size=4))
    poly = " + ".join(f"({c})*t^{i}" for i, c in enumerate(coeffs))
    family = draw(st.sampled_from(["poly", "normval", "constant"]))
    if family == "normval":
        return f"({draw(coefficient(p))})*normval(t) + {poly}"
    if family == "constant":
        return f"t - t + ({coeffs[0]})"
    return poly


def raw(values):
    """The raw values that the scans and the Jacobian check compute on."""
    return [v.value for v in values]


def as_scalars(points, ctx):
    """Raw points, or tuples of raw coordinates, as the scalars the all-pairs
    oracles read."""
    return [tuple(map(ctx.scalar, pt)) if isinstance(pt, tuple) else ctx.scalar(pt) for pt in points]


def wrapped(result, ctx):
    """A _tree_scan result with its raw witness points as scalars."""
    best, witness = result
    return best, None if witness is None else tuple(as_scalars(witness, ctx))


def scalars(ctx):
    """Values with many equal residues, so ties between pairs are common.
    Half of them have a denominator with a unit part prime to p, 7, 11 or
    13, as the values of rational functions do."""
    return st.tuples(st.integers(-4, 4), st.integers(-2, 2), st.sampled_from([1, 1, 1, 7, 11, 13])).map(
        lambda nku: ctx.scalar(Fraction(nku[0], nku[2]) * Fraction(ctx.p) ** nku[1])
    )


class TestEmpiricalScan:
    @seeded
    @given(st.data())
    def test_terms_match_all_pairs(self, data):
        p, window = data.draw(windows())
        ctx = PrimeContext(p)
        f = parse_term(data.draw(scan_terms(p)))
        region = parse_condition(data.draw(st.sampled_from(REGIONS)))
        try:
            report = empirical_lipschitz(f, region, window, ctx)
        except EmptyRegion:
            assume(False)
        points = [
            ctx.scalar(x)
            for x in sorted(enumerate_window(window, ctx))
            if eval_condition(region, {"t": x}, ctx)
        ]
        values = [evaluate(f, {"t": x}, ctx) for x in points]
        assert (report.constant_exponent, report.witness) == scan_pairs(points, values)

    @seeded
    @given(st.data())
    def test_random_values_match_all_pairs(self, data):
        p, window = data.draw(windows())
        ctx = PrimeContext(p)
        axis = sorted(enumerate_window(window, ctx))
        keep = data.draw(st.lists(st.booleans(), min_size=len(axis), max_size=len(axis)))
        points = [x for x, k in zip(axis, keep) if k]
        assume(points)
        values = data.draw(st.lists(scalars(ctx), min_size=len(points), max_size=len(points)))
        assert wrapped(_tree_scan(points, raw(values), p), ctx) == scan_pairs(as_scalars(points, ctx), values)

    @seeded
    @given(st.data())
    def test_bivariate_grids_match_all_pairs(self, data):
        p, window = data.draw(windows(budget=6))
        ctx = PrimeContext(p)
        axis = sorted(enumerate_window(window, ctx))
        points = list(itertools.product(axis, repeat=2))
        oracle_points = as_scalars(points, ctx)
        if data.draw(st.booleans()):
            mono = {
                (i, j): data.draw(coefficient(p))
                for i in range(3)
                for j in range(3)
                if 0 < i + j <= 3
            }
            f = parse_term(" + ".join(f"({c})*x^{i}*y^{j}" for (i, j), c in mono.items()))
            report = empirical_lipschitz(f, parse_condition("true"), window, ctx)
            values = [evaluate(f, {"x": x, "y": y}, ctx) for x, y in points]
            assert (report.constant_exponent, report.witness) == scan_pairs(oracle_points, values)
        else:
            values = data.draw(st.lists(scalars(ctx), min_size=len(points), max_size=len(points)))
            assert wrapped(_tree_scan(points, raw(values), p), ctx) == scan_pairs(oracle_points, values)

    @pytest.mark.parametrize("src", ["normval(t)", "1/(t - 1/2)"])
    def test_values_are_compared_without_fraction_subtraction(self, ctx3, monkeypatch, src):
        """The scan reads each value difference off an integer
        cross-multiplication, on values whose denominators are powers of p
        (normval) and on values whose denominators have a unit part."""
        f = parse_term(src)
        points = sorted(enumerate_window(Window(-1, 2, 2), ctx3))
        values = [evaluate(f, {"t": ctx3.scalar(x)}, ctx3).value for x in points]
        assert any(v.__class__ is Fraction for v in values)
        expected = scan_pairs(as_scalars(points, ctx3), as_scalars(values, ctx3))
        differences = []
        for name in ("__sub__", "__rsub__"):
            sub = getattr(Fraction, name)
            monkeypatch.setattr(
                Fraction, name, lambda x, y, sub=sub: (differences.append((x, y)), sub(x, y))[1]
            )
        result = _tree_scan(points, values, 3)
        monkeypatch.undo()
        assert differences == []
        assert wrapped(result, ctx3) == expected

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("src", ["t - t + 7", "x - x + 0*y"])
    def test_constant_function_reports_none(self, p, src):
        report = empirical_lipschitz(
            parse_term(src), parse_condition("true"), Window(-1, 0, 1), PrimeContext(p)
        )
        assert report.constant_exponent is None and report.witness is None


class TestLocalCheck:
    @staticmethod
    def _oracle(f, window, ctx):
        """The bounded-derivative local check with its pair loop done pairwise."""
        deriv = differentiate(f, "t")
        pts = sorted(map(ctx.scalar, enumerate_window(window, ctx)))
        for x in pts:
            e = evaluate(deriv, {"t": x}, ctx).norm_exponent()
            if e is not None and e > 0:
                return "skipped", (x,)
        groups: dict = {}
        for x in pts:
            groups.setdefault((x.ord(), x.ac(1)), []).append(x)
        for group in groups.values():
            pair = local_pairs(group, [evaluate(f, {"t": x}, ctx) for x in group])
            if pair is not None:
                return "failed", (group[pair[0]], group[pair[1]])
        return "passed", None

    @seeded
    @given(st.data())
    def test_terms_match_all_pairs(self, data):
        p, window = data.draw(windows(v_min=st.integers(1, 2)))
        ctx = PrimeContext(p)
        coeffs = data.draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4))
        src = " + ".join(f"({c})*t^{i}" for i, c in enumerate(coeffs))
        family = data.draw(st.sampled_from(["poly", "gated", "spike"]))
        if family == "gated":
            src += f" + (1/{p})*t"
        elif family == "spike":
            scale = f"{data.draw(st.integers(1, 4))}/{p}^{data.draw(st.integers(0, 4))}"
            src += f" + ({scale})*levelspike(t)"
        f = parse_term(src)
        out = check_bounded_derivative_local_lipschitz(f, parse_condition("true"), window, ctx)
        assert (out.status, out.witness) == self._oracle(f, window, ctx)

    @seeded
    @given(st.data())
    def test_random_values_match_all_pairs(self, data):
        p, window = data.draw(windows(v_min=st.integers(-1, 1)))
        ctx = PrimeContext(p)
        level = window.v_min
        group = [
            x
            for x in map(ctx.scalar, enumerate_window(window, ctx))
            if x.ord() == level and x.ac(1) == 1
        ]
        vals = data.draw(st.lists(scalars(ctx), min_size=len(group), max_size=len(group)))
        assert _local_break(raw(group), raw(vals), p) == local_pairs(group, vals)

    def test_spike_fails_with_least_witness(self, ctx3):
        f = parse_term("levelspike(t)/9")
        out = check_bounded_derivative_local_lipschitz(
            f, parse_condition("|t| < |1|"), Window(1, 2, 2), ctx3
        )
        assert out.status == "failed"
        assert [x.value for x in out.witness] == [3, 12]
        assert (out.status, out.witness) == self._oracle(f, Window(1, 2, 2), ctx3)


class TestDistanceCondition:
    """Condition (d) of the Jacobian check, on hand-built image lists."""

    @staticmethod
    def _isometry(ctx, center, radius, depth, jac, unit, shift):
        ball = Ball(ctx.scalar(center), radius)
        reps = [ctx.scalar(x) for x in ball.representatives(depth)]
        slope = ctx.scalar(unit) * ctx.scalar(ctx.power(jac))
        return reps, [slope * x + ctx.scalar(shift) for x in reps]

    def test_isometry_passes(self, ctx3):
        radius, jac = 1, -1
        reps, images = self._isometry(ctx3, 1, radius, 3, jac, 2, 5)
        assert _distance_break(raw(reps), raw(images), jac, 3) is None
        assert distance_pairs(reps, images, jac) is None

    def test_swapped_classes_least_witness(self, ctx3):
        reps, images = self._isometry(ctx3, 0, 0, 2, 0, 1, 0)
        images[1], images[2] = images[2], images[1]
        assert _distance_break(raw(reps), raw(images), 0, 3) == (1, 4) == distance_pairs(reps, images, 0)

    def test_nudged_image_least_witness(self, ctx3):
        reps, images = self._isometry(ctx3, 0, 0, 2, 0, 1, 0)
        images[5] = images[5] + ctx3.scalar(3)
        assert _distance_break(raw(reps), raw(images), 0, 3) == (5, 8) == distance_pairs(reps, images, 0)

    @seeded
    @given(st.data())
    def test_perturbed_isometries_match_all_pairs(self, data):
        p = data.draw(st.sampled_from([2, 3, 5]))
        ctx = PrimeContext(p)
        depth = data.draw(st.integers(1, {2: 5, 3: 3, 5: 2}[p]))
        radius = data.draw(st.integers(-1, 2))
        jac = data.draw(st.integers(-1, 2))
        unit = data.draw(st.integers(1, p - 1))
        reps, images = self._isometry(
            ctx, data.draw(st.integers(0, 20)), radius, depth, jac, unit, data.draw(st.integers(-9, 9))
        )
        n = len(images)
        for _ in range(data.draw(st.integers(0, 2))):
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            if data.draw(st.booleans()):
                images[i], images[j] = images[j], images[i]
            else:
                step = ctx.scalar(ctx.power(radius + jac + data.draw(st.integers(0, depth))))
                images[i] = images[i] + step
        assert _distance_break(raw(reps), raw(images), jac, p) == distance_pairs(reps, images, jac)

    @seeded
    @given(st.data())
    def test_random_images_match_all_pairs(self, data):
        p = data.draw(st.sampled_from([2, 3, 5]))
        ctx = PrimeContext(p)
        depth = data.draw(st.integers(1, {2: 5, 3: 3, 5: 2}[p]))
        reps = [ctx.scalar(x) for x in Ball(ctx.scalar(0), 0).representatives(depth)]
        images = data.draw(st.lists(scalars(ctx), min_size=len(reps), max_size=len(reps)))
        base = data.draw(st.integers(-2, 1))
        assert _distance_break(raw(reps), raw(images), base, p) == distance_pairs(reps, images, base)

    @seeded
    @given(st.data())
    def test_check_agrees_on_polynomials(self, data):
        p = data.draw(st.sampled_from([2, 3, 5]))
        ctx = PrimeContext(p)
        depth = data.draw(st.integers(1, 3 if p < 5 else 2))
        coeffs = data.draw(st.lists(st.integers(-9, 9), min_size=2, max_size=4))
        f = parse_term(" + ".join(f"({c})*x^{i}" for i, c in enumerate(coeffs)))
        ball = Ball(ctx.scalar(data.draw(st.integers(0, 20))), data.draw(st.integers(0, 2)))
        result = check_jacobian_on_ball(f, ball, depth)
        reps = [ctx.scalar(x) for x in ball.representatives(depth)]
        images = [evaluate(f, {"x": x}, ctx) for x in reps]
        if isinstance(result, JacobianCertificate):
            assert distance_pairs(reps, images, result.jac_ord) is None
        elif result.failed_condition is ViolationKind.D_DISTANCE_MISMATCH:
            jac = evaluate(differentiate(f, "x"), {"x": reps[0]}, ctx).ord()
            i, j = distance_pairs(reps, images, jac)
            assert result.witness == (reps[i], reps[j])


class TestExlocIdentities:
    @seeded
    @given(st.data())
    def test_tampered_values_match_all_pairs(self, data):
        p, window = data.draw(windows(v_min=st.integers(0, 1)))
        ctx = PrimeContext(p)
        points = [ctx.scalar(x) for x in enumerate_window(window, ctx)]
        f = parse_term("normval(t)")
        values = [evaluate(f, {"t": x}, ctx) for x in points]
        for _ in range(data.draw(st.integers(0, 3))):
            i = data.draw(st.integers(0, len(points) - 1))
            values[i] = values[i] + data.draw(scalars(ctx))
        assert _exloc_break(raw(points), raw(values), p) == exloc_pairs(points, values)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_level_copied_onto_another_matches_all_pairs(self, p):
        """Each level's values agree, so only a comparison between levels
        sees that level 2 repeats the value of level 0."""
        ctx = PrimeContext(p)
        points = [ctx.scalar(x) for x in enumerate_window(Window(0, 3, 1), ctx)]
        values = [ctx.scalar(ctx.power(-(x.ord() % 2))) for x in points]
        expected = exloc_pairs(points, values)
        assert expected is not None
        assert _exloc_break(raw(points), raw(values), p) == expected

    def test_normval_holds(self, ctx3):
        points = list(enumerate_window(Window(0, 3, 2), ctx3))
        values = [evaluate(parse_term("normval(t)"), {"t": x}, ctx3).value for x in points]
        assert _exloc_break(points, values, 3) is None


class TestSplittingClasses:
    def test_every_pair_crosses_one_split_at_its_distance(self, ctx3):
        points = [ctx3.scalar(x) for x in (0, 1, 4, 7, 9, 10, 27)]
        seen = {}
        for level, _, children in splitting_classes(raw(points), 3):
            for a, b in itertools.combinations(children, 2):
                for i in a:
                    for j in b:
                        pair = (min(i, j), max(i, j))
                        assert pair not in seen
                        seen[pair] = level
        for i, j in itertools.combinations(range(len(points)), 2):
            assert (points[i] - points[j]).ord() == seen[i, j]

    @seeded
    @given(st.data())
    def test_interleaving_law(self, data):
        """Keys agree mod p^(n*k) exactly when every coordinate agrees mod p^k."""
        n = data.draw(st.sampled_from([1, 2, 3]))
        p = data.draw(st.sampled_from([2, 3, 5]))
        coordinate = st.one_of(st.just(0), st.integers(-40, 40))
        ints = data.draw(st.lists(st.tuples(*[coordinate] * n), min_size=2, max_size=10))
        keys = _interleave(ints, p)
        assert all(isinstance(key, int) and key >= 0 for key in keys)
        for (a, key_a), (b, key_b) in itertools.combinations(zip(ints, keys), 2):
            for k in range(10):  # p^10 > 2 * 40, past every key's last digit
                coordinates_agree = all((x - y) % p**k == 0 for x, y in zip(a, b))
                assert (key_a % p ** (n * k) == key_b % p ** (n * k)) == coordinates_agree

    @seeded
    @given(st.data())
    def test_matches_the_tuple_keyed_tree(self, data):
        """The tree of any finite set in Z[1/p]^n is the tree of the integer
        key tuples value * p^shift, shift clearing every denominator, with
        levels shifted by shift; the children's int labels split each class
        as the tuple labels do."""
        n = data.draw(st.sampled_from([1, 2, 3]))
        p = data.draw(st.sampled_from([2, 3, 5]))
        ctx = PrimeContext(p)
        coordinate = st.one_of(
            st.just(Fraction(0)),
            st.tuples(st.integers(-12, 12), st.integers(-2, 2)).map(
                lambda ae: Fraction(ae[0]) * Fraction(p) ** ae[1]
            ),
        )
        values = data.draw(
            st.lists(st.tuples(*[coordinate] * n), min_size=1, max_size=30, unique=True)
        )
        points = [tuple(ctx.scalar(c).value for c in pt) for pt in values]
        if n == 1:
            points = [pt[0] for pt in points]
        shift = max([0] + [-ctx.scalar(c).ord() for pt in values for c in pt if c])
        keys = [tuple(int(c * p**shift) for c in pt) for pt in values]
        splits = splitting_classes(points, p)
        expected = tuple_splitting_classes(keys, p)
        assert [(level + shift, members, children) for level, members, children in splits] == [
            (level, members, children) for level, members, _, children in expected
        ]
        for (_, members, children), (_, _, oracle_labels, _) in zip(splits, expected):
            labels = child_labels(members, children)
            assert all(label.__class__ is int for label in labels)
            pairs = set(zip(labels, oracle_labels))
            assert len(pairs) == len(set(labels)) == len(set(oracle_labels))

    def test_duplicate_keys_rejected(self):
        with pytest.raises(ValueError):
            splitting_classes([1, 1], 2)
