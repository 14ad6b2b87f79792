import copy
import gc
import math
import pickle
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
import ultralip.terms as terms
from ultralip.jacobian import JacobianCertificate, check_jacobian_on_ball
from ultralip.qp_core import PadicScalar, PrimeContext
from ultralip.regions import Ball
from ultralip.syntax import (
    Add,
    And,
    Condition,
    CosetMember,
    Div,
    IntPow,
    LevelSpike,
    Mul,
    NormCmp,
    NormVal,
    Not,
    Or,
    OrdCongruence,
    ParseError,
    PiecewiseFunction,
    RationalConst,
    Sub,
    Term,
    TrueCond,
    Variable,
    format_condition,
    format_term,
    free_variables,
    parse,
    parse_condition,
    parse_term,
)
from ultralip.terms import (
    BuiltinDomainError,
    DivisionByZero,
    PieceOverlapError,
    UnboundVariableError,
    compile_condition,
    compile_value,
    differentiate,
    eval_condition,
    evaluate,
    evaluate_piecewise,
    polynomial,
    taylor_shift,
)


class TestParsing:
    def test_mul_sub_shape(self):
        assert parse("t*(t-1)") == Mul(Variable("t"), Sub(Variable("t"), RationalConst(1)))

    def test_normval_shape(self):
        assert parse("normval(t)") == NormVal(Variable("t"))

    def test_condition_shape(self):
        c = parse("|t - 1| < |t|  &&  t in 1*Q(1,2)")
        assert isinstance(c.left, NormCmp) and c.left.op == "<"
        assert c.right == CosetMember(Variable("t"), Fraction(1), 1, 2)

    def test_rational_literals(self):
        assert parse_term("3/2") == RationalConst(Fraction(3, 2))
        assert parse_term("-3/2") == RationalConst(Fraction(-3, 2))
        with pytest.raises(ParseError, match="denominator 0"):
            parse_term("1/0")

    def test_power_forms(self):
        assert parse_term("t^-2") == IntPow(Variable("t"), -2)
        assert parse_term("t^(-2)") == IntPow(Variable("t"), -2)
        assert parse_term("t^3") == IntPow(Variable("t"), 3)

    def test_precedence(self):
        assert parse_term("1+2*t") == Add(RationalConst(1), Mul(RationalConst(2), Variable("t")))
        assert parse_term("(1+2)*t") == Mul(Add(RationalConst(1), RationalConst(2)), Variable("t"))

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_term("t + * 2")
        assert err.value.line == 1
        assert err.value.col == 5

    def test_unknown_builtin(self):
        with pytest.raises(ParseError, match="unknown builtin"):
            parse_term("frobnicate(t)")

    def test_known_builtin_parses(self):
        assert parse_term("levelspike(t)") == LevelSpike(Variable("t"))

    def test_levelspike_needs_only_the_syntax_module(self):
        """levelspike is a node of syntax itself, not something that another
        module adds: syntax defines it, and test_hygiene checks that importing
        syntax alone loads no other module of the package."""
        assert LevelSpike.__module__ == "ultralip.syntax"
        assert type(parse_term("levelspike(t)")) is LevelSpike

    def test_piecewise_and_unbound_variable(self):
        pf = parse("piecewise(t) { ord(t) % 2 = 0 -> t^2 ; ord(t) % 2 = 1 -> 3*t }")
        assert pf.variables == ("t",)
        with pytest.raises(ParseError, match="unbound variable"):
            parse("piecewise(t) { true -> s }")

    def test_parse_dispatch(self):
        assert isinstance(parse("t+1"), Term)
        assert isinstance(parse("|t| < |1|"), Condition)
        assert isinstance(parse("piecewise(t) { true -> t }"), PiecewiseFunction)

    def test_parenthesized_coset_subject(self):
        c = parse_condition("(t+1) in 1*Q(1,1)")
        assert isinstance(c, CosetMember)

    @pytest.mark.parametrize(
        "text, message, column",
        [
            ("(ord(x) % 0 = 1)", "ord congruence modulus must be >= 1", 11),
            ("(|x| < |y| && ord(x) % 0 = 1)", "ord congruence modulus must be >= 1", 24),
            # here the term reading gets further, so its error is reported
            ("(x+1) in 1*Q(0,1)", "coset depths m, n must be >= 1", 10),
        ],
    )
    def test_parenthesized_condition_keeps_its_error(self, text, message, column):
        with pytest.raises(ParseError) as err:
            parse_condition(text)
        assert str(err.value) == f"{message} (line 1, column {column})"


class TestEvaluation:
    def test_rational_example(self, ctx5):
        v = evaluate(parse_term("(t-1)*t/(t+2)"), {"t": ctx5.scalar(3)})
        assert v.value == Fraction(6, 5)
        assert v.ord() == -1

    def test_normval_embedding(self, ctx3):
        v = evaluate(parse_term("normval(t)"), {"t": ctx3.scalar(9)})
        assert v.value == Fraction(1, 9)
        assert v.ord() == -2

    def test_identity_zero(self, ctx3):
        for t in (1, 7, Fraction(2, 5)):
            assert evaluate(parse_term("t - t"), {"t": ctx3.scalar(t)}).is_zero

    def test_division_by_zero_carries_subterm(self, ctx3):
        with pytest.raises(DivisionByZero) as err:
            evaluate(parse_term("1/(t-1)"), {"t": ctx3.scalar(1)})
        assert format_term(err.value.subterm) == "t-1"

    def test_normval_domain(self, ctx3):
        with pytest.raises(BuiltinDomainError):
            evaluate(parse_term("normval(t)"), {"t": ctx3.scalar(0)})

    def test_unbound_variable(self, ctx3):
        with pytest.raises(UnboundVariableError):
            evaluate(parse_term("s+1"), {"t": ctx3.scalar(1)}, ctx3)

    def test_negative_power_at_zero(self, ctx3):
        with pytest.raises(DivisionByZero):
            evaluate(parse_term("t^-1"), {"t": ctx3.scalar(0)})


class TestConditions:
    def test_examples(self, ctx3):
        assert eval_condition(parse_condition("t in 1*Q(1,1)"), {"t": ctx3.scalar(4)})
        assert eval_condition(parse_condition("|t| < |1|"), {"t": ctx3.scalar(3)})
        for t in (1, 5, Fraction(1, 3)):
            assert eval_condition(parse_condition("|t| = |t|"), {"t": ctx3.scalar(t)})

    def test_ord_congruence(self, ctx3):
        c = parse_condition("ord(t) % 2 = 0")
        assert eval_condition(c, {"t": ctx3.scalar(9)})
        assert not eval_condition(c, {"t": ctx3.scalar(3)})
        assert not eval_condition(c, {"t": ctx3.scalar(0)})

    def test_connectives(self, ctx3):
        c = parse_condition("!(|t| < |1|) || t in 1*Q(1,1)")
        assert eval_condition(c, {"t": ctx3.scalar(1)})
        assert eval_condition(c, {"t": ctx3.scalar(3)})
        assert not eval_condition(parse_condition("!(|t| = |t|)"), {"t": ctx3.scalar(2)})

    @pytest.mark.parametrize(
        "a, b, lt, le, eq",
        [
            (0, 0, False, True, True),
            (0, 3, True, True, False),
            (3, 0, False, False, False),
            (9, 3, True, True, False),  # |9| = 1/9 < |3| = 1/3
            (3, 9, False, False, False),
            (3, 6, False, True, True),  # equal norms, different values
        ],
    )
    def test_norm_comparison_table(self, ctx3, a, b, lt, le, eq):
        point = {"a": ctx3.scalar(a), "b": ctx3.scalar(b)}
        for op, expected in (("<", lt), ("<=", le), ("=", eq)):
            assert eval_condition(parse_condition(f"|a| {op} |b|"), point) is expected


class TestPiecewise:
    def test_evaluation(self, ctx3):
        pf = parse("piecewise(t) { ord(t) % 2 = 0 -> t^2 ; ord(t) % 2 = 1 -> 3*t }")
        assert evaluate_piecewise(pf, {"t": ctx3.scalar(1)}).value == 1
        assert evaluate_piecewise(pf, {"t": ctx3.scalar(3)}).value == 9

    def test_overlap_is_an_error(self, ctx3):
        pf = parse("piecewise(t) { |t| = |1| -> t ; t in 1*Q(1,1) -> 2*t }")
        with pytest.raises(PieceOverlapError):
            evaluate_piecewise(pf, {"t": ctx3.scalar(1)})


class TestPointBoundary:
    """evaluate, eval_condition and evaluate_piecewise take scalars, raw
    values or both; scalars are checked against the context, raw values are
    read in it."""

    T = parse_term("x^2/3 + normval(y) - y")
    C = parse_condition("|x| < |y| || x in 2*Q(1,1)")
    PF = parse("piecewise(x, y) { |x| <= |y| -> x - y ; |y| < |x| -> y/x }")

    def _all(self, point, ctx=None):
        return (
            _outcome(lambda: evaluate(self.T, point, ctx)),
            _outcome(lambda: eval_condition(self.C, point, ctx)),
            _outcome(lambda: evaluate_piecewise(self.PF, point, ctx)),
        )

    @pytest.mark.parametrize("point", [{"x": 2, "y": Fraction(1, 3)}, {}])
    def test_a_raw_point_needs_a_context(self, point):
        for outcome in self._all(point):
            assert outcome[:2] == ("raises", terms.EvaluationError)
            assert outcome[2] == "no prime context available (empty point, no ctx)"

    def test_a_scalar_of_another_prime_is_refused(self, ctx3, ctx5):
        for point in ({"x": ctx5.scalar(2), "y": ctx5.scalar(3)}, {"x": 2, "y": ctx5.scalar(3)}):
            for outcome in self._all(point, ctx3):
                assert outcome == (
                    "raises", terms.EvaluationError, "point values disagree with the supplied context"
                )
        for outcome in self._all({"x": ctx3.scalar(2), "y": ctx5.scalar(3)}):
            assert outcome[2] == "point values disagree with the supplied context"

    @pytest.mark.parametrize("x, y", [(2, Fraction(1, 3)), (Fraction(3, 4), 9), (6, 3), (0, 5)])
    def test_a_mixed_point_evaluates_like_the_scalar_point(self, ctx3, x, y):
        scalar = {"x": ctx3.scalar(x), "y": ctx3.scalar(y)}
        expected = self._all(scalar)
        assert expected[0][0] == "value" and expected[2][0] == "value"
        for point in ({"x": x, "y": ctx3.scalar(y)}, {"x": ctx3.scalar(x), "y": y}):
            assert self._all(point) == expected
        for point in (scalar, {"x": x, "y": y}, {"x": x, "y": ctx3.scalar(y)}):
            assert self._all(point, ctx3) == expected

    def test_piecewise_errors_read_alike_for_raw_points(self, ctx3):
        gap = parse("piecewise(t) { ord(t) % 2 = 0 -> t }")
        overlap = parse("piecewise(t) { |t| = |1| -> t ; t in 1*Q(1,1) -> 2*t }")
        for pf, x, error in (
            (gap, 3, "no piece covers the point {t=3}"),
            (gap, Fraction(1, 3), "no piece covers the point {t=1/3}"),
            (overlap, 1, "pieces overlap at the point {t=1}"),
        ):
            scalar = _outcome(lambda: evaluate_piecewise(pf, {"t": ctx3.scalar(x)}))
            assert scalar[2] == error
            assert _outcome(lambda: evaluate_piecewise(pf, {"t": x}, ctx3)) == scalar


class TestDifferentiation:
    def _check_equal(self, got, expected, ctx, points=(1, 2, Fraction(5, 2), 9)):
        for v in points:
            x = ctx.scalar(v)
            assert evaluate(got, {"t": x}).value == evaluate(expected, {"t": x}).value

    def test_product_rule(self, ctx3):
        d = differentiate(parse_term("t*(t-1)"), "t")
        self._check_equal(d, parse_term("2*t - 1"), ctx3)

    def test_normval_is_locally_constant(self):
        assert differentiate(parse_term("normval(t)"), "t") == RationalConst(0)

    def test_negative_power(self, ctx3):
        d = differentiate(parse_term("t^-1"), "t")
        self._check_equal(d, parse_term("-1*t^-2"), ctx3)

    def test_quotient_rule(self, ctx5):
        d = differentiate(parse_term("(t+1)/(t-1)"), "t")
        self._check_equal(d, parse_term("-2/(t-1)^2"), ctx5, points=(2, 3, Fraction(1, 2)))

    def test_levelspike_derivative_zero(self):
        assert differentiate(parse_term("levelspike(t)"), "t") == RationalConst(0)

    def test_builtins_must_be_unary(self):
        with pytest.raises(ParseError, match="takes 1 argument"):
            parse_term("levelspike(t, t)")

    def test_normval_must_be_unary(self):
        with pytest.raises(ParseError, match="builtin 'normval' takes 1 argument") as err:
            parse_term("normval(x,x)")
        assert (err.value.line, err.value.col) == (1, 1)


# random integer-coefficient polynomial terms for the gradient check
poly_terms = st.recursive(
    st.one_of(
        st.integers(-9, 9).map(lambda n: RationalConst(Fraction(n))),
        st.just(Variable("t")),
    ),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda ab: Add(*ab)),
        st.tuples(inner, inner).map(lambda ab: Sub(*ab)),
        st.tuples(inner, inner).map(lambda ab: Mul(*ab)),
        st.tuples(inner, st.integers(0, 3)).map(lambda bk: IntPow(*bk)),
    ),
    max_leaves=12,
)


class TestDerivativeCorrectness:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(poly_terms, st.integers(-20, 20), st.integers(4, 9), st.sampled_from([2, 3, 5]))
    def test_ultrametric_gradient_check(self, f, x0, k, p):
        """For integer-coefficient polynomials and integer points, the Taylor
        remainder f(x+h) - f(x) - f'(x) h lies in p^(2 ord h) Z_p, so the
        difference quotient converges to f' at the rate of ord(h)."""
        ctx = PrimeContext(p)
        x = ctx.scalar(x0)
        h = ctx.scalar(Fraction(p) ** k)
        fprime = differentiate(f, "t")
        lhs = evaluate(f, {"t": x + h}) - evaluate(f, {"t": x})
        taylor = lhs - evaluate(fprime, {"t": x}) * h
        assert taylor.ord() >= 2 * k
        quotient_gap = lhs / h - evaluate(fprime, {"t": x})
        assert quotient_gap.ord() >= k


term_strategy = poly_terms  # round-trips reuse the generator plus extras


class TestRoundTrip:
    @settings(derandomize=True, deadline=None, max_examples=120)
    @given(term_strategy)
    def test_parse_print_roundtrip(self, t):
        assert parse_term(format_term(t)) == t

    def test_roundtrip_with_special_nodes(self):
        for src in (
            "normval(t)+1/2*t^-2",
            "levelspike(t)-t/(1+t)",
            "(t-1)*(t+1)/(3*t)",
            "-1*t^2 - -3",
        ):
            t = parse_term(src)
            assert parse_term(format_term(t)) == t

    def test_condition_roundtrip(self):
        for src in (
            "|t - 1| < |t| && t in 1*Q(1,2)",
            "ord(t) % 3 = 2 || !(|t| <= |9|)",
            "true && (|t| = |1| || t in -1/3*Q(2,4))",
        ):
            c = parse_condition(src)
            assert parse_condition(format_condition(c)) == c


# ---------------------------------------------------------------------------
# the compiled evaluator against the tree walk

# small values, so that differences hit 0 (poles, normval(0)) and levelspike
# sees points of ord < 1 as well as its marked balls
_small = st.sampled_from([0, 1, -1, 2, 3, 9, 4, -8, Fraction(1, 2), Fraction(1, 3), Fraction(-2, 9), Fraction(5, 4)])

_leaves = st.one_of(
    _small.map(RationalConst),
    st.sampled_from([Variable("x"), Variable("x"), Variable("y")]),
)


def _node(inner):
    return st.one_of(
        st.builds(Add, inner, inner),
        st.builds(Sub, inner, inner),
        st.builds(Mul, inner, inner),
        st.builds(Div, inner, inner),
        st.builds(IntPow, inner, st.integers(-3, 3)),
        st.builds(NormVal, inner),
        st.builds(LevelSpike, inner),
    )


random_terms = st.recursive(_leaves, _node, max_leaves=8)

random_conditions = st.recursive(
    st.one_of(
        st.just(TrueCond()),
        st.builds(NormCmp, random_terms, st.sampled_from(["<", "<=", "="]), random_terms),
        st.builds(OrdCongruence, random_terms, st.integers(1, 3), st.integers(0, 2)),
        st.builds(CosetMember, random_terms, _small.map(Fraction), st.integers(1, 2), st.integers(1, 2)),
    ),
    lambda inner: st.one_of(
        st.builds(And, inner, inner), st.builds(Or, inner, inner), st.builds(Not, inner)
    ),
    max_leaves=4,
)

random_piecewise = st.builds(
    PiecewiseFunction,
    st.just(("x", "y")),
    st.lists(st.tuples(random_conditions, random_terms), min_size=1, max_size=3).map(tuple),
)


class TestFreeVariables:
    def test_order_of_first_occurrence(self):
        t = parse_term("y*(x+y) - z")
        assert free_variables(t) == ("y", "x", "z")

    def test_declared_but_unused_names_are_not_reported(self):
        pf = parse("piecewise(z, y, x) { |x| <= |1| -> x^2 ; !(|x| <= |1|) -> 1 }")
        assert pf.variables == ("z", "y", "x")
        assert free_variables(pf) == ("x",)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.one_of(random_terms, random_conditions, random_piecewise))
    def test_the_field_walk_matches_the_class_ladder(self, node):
        assert free_variables(node) == oracles.walk_free_variables(node)


@st.composite
def _points(draw):
    """(ctx, point): x always bound, y bound half of the time."""
    ctx = PrimeContext(draw(st.sampled_from([2, 3, 5])))
    point = {"x": ctx.scalar(draw(_small))}
    if draw(st.booleans()):
        point["y"] = ctx.scalar(draw(_small))
    return ctx, point


def _raw(point):
    """The raw binding that compiled closures read: each scalar's value."""
    return {name: v.value for name, v in point.items()}


def _outcome(run, ctx=None):
    """What a call gives: its value (and the value's type), or its error.
    With ctx, the call gives a raw value, read as a scalar of ctx."""
    try:
        value = run()
    except Exception as err:
        return "raises", type(err), str(err)
    if isinstance(value, bool):
        return "holds", value
    raw, context = (value, ctx) if ctx is not None else (value.value, value.context)
    assert (raw.__class__ is int) == (Fraction(raw).denominator == 1)
    return "value", raw.__class__, raw, context


class TestCompiledAgainstTheWalk:
    @settings(derandomize=True, deadline=None, max_examples=600)
    @given(random_terms, _points())
    def test_terms(self, t, at):
        ctx, point = at
        expected = _outcome(lambda: oracles._eval(t, point, ctx))
        assert _outcome(lambda: evaluate(t, point, ctx)) == expected
        assert _outcome(lambda: compile_value(t, ctx)(_raw(point)), ctx) == expected

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(random_conditions, _points())
    def test_conditions(self, c, at):
        ctx, point = at
        expected = _outcome(lambda: oracles._eval_cond(c, point, ctx))
        assert _outcome(lambda: eval_condition(c, point, ctx)) == expected
        assert _outcome(lambda: compile_condition(c, ctx)(_raw(point))) == expected

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(random_piecewise, _points())
    def test_piecewise(self, pf, at):
        ctx, point = at
        expected = _outcome(lambda: oracles.walk_piecewise(pf, point, ctx))
        assert _outcome(lambda: evaluate_piecewise(pf, point, ctx)) == expected

    @pytest.mark.parametrize(
        "source, x, error",
        [
            # the denominator is evaluated first
            ("(1/(x-x))/(x-1)", 1, "division by zero in subterm 'x-1'"),
            ("(x-1)^-2", 1, "division by zero in subterm '(x-1)^-2'"),
            ("normval(x-1)", 1, "normval is declared on nonzero arguments"),
            ("levelspike(x+1)", 1, "levelspike is defined on p*Z_p and at 0"),
            ("x + y", 1, "unbound variable 'y'"),
        ],
    )
    def test_errors(self, ctx3, source, x, error):
        t = parse_term(source)
        point = {"x": ctx3.scalar(x)}
        expected = _outcome(lambda: oracles._eval(t, point, ctx3))
        assert expected[2] == error
        assert _outcome(lambda: evaluate(t, point, ctx3)) == expected

    def test_not_a_node(self, ctx3):
        for node, walk, run in (
            (Add(Variable("x"), "x"), oracles._eval, evaluate),
            (None, oracles._eval, evaluate),
            (Not("x"), oracles._eval_cond, eval_condition),
        ):
            expected = _outcome(lambda: walk(node, {"x": ctx3.scalar(1)}, ctx3))
            assert expected[1] is TypeError
            assert _outcome(lambda: run(node, {"x": ctx3.scalar(1)}, ctx3)) == expected

    def test_compiled_kernels_call_no_scalar_method(self, ctx3, monkeypatch):
        """A compiled coset membership and a compiled levelspike read raw
        values: with PadicScalar.ord and .ac refused, they still give the
        walk's answers."""
        c = parse_condition("x*(x+1) in 2/9*Q(2,1) || levelspike(3*x) in 1*Q(1,2)")
        t = parse_term("levelspike(x) + levelspike(x^2 - 9) + levelspike(3*x)")
        xs = (0, 1, 3, 6, 9, 3 + 27, 3 + 9, 9 + 3**6, Fraction(3, 2), Fraction(1, 3), -3)
        points = [{"x": ctx3.scalar(x)} for x in xs]
        expected = [
            (_outcome(lambda: oracles._eval_cond(c, pt, ctx3)), _outcome(lambda: oracles._eval(t, pt, ctx3)))
            for pt in points
        ]
        holds, value_at = compile_condition(c, ctx3), compile_value(t, ctx3)

        def refused(*args):
            raise AssertionError("a compiled kernel called a PadicScalar method")

        monkeypatch.setattr(PadicScalar, "ord", refused)
        monkeypatch.setattr(PadicScalar, "ac", refused)
        got = [(_outcome(lambda: holds(_raw(pt))), _outcome(lambda: value_at(_raw(pt)), ctx3)) for pt in points]
        assert got == expected
        outcomes = [o for pair in expected for o in pair]
        assert {("holds", True), ("holds", False)} <= set(outcomes)
        assert any(o[0] == "value" and o[2] for o in outcomes) and any(o[0] == "raises" for o in outcomes)

    def test_invalid_coset_depths_raise_after_the_term(self, ctx3):
        for x in (0, 1):
            c = CosetMember(parse_term("1/x"), Fraction(1), 0, 1)
            point = {"x": ctx3.scalar(x)}
            expected = _outcome(lambda: oracles._eval_cond(c, point, ctx3))
            assert expected[1] is (DivisionByZero if x == 0 else ValueError)
            assert _outcome(lambda: eval_condition(c, point, ctx3)) == expected


# one literal per node class of the language, with its free variables
_NODE_SAMPLES = {
    Variable: ("x", ("x",)),
    RationalConst: ("-3/4", ()),
    Add: ("x+y", ("x", "y")),
    Sub: ("y-x", ("y", "x")),
    Mul: ("2*x", ("x",)),
    Div: ("x/(y-1)", ("x", "y")),
    IntPow: ("x^-2", ("x",)),
    NormVal: ("normval(x)", ("x",)),
    LevelSpike: ("levelspike(y*x)", ("y", "x")),
    NormCmp: ("|x| < |y|", ("x", "y")),
    OrdCongruence: ("ord(x) % 2 = 1", ("x",)),
    CosetMember: ("y in 1*Q(1,1)", ("y",)),
    And: ("|x| <= |1| && |y| = |x|", ("x", "y")),
    Or: ("|x| < |y| || true", ("x", "y")),
    Not: ("!(x in -1*Q(1,2))", ("x",)),
    TrueCond: ("true", ()),
}


class TestClosedLanguage:
    """Every node class has a sample, and every dispatcher takes it: a node
    added without one, or missed by the parser, the printer, free_variables,
    the compiler, the oracle walk or differentiate, fails here."""

    def test_the_samples_are_exactly_the_node_classes(self):
        assert set(_NODE_SAMPLES) == set(Term.__subclasses__()) | set(Condition.__subclasses__())

    @pytest.mark.parametrize("cls", list(_NODE_SAMPLES), ids=lambda cls: cls.__name__)
    def test_every_dispatcher_takes_the_node(self, cls):
        source, names = _NODE_SAMPLES[cls]
        is_term = issubclass(cls, Term)
        node = (parse_term if is_term else parse_condition)(source)
        assert type(node) is cls
        text = (format_term if is_term else format_condition)(node)
        assert (parse_term if is_term else parse_condition)(text) == node
        assert free_variables(node) == names
        walk, run = (oracles._eval, compile_value) if is_term else (oracles._eval_cond, compile_condition)
        answered = 0
        for p in (2, 3, 5):
            ctx = PrimeContext(p)
            for x, y in ((0, 1), (1, p), (p, 1), (p + p**3, p), (Fraction(1, p), 1)):
                point = {"x": ctx.scalar(x), "y": ctx.scalar(y)}
                expected = _outcome(lambda: walk(node, point, ctx))
                assert _outcome(lambda: run(node, ctx)(_raw(point)), ctx) == expected, (p, x, y)
                answered += expected[0] != "raises"
        assert answered, "no sample point gives a value"
        if is_term:
            d = differentiate(node, "x")
            assert isinstance(d, Term)


class TestCompiledMemo:
    def test_an_entry_goes_with_its_term(self, ctx3, ctx5):
        """A compiled form lives on its node, so a dead node takes it along;
        a top-level negative power keeps its node to raise DivisionByZero."""
        sources = ["x^2 + 1", "(x+1)^-1", "(x+7)^-1", "1/(x-1)", "normval(x) + levelspike(x)"]
        for source in sources:
            t = parse_term(source)
            for ctx in (ctx3, ctx5):
                evaluate(t, {"x": ctx.scalar(ctx.p)})
            refs = [weakref.ref(t), weakref.ref(compile_value(t, ctx3))]
            del t
            gc.collect()
            assert all(ref() is None for ref in refs), source
        c = parse_condition("|1/(x-1)| < |1| && x in 1*Q(1,1)")
        pf = parse("piecewise(x) { |x| <= |1| -> (x+1)^-1 ; |1| < |x| -> x }")
        point = {"x": ctx3.scalar(3)}
        eval_condition(c, point)
        evaluate_piecewise(pf, point)
        refs = [weakref.ref(c), weakref.ref(compile_condition(c, ctx3)), weakref.ref(pf)]
        del c, pf
        gc.collect()
        assert all(ref() is None for ref in refs)

    def test_a_node_keeps_one_form_per_prime(self, ctx3, ctx5):
        t = parse_term("x^2 + 1")
        f3, f5 = compile_value(t, ctx3), compile_value(t, ctx5)
        assert compile_value(t, ctx3) is f3 and compile_value(t, ctx5) is f5 and f3 is not f5
        assert f3({"x": 3}) == 10
        assert f5({"x": 3}) == 10
        c = parse_condition("|x| < |1|")
        assert compile_condition(c, ctx3) is compile_condition(c, ctx3)

    def test_the_scalar_form_wraps_the_value_form(self, ctx3, monkeypatch):
        """A term used through both compile_value and evaluate, which wraps
        the compiled value in a scalar, compiles once per prime."""
        built = []
        compile_ = terms._compile
        monkeypatch.setattr(terms, "_compile", lambda t, ctx: (built.append(t), compile_(t, ctx))[1])
        t = parse_term("normval(x) + 1/(x-1)")
        point = {"x": ctx3.scalar(3)}
        assert compile_value(t, ctx3)(_raw(point)) == Fraction(5, 6)  # |3| + 1/2
        assert evaluate(t, point) == ctx3.scalar(Fraction(5, 6))
        assert evaluate(t, point, ctx3) == ctx3.scalar(Fraction(5, 6))
        assert [n for n in built if n is t] == [t]

    def test_an_evaluated_term_pickles_and_copies(self, ctx3):
        """Pickles and copies leave every per-node cache out: the compiled
        forms, the polynomial normal form and the derivatives."""
        f = parse_term("x^3 + 2*x")
        assert isinstance(check_jacobian_on_ball(f, Ball(ctx3.scalar(1), 1), 2), JacobianCertificate)
        fprime = differentiate(f, "x")
        # the certificate comes from f's Taylor shift, which compiles neither
        compile_value(f, ctx3)
        compile_value(fprime, ctx3)
        assert {3, "polynomial", ("derivative", "x")} <= set(vars(f)["_cache"])
        assert {3, "polynomial"} <= set(vars(fprime)["_cache"])
        t = parse_term("normval(x) + 1/(x-1) + levelspike(3*x)")
        c = parse_condition("|x| < |1| && x in 1*Q(1,1)")
        point = {"x": ctx3.scalar(3)}
        evaluate(t, point)
        eval_condition(c, point)
        for node in (f, fprime, t, c):
            for twin in (
                pickle.loads(pickle.dumps(node)),
                copy.deepcopy(node),
                copy.copy(node),
            ):
                assert twin == node and twin is not node
                assert "_cache" not in vars(twin)
        assert evaluate(copy.deepcopy(t), point) == evaluate(t, point)
        assert evaluate(pickle.loads(pickle.dumps(f)), point) == evaluate(f, point)


# ---------------------------------------------------------------------------
# the polynomial normal form and its Horner path

# one-variable polynomial trees: constants with denominators, monomials
# c*x, division by nonzero constants, and subtrees that cancel (a - a, a * 0)
_poly_leaves = st.one_of(
    st.sampled_from([0, 1, -1, 2, 3, -7, 12, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(9, 10)]).map(
        RationalConst
    ),
    st.just(Variable("x")),
    st.sampled_from([2, -3, Fraction(1, 2)]).map(lambda c: Mul(RationalConst(c), Variable("x"))),
)
_nonzero_consts = st.sampled_from([1, -1, 2, 3, -6, 25, Fraction(1, 3), Fraction(-4, 5), Fraction(8, 9)])


def _poly_node(inner):
    return st.one_of(
        st.builds(Add, inner, inner),
        st.builds(Sub, inner, inner),
        st.builds(Mul, inner, inner),
        st.builds(IntPow, inner, st.integers(0, 4)),
        st.builds(Div, inner, _nonzero_consts.map(RationalConst)),
        inner.map(lambda a: Sub(a, a)),
        inner.map(lambda a: Mul(a, RationalConst(0))),
    )


random_polynomials = st.recursive(_poly_leaves, _poly_node, max_leaves=8)

# int points and Fraction points, with negative ords at every prime used
_poly_points = st.one_of(
    st.integers(-40, 40),
    st.builds(Fraction, st.integers(-40, 40), st.sampled_from([2, 3, 4, 5, 9, 25, 7, 8, 27])),
)


def _shifted(var, coeffs, den):
    """(var, coeffs, den) of the derivative, by the coefficient shift."""
    shifted = [i * a for i, a in enumerate(coeffs)][1:]
    while shifted and not shifted[-1]:
        shifted.pop()
    g = math.gcd(den, *shifted)
    return var, tuple(a // g for a in shifted), den // g


class TestPolynomial:
    def test_normal_forms(self):
        assert polynomial(parse_term("-17*x^3+3*x^2-22*x+14")) == ("x", (14, -22, 3, -17), 1)
        assert polynomial(parse_term("(x^3 - x)/6")) == ("x", (0, -1, 0, 1), 6)
        assert polynomial(parse_term("(x+1)^2/(-4)")) == ("x", (-1, -2, -1), 4)
        assert polynomial(parse_term("1/2*2")) == (None, (1,), 1)
        assert polynomial(parse_term("2/3")) == (None, (2,), 3)
        assert polynomial(parse_term("(2*x)^3 - (x/3)^2")) == ("x", (0, 0, -1, 72), 9)
        # the variable stays named where its coefficients cancel
        assert polynomial(parse_term("x - x")) == ("x", (), 1)
        assert polynomial(parse_term("(x-x)^0")) == ("x", (1,), 1)
        assert polynomial(Add(Variable("x"), "x")) is None and polynomial(None) is None

    @pytest.mark.parametrize(
        "source",
        ["x/(1-1)", "x/0", "x/x", "x^-1", "x*y", "normval(x)", "levelspike(x)", "1 + normval(x)"],
    )
    def test_what_is_not_a_polynomial(self, source):
        assert polynomial(parse_term(source)) is None

    def test_a_polynomial_raises_only_for_its_unbound_variable(self, ctx3):
        for source in ("x - x", "(x - x)^0 + 1", "x*0/5"):
            t = parse_term(source)
            with pytest.raises(UnboundVariableError, match="unbound variable 'x'"):
                compile_value(t, ctx3)({})
        # a constant denominator that is not a literal is not a polynomial
        t = parse_term("x/(1-1)")
        with pytest.raises(DivisionByZero, match="subterm '1-1'"):
            evaluate(t, {"x": ctx3.scalar(2)})

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(random_polynomials, _poly_points, st.sampled_from([2, 3, 5]))
    def test_horner_against_the_walk(self, t, x, p):
        ctx = PrimeContext(p)
        assert polynomial(t) is not None
        point = {"x": ctx.scalar(x)}
        expected = _outcome(lambda: oracles._eval(t, point, ctx))
        assert expected[0] == "value"
        assert _outcome(lambda: compile_value(t, ctx)(_raw(point)), ctx) == expected
        unbound = _outcome(lambda: compile_value(t, ctx)({}), ctx)
        assert unbound == _outcome(lambda: oracles._eval(t, {}, ctx))
        if "x" in free_variables(t):
            assert unbound[:2] == ("raises", UnboundVariableError)

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(random_polynomials)
    def test_the_derivative_is_the_coefficient_shift(self, t):
        d = differentiate(t, "x")
        assert d is differentiate(t, "x")
        var, coeffs, den = polynomial(d)
        expected = _shifted(*polynomial(t))
        assert (coeffs, den) == expected[1:]
        assert var == expected[0] or (var is None and len(coeffs) <= 1)

    def test_a_taylor_shift(self):
        # (1 + 3y)^3 + 2(1 + 3y) = 3 + 15y + 27y^2 + 27y^3
        assert taylor_shift(polynomial(parse_term("x^3 + 2*x")), 1, 3) == [3, 15, 27, 27]
        # (1/2 - y/3)^2 / 4 = 1/16 - y/12 + y^2/36
        poly = polynomial(parse_term("x^2/4"))
        assert taylor_shift(poly, Fraction(1, 2), Fraction(-1, 3)) == [
            Fraction(1, 16), Fraction(-1, 12), Fraction(1, 36)
        ]
        assert taylor_shift(polynomial(parse_term("x - x")), 5, 2) == []
        assert taylor_shift(polynomial(parse_term("2/3")), 5, 2) == [Fraction(2, 3)]

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(
        random_polynomials,
        _poly_points,
        st.sampled_from([1, -1, 9, -4, Fraction(1, 27), Fraction(-1, 2), Fraction(5, 3)]),
    )
    def test_the_taylor_shift_evaluates_back(self, t, centre, step):
        """sum of b_i y^i is the Horner value of t at centre + step * y, and
        each b_i is a raw value."""
        ctx = PrimeContext(3)
        poly = polynomial(t)
        b = taylor_shift(poly, centre, step)
        assert len(b) == len(poly[1])
        assert all(c.__class__ is int or c.denominator != 1 for c in b)
        t_at = compile_value(t, ctx)
        for y in (0, 1, -2, 5, Fraction(1, 3), Fraction(-7, 4)):
            x = ctx.scalar(centre + step * y)
            assert sum(c * y**i for i, c in enumerate(b)) == t_at({"x": x.value})

    def test_a_term_keeps_its_derivative(self, ctx3):
        f = parse_term("x^3 + 2*x")
        assert differentiate(f, "x") is differentiate(f, "x")
        assert differentiate(f, "y") is differentiate(f, "y") != differentiate(f, "x")
        # f(y) = y^3 + 2y fails the Taylor-shift test, so the check compiles f'
        ball = Ball(ctx3.scalar(0), 0)
        check_jacobian_on_ball(f, ball, 2)
        compiled = compile_value(differentiate(f, "x"), ctx3)
        check_jacobian_on_ball(f, ball, 3)
        assert compile_value(differentiate(f, "x"), ctx3) is compiled
