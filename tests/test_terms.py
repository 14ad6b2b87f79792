import copy
import gc
import importlib
import pickle
import sys
import types
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from ultralip.qp_core import PrimeContext
from ultralip.terms import (
    Add,
    And,
    BuiltinDomainError,
    Condition,
    CosetMember,
    DivisionByZero,
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
    PieceOverlapError,
    PiecewiseFunction,
    RationalConst,
    Sub,
    Term,
    TrueCond,
    UnboundVariableError,
    Variable,
    compile_condition,
    compile_term,
    differentiate,
    eval_condition,
    evaluate,
    evaluate_piecewise,
    format_condition,
    format_term,
    free_variables,
    parse,
    parse_condition,
    parse_term,
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

    def test_levelspike_needs_only_the_terms_module(self, monkeypatch):
        """levelspike is a node of terms itself, not something that importing
        the package (whose __init__ also loads lipschitz) adds."""
        pkg = types.ModuleType("_ul")
        pkg.__path__ = [str(Path(__file__).resolve().parents[1] / "src" / "ultralip")]
        monkeypatch.setitem(sys.modules, "_ul", pkg)
        try:
            terms = importlib.import_module("_ul.terms")
            assert "_ul.lipschitz" not in sys.modules
            assert type(terms.parse_term("levelspike(t)")) is terms.LevelSpike
        finally:
            for name in [n for n in sys.modules if n.startswith("_ul.")]:
                del sys.modules[name]

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
    @settings(max_examples=60, deadline=None)
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
    @settings(max_examples=120, deadline=None)
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


class TestFreeVariables:
    def test_order_of_first_occurrence(self):
        t = parse_term("y*(x+y) - z")
        assert free_variables(t) == ("y", "x", "z")


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


@st.composite
def _points(draw):
    """(ctx, point): x always bound, y bound half of the time."""
    ctx = PrimeContext(draw(st.sampled_from([2, 3, 5])))
    point = {"x": ctx.scalar(draw(_small))}
    if draw(st.booleans()):
        point["y"] = ctx.scalar(draw(_small))
    return ctx, point


def _outcome(run):
    """What a call gives: its value (and the value's type), or its error."""
    try:
        value = run()
    except Exception as err:
        return "raises", type(err), str(err)
    if isinstance(value, bool):
        return "holds", value
    assert (value.value.__class__ is int) == (Fraction(value.value).denominator == 1)
    return "value", value.value.__class__, value.value, value.context


class TestCompiledAgainstTheWalk:
    @settings(derandomize=True, deadline=None, max_examples=600)
    @given(random_terms, _points())
    def test_terms(self, t, at):
        ctx, point = at
        expected = _outcome(lambda: oracles._eval(t, point, ctx))
        assert _outcome(lambda: evaluate(t, point, ctx)) == expected
        assert _outcome(lambda: compile_term(t, ctx)(point)) == expected

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(random_conditions, _points())
    def test_conditions(self, c, at):
        ctx, point = at
        expected = _outcome(lambda: oracles._eval_cond(c, point, ctx))
        assert _outcome(lambda: eval_condition(c, point, ctx)) == expected
        assert _outcome(lambda: compile_condition(c, ctx)(point)) == expected

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
        walk, run = (oracles._eval, compile_term) if is_term else (oracles._eval_cond, compile_condition)
        answered = 0
        for p in (2, 3, 5):
            ctx = PrimeContext(p)
            for x, y in ((0, 1), (1, p), (p, 1), (p + p**3, p), (Fraction(1, p), 1)):
                point = {"x": ctx.scalar(x), "y": ctx.scalar(y)}
                expected = _outcome(lambda: walk(node, point, ctx))
                assert _outcome(lambda: run(node, ctx)(point)) == expected, (p, x, y)
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
            refs = [weakref.ref(t), weakref.ref(compile_term(t, ctx3))]
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
        f3, f5 = compile_term(t, ctx3), compile_term(t, ctx5)
        assert compile_term(t, ctx3) is f3 and compile_term(t, ctx5) is f5 and f3 is not f5
        assert f3({"x": ctx3.scalar(3)}) == ctx3.scalar(10)
        assert f5({"x": ctx5.scalar(3)}) == ctx5.scalar(10)
        c = parse_condition("|x| < |1|")
        assert compile_condition(c, ctx3) is compile_condition(c, ctx3)

    def test_an_evaluated_term_pickles_and_copies(self, ctx3):
        t = parse_term("normval(x) + 1/(x-1) + levelspike(3*x)")
        c = parse_condition("|x| < |1| && x in 1*Q(1,1)")
        point = {"x": ctx3.scalar(3)}
        evaluate(t, point)
        eval_condition(c, point)
        for node in (t, c):
            for twin in (
                pickle.loads(pickle.dumps(node)),
                copy.deepcopy(node),
                copy.copy(node),
            ):
                assert twin == node and twin is not node
                assert "_compiled" not in vars(twin)
        assert evaluate(copy.deepcopy(t), point) == evaluate(t, point)
