"""Evaluation, the polynomial normal form and differentiation of syntax's nodes.

Evaluation compiles once per analysis.  compile_value and compile_condition
give closures over raw bindings, variable names to int and Fraction values
(an int when integral), and no compiled closure builds or reads a
PadicScalar.  evaluate, eval_condition and evaluate_piecewise take a point
of scalars, raw values or both: they check the scalars against the context
and unwrap them once, and evaluate and evaluate_piecewise wrap the one value
they return.  A polynomial in one variable (see polynomial)
runs Horner's rule on ints; every other node is a closure over its
children's forms.  taylor_shift reads a polynomial about a ball
c + p^r Z_p, in O(degree^2) int steps, for jacobian's Taylor-shift test.
A node keeps its compiled form for each prime, its polynomial normal form
and its derivatives, so they go when the node does; pickles and copies
leave them out.  Errors are those of a walk over the tree: a Div tests its
denominator first and reports it, and a negative power of 0 reports the
power.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd
from typing import Callable, Mapping, Optional

from .qp_core import INFINITE_ORD, CosetSpec, PadicScalar, PrimeContext, in_coset, valuation
from .syntax import (
    Add, And, Condition, CosetMember, Div, IntPow, LevelSpike, Mul, NormCmp, NormVal, Not,
    OrdCongruence, Or, PiecewiseFunction, RationalConst, Sub, Term, TermError, TrueCond, Variable,
    format_term, parse, parse_condition, parse_term,
)

__all__ = [
    # re-exported: the benchmark's tracer and workloads look the parsers up here
    "parse",
    "parse_term",
    "parse_condition",
    "evaluate",
    "evaluate_piecewise",
    "eval_condition",
    "compile_value",
    "compile_condition",
    "differentiate",
    "polynomial",
    "taylor_shift",
    "EvaluationError",
    "UnboundVariableError",
    "DivisionByZero",
    "BuiltinDomainError",
    "PieceOverlapError",
    "PieceDomainError",
]

# the nodes that keep their compiled forms, normal form and derivatives
_NODES = (Term, Condition, PiecewiseFunction)


# ---------------------------------------------------------------------------
# errors


class EvaluationError(TermError):
    pass


class UnboundVariableError(EvaluationError):
    pass


class DivisionByZero(EvaluationError):
    """Division by an exactly-zero subterm; carries the offending node."""

    def __init__(self, subterm: "Term"):
        super().__init__(f"division by zero in subterm {format_term(subterm)!r}")
        self.subterm = subterm


class BuiltinDomainError(EvaluationError):
    pass


class PieceOverlapError(EvaluationError):
    pass


class PieceDomainError(EvaluationError):
    pass


# ---------------------------------------------------------------------------
# evaluation


def _bind(point: Mapping, ctx: Optional[PrimeContext]) -> tuple:
    """(ctx, the raw binding of point).  Every scalar of the point must lie
    in ctx, or in the context of the first scalar when ctx is None; a point
    with no scalar needs ctx.  A point with no scalar is its own binding."""
    raw = None
    for name, v in point.items():
        if isinstance(v, PadicScalar):
            if ctx is not None and v.context is not ctx:
                raise EvaluationError("point values disagree with the supplied context")
            ctx = v.context
            if raw is None:
                raw = dict(point)
            raw[name] = v.value
    if ctx is None:
        raise EvaluationError("no prime context available (empty point, no ctx)")
    return ctx, point if raw is None else raw


def evaluate(t: Term, point: Mapping, ctx: Optional[PrimeContext] = None) -> PadicScalar:
    """Exact evaluation of a term at a rational point.

    point maps variable names to PadicScalar values sharing one context, to
    raw values (an int, or a Fraction in lowest terms) read in ctx, or to
    both.
    """
    ctx, binding = _bind(point, ctx)
    return PadicScalar(compile_value(t, ctx)(binding), ctx)


def eval_condition(c: Condition, point: Mapping, ctx: Optional[PrimeContext] = None) -> bool:
    """Exact truth value of a condition at a rational point, given as for
    evaluate."""
    ctx, binding = _bind(point, ctx)
    return _memoised(c, ctx, _compile_cond)(binding)


def evaluate_piecewise(
    pf: PiecewiseFunction, point: Mapping, ctx: Optional[PrimeContext] = None
) -> PadicScalar:
    """Evaluate a piecewise function at a point given as for evaluate;
    exactly one piece condition may hold."""
    ctx, point = _bind(point, ctx)
    pieces = _memoised(pf, ctx, _compile_pieces)
    matches = [body for cond, body in pieces if cond(point)]
    if not matches:
        raise PieceDomainError(f"no piece covers the point {_point_str(point)}")
    if len(matches) > 1:
        raise PieceOverlapError(f"pieces overlap at the point {_point_str(point)}")
    return PadicScalar(matches[0](point), ctx)


def compile_value(t: Term, ctx: PrimeContext) -> Callable:
    """t as a function of a raw binding (variable names to ints and
    Fractions in lowest terms, read in ctx) that returns the value of the
    PadicScalar evaluate would: an int, or a Fraction when it is not
    integral.  A polynomial (see
    polynomial) and each polynomial subterm of another term run Horner's
    rule on ints; every other node is a closure over its children's."""
    return _memoised(t, ctx, _compile)


def compile_condition(c: Condition, ctx: PrimeContext) -> Callable:
    """c as a function of a raw binding that returns the bool eval_condition
    would."""
    return _memoised(c, ctx, _compile_cond)


def _memoised(node, ctx: PrimeContext, build: Callable) -> Callable:
    # the hit first: it allocates nothing and tests no class
    try:
        return node.__dict__["_cache"][ctx.p]
    except (AttributeError, KeyError):
        pass
    if not isinstance(node, _NODES):  # compiled raises the walk's TypeError
        return build(node, ctx)
    compiled = node.__dict__.setdefault("_cache", {})[ctx.p] = build(node, ctx)
    return compiled


def _compile_pieces(pf: PiecewiseFunction, ctx: PrimeContext) -> tuple:
    return tuple((_compile_cond(cond, ctx), _compile(body, ctx)) for cond, body in pf.pieces)


def _levelspike_value(x: "int | Fraction", p: int) -> int:
    """The value of LevelSpike at the raw value x: p^(2n) when x lies in
    the marked ball p^n + p^(3n) Z_p of its level n = ord(x), else 0."""
    if not x:
        return 0
    n = valuation(x, p)
    if n < 1:
        raise BuiltinDomainError("levelspike is defined on p*Z_p and at 0")
    return p ** (2 * n) if valuation(x - p**n, p) >= 3 * n else 0


def polynomial(t) -> Optional[tuple]:
    """(var, coeffs, D) with t = (sum of coeffs[i] * var^i) / D, when t is a
    polynomial in at most one variable: a tree of Add, Sub, Mul, IntPow
    with exponent >= 0, RationalConst, Variable, and Div by a nonzero
    RationalConst.  None for any other node.

    The coefficients are ints from degree 0 up, with no trailing 0, and D
    is a positive int coprime to them.  var is None for a constant, and
    names the variable even where its coefficients cancel, as in t - t.
    The form is built bottom-up in one walk and kept on t."""
    if t.__class__ in (RationalConst, Variable) or not isinstance(t, Term):
        return _normal_form(t)
    cache = t.__dict__.setdefault("_cache", {})
    if "polynomial" not in cache:
        cache["polynomial"] = _normal_form(t)
    return cache["polynomial"]


def _normal_form(t) -> Optional[tuple]:
    # exact classes: a subclass of a node is not read as a polynomial, and
    # compiles to the closures
    cls = t.__class__
    if cls is Variable:
        return t.name, (0, 1), 1
    if cls is RationalConst:
        value = t.value
        return None, (value.numerator,) if value else (), value.denominator
    if cls is IntPow:
        k = t.exponent
        base = _normal_form(t.base) if k >= 0 else None
        if base is None:
            return None
        var, coeffs, den = base
        out = [1]
        for _ in range(k):
            out = _times(coeffs, out)
        return _reduced(var, out, den**k)
    if cls is Div:
        c = t.right.value if t.right.__class__ is RationalConst else 0
        a = _normal_form(t.left) if c else None
        if a is None:
            return None
        var, coeffs, den = a  # a / (n/d) = a*d / n
        return _reduced(var, [c.denominator * x for x in coeffs], den * c.numerator)
    if cls is not Add and cls is not Sub and cls is not Mul:
        return None
    a = _normal_form(t.left)
    b = None if a is None else _normal_form(t.right)
    if b is None:
        return None
    var = a[0] if b[0] is None else b[0]
    if a[0] not in (None, var):
        return None  # two variables
    (_, p, dp), (_, q, dq) = a, b
    if cls is Mul:
        return _reduced(var, _times(p, q), dp * dq)
    if dp != dq:  # p/dp +- q/dq = (p*dq +- q*dp) / (dp*dq)
        p, q, dp = [x * dq for x in p], [x * dp for x in q], dp * dq
    if cls is Sub:
        q = [-x for x in q]
    if len(p) < len(q):
        p, q = q, p
    coeffs = list(p)
    for i, x in enumerate(q):
        coeffs[i] += x
    return _reduced(var, coeffs, dp)


def _times(p, q) -> list:
    """The coefficients of the product of two coefficient sequences."""
    out = [0] * (len(p) + len(q) - 1) if p and q else []
    for i, x in enumerate(p):
        if x:
            for j, y in enumerate(q, i):
                out[j] += x * y
    return out


def _reduced(var: Optional[str], coeffs: list, den: int) -> tuple:
    """The normal form of (sum of coeffs[i] * var^i) / den, for den != 0."""
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    g = gcd(den, *coeffs) if den != 1 else 1
    if den < 0:
        g = -g
    if g != 1:
        coeffs, den = [x // g for x in coeffs], den // g
    return var, tuple(coeffs), den


def taylor_shift(poly: tuple, centre: "int | Fraction", step: "int | Fraction") -> list:
    """The coefficients b_0..b_n of poly(centre + step * y), from degree 0
    up, as raw values: an int, or a Fraction in lowest terms.  poly is a
    normal form (see polynomial), and centre and step are raw values.

    With centre + step * y = (a + b * y) / e for ints a, b and e, the
    coefficients c_i * e^(n-i) are shifted by a with synthetic division,
    O(degree^2) steps on ints, and b_j is the j-th of them times b^j over
    D * e^n.  So only the last step leaves the ints, and only when the
    centre, the step or D is not an int."""
    _, coeffs, den = poly
    n = len(coeffs) - 1
    a, b, e = centre, step, 1
    if a.__class__ is not int or b.__class__ is not int:
        a, b = Fraction(a), Fraction(b)
        a, b, e = (
            a.numerator * b.denominator,
            b.numerator * a.denominator,
            a.denominator * b.denominator,
        )
    shifted = [c * e ** (n - i) for i, c in enumerate(coeffs)]
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            shifted[j] += a * shifted[j + 1]
    scale = den * e**n
    out = [c * b**j for j, c in enumerate(shifted)]
    if scale == 1:
        return out
    out = [Fraction(c, scale) for c in out]
    return [c.numerator if c.denominator == 1 else c for c in out]


def _horner(poly: tuple) -> Callable:
    """A closure from a raw binding to the value of poly, by Horner's rule on ints
    with one Fraction at the end when the value is not integral.  It reads
    its variable even where the coefficients cancel."""
    name, coeffs, den = poly
    if name is None:  # a constant, reduced: an int when den is 1
        c = coeffs[0] if coeffs else 0
        value = c if den == 1 else Fraction(c, den)
        return lambda point: value
    top, rest = (coeffs[-1], coeffs[-2::-1]) if coeffs else (0, ())

    def horner(point):
        try:
            x = point[name]
        except KeyError:
            raise UnboundVariableError(f"unbound variable {name!r}") from None
        acc = top
        if x.__class__ is int:
            for a in rest:
                acc = acc * x + a
            if den == 1:
                return acc
            r = Fraction(acc, den)
        else:
            # the sum of a_i n^i d^(k-i) over d^k, for x = n/d and degree k
            n, d, scale = x.numerator, x.denominator, 1
            for a in rest:
                scale *= d
                acc = acc * n + a * scale
            r = Fraction(acc, den * scale)
        return r.numerator if r.denominator == 1 else r

    return horner


_ARITHMETIC = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}


def _compile(t: Term, ctx: PrimeContext) -> Callable:
    """A closure from a raw binding to the value of t as an int, or as a Fraction
    when it is not integral.  A polynomial other than a leaf runs Horner's
    rule, which can raise only UnboundVariableError.  Every other error is
    raised where the tree walk raised it, so a Div tests its denominator
    before it reads the numerator."""
    if isinstance(t, RationalConst):
        value = t.value
        return lambda point: value
    if isinstance(t, Variable):
        name = t.name

        def variable(point):
            try:
                return point[name]
            except KeyError:
                raise UnboundVariableError(f"unbound variable {name!r}") from None

        return variable
    poly = polynomial(t)
    if poly is not None:
        return _horner(poly)
    op = next((op for cls, op in _ARITHMETIC.items() if isinstance(t, cls)), None)
    if op is not None:
        left, right = _compile(t.left, ctx), _compile(t.right, ctx)

        def arithmetic(point):
            r = op(left(point), right(point))
            return r if r.__class__ is int or r.denominator != 1 else r.numerator

        return arithmetic
    if isinstance(t, Div):
        left, right, denominator = _compile(t.left, ctx), _compile(t.right, ctx), t.right

        def divide(point):
            d = right(point)
            if not d:
                raise DivisionByZero(denominator)
            r = Fraction(left(point), d)
            return r.numerator if r.denominator == 1 else r

        return divide
    if isinstance(t, IntPow):
        base, k = _compile(t.base, ctx), t.exponent

        def power(point):
            b = base(point)
            if k < 0 and not b:
                raise DivisionByZero(t)
            r = Fraction(b) ** k
            return r.numerator if r.denominator == 1 else r

        return power
    if isinstance(t, NormVal):
        arg = _compile(t.arg, ctx)

        def normval(point):
            a = arg(point)
            if not a:
                raise BuiltinDomainError("normval is declared on nonzero arguments")
            return ctx.power(-valuation(a, ctx.p))

        return normval
    if isinstance(t, LevelSpike):
        arg, p = _compile(t.arg, ctx), ctx.p
        return lambda point: _levelspike_value(arg(point), p)

    def not_a_term(point):
        raise TypeError(f"not a term node: {t!r}")

    return not_a_term


# |a| < |b| exactly when ord a > ord b; ord 0 is INFINITE_ORD = math.inf,
# above every int, so 0 is the least norm
_NORM_ORDER = {"<": operator.gt, "<=": operator.ge, "=": operator.eq}


def _compile_cond(c: Condition, ctx: PrimeContext) -> Callable:
    """A closure from a raw binding to the truth value of c."""
    if isinstance(c, TrueCond):
        return lambda point: True
    if isinstance(c, NormCmp):
        lhs, rhs, op, p = _compile(c.lhs, ctx), _compile(c.rhs, ctx), c.op, ctx.p
        order = _NORM_ORDER.get(op)

        def norm_cmp(point):
            a = valuation(lhs(point), p)
            b = valuation(rhs(point), p)
            if order is None:
                raise ValueError(f"unknown norm comparison {op!r}")
            return order(a, b)

        return norm_cmp
    if isinstance(c, OrdCongruence):
        term, modulus, residue, p = _compile(c.term, ctx), c.modulus, c.residue, ctx.p

        def ord_congruence(point):
            v = valuation(term(point), p)
            return v != INFINITE_ORD and v % modulus == residue

        return ord_congruence
    if isinstance(c, CosetMember):
        term, lam, m, n = _compile(c.term, ctx), PadicScalar(c.lam, ctx), c.m, c.n
        if m < 1 or n < 1:
            # built per call, so the ValueError is raised where the walk did
            return lambda point: in_coset(term(point), CosetSpec(lam, m, n))
        spec = CosetSpec(lam, m, n)
        return lambda point: in_coset(term(point), spec)
    if isinstance(c, (And, Or)):
        left, right = _compile_cond(c.left, ctx), _compile_cond(c.right, ctx)
        if isinstance(c, And):
            return lambda point: left(point) and right(point)
        return lambda point: left(point) or right(point)
    if isinstance(c, Not):
        inner = _compile_cond(c.inner, ctx)
        return lambda point: not inner(point)

    def not_a_condition(point):
        raise TypeError(f"not a condition node: {c!r}")

    return not_a_condition


def _point_str(point: Mapping) -> str:
    return "{" + ", ".join(f"{k}={v}" for k, v in sorted(point.items())) + "}"


# ---------------------------------------------------------------------------
# symbolic differentiation

_ZERO = RationalConst(Fraction(0))
_ONE = RationalConst(Fraction(1))


def _is_const(t: Term, value: int) -> bool:
    return isinstance(t, RationalConst) and t.value == value


def _add(a: Term, b: Term) -> Term:
    if _is_const(a, 0):
        return b
    if _is_const(b, 0):
        return a
    return Add(a, b)


def _sub(a: Term, b: Term) -> Term:
    if _is_const(b, 0):
        return a
    if _is_const(a, 0) and isinstance(b, RationalConst):
        return RationalConst(-b.value)
    return Sub(a, b)


def _mul(a: Term, b: Term) -> Term:
    if _is_const(a, 0) or _is_const(b, 0):
        return _ZERO
    if _is_const(a, 1):
        return b
    if _is_const(b, 1):
        return a
    return Mul(a, b)


def differentiate(t: Term, var: str) -> Term:
    """Symbolic derivative with respect to var, kept on t, so a term is
    differentiated and its derivative compiled once per variable.

    normval and levelspike differentiate to zero: both are locally
    constant where they are defined.  The derivative of a polynomial (see
    polynomial) is a polynomial.
    """
    if not isinstance(t, _NODES):
        return _derivative(t, var)  # raises the TypeError
    cache = t.__dict__.setdefault("_cache", {})
    key = ("derivative", var)
    derivative = cache.get(key)
    if derivative is None:
        derivative = cache[key] = _derivative(t, var)
    return derivative


def _derivative(t: Term, var: str) -> Term:
    if isinstance(t, RationalConst):
        return _ZERO
    if isinstance(t, Variable):
        return _ONE if t.name == var else _ZERO
    if isinstance(t, Add):
        return _add(_derivative(t.left, var), _derivative(t.right, var))
    if isinstance(t, Sub):
        return _sub(_derivative(t.left, var), _derivative(t.right, var))
    if isinstance(t, Mul):
        return _add(
            _mul(_derivative(t.left, var), t.right),
            _mul(t.left, _derivative(t.right, var)),
        )
    if isinstance(t, Div):
        if isinstance(t.right, RationalConst) and t.right.value:
            return Div(_derivative(t.left, var), t.right)
        num = _sub(
            _mul(_derivative(t.left, var), t.right),
            _mul(t.left, _derivative(t.right, var)),
        )
        return Div(num, IntPow(t.right, 2))
    if isinstance(t, IntPow):
        if t.exponent == 0:
            return _ZERO
        inner = _derivative(t.base, var)
        scaled = _mul(RationalConst(Fraction(t.exponent)), IntPow(t.base, t.exponent - 1))
        return _mul(scaled, inner)
    if isinstance(t, (NormVal, LevelSpike)):
        return _ZERO
    raise TypeError(f"not a term node: {t!r}")
