"""The scalar kernel against the Fraction-only formulas in tests/oracles.py.

PadicScalar keeps integers as int and everything else as Fraction, caches
its valuation as a plain int (INFINITE_ORD for zero), and shares one
context per prime.  These seeded
(derandomized) properties check that none of that changes a value, a
string, a hash, a valuation, an angular component or a residue.
"""

import copy
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    FRAC_OPS,
    frac_ac,
    frac_ord,
    frac_pow,
    frac_reduce_mod_power,
)
import ultralip.qp_core as qp_core
from ultralip.qp_core import INFINITE_ORD, PadicScalar, PrimeContext, residue, valuation
from ultralip.regions import Ball
from ultralip.syntax import parse_term
from ultralip.terms import EvaluationError, evaluate

seeded = settings(derandomize=True, deadline=None, max_examples=150)

primes = st.sampled_from([2, 3, 5, 7])
units = st.integers(-500, 500).filter(lambda n: n != 0)

OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


@st.composite
def rationals(draw, p):
    """Zero, small and negative integers, integers of large valuation, and
    rationals with p in numerator and denominator."""
    kind = draw(st.sampled_from(["zero", "small", "deep", "rational"]))
    if kind == "zero":
        return Fraction(0)
    if kind == "small":
        return Fraction(draw(st.integers(-10**6, 10**6)))
    if kind == "deep":
        return Fraction(draw(units) * p ** draw(st.integers(0, 300)))
    num = draw(units) * p ** draw(st.integers(0, 6))
    den = draw(units.map(abs)) * p ** draw(st.integers(0, 6))
    return Fraction(num, den)


@st.composite
def scalars(draw, count=1):
    p = draw(primes)
    values = [draw(rationals(p)) for _ in range(count)]
    return (p, *values)


def check_form(x, expected):
    """x holds exactly the rational `expected`, as an int when integral."""
    assert x.value == expected
    assert str(x) == str(expected)
    assert type(x.value) is (int if expected.denominator == 1 else Fraction)
    assert hash(x) == hash((expected, x.context))


class TestAgainstFractionOracle:
    @seeded
    @given(scalars())
    def test_construction_ord_ac_and_residues(self, drawn):
        p, a = drawn
        ctx = PrimeContext(p)
        for source in (a, str(a)) + ((a.numerator,) if a.denominator == 1 else ()):
            x = ctx.scalar(source)
            check_form(x, a)
            v = frac_ord(a, p)
            assert x.ord() == (INFINITE_ORD if v is None else v)
            assert type(x.ord()) is (float if v is None else int)
            assert x.norm_exponent() == (None if v is None else -v)
            for n in (1, 2, 3):
                assert x.ac(n) == frac_ac(a, p, n)
            for k in range(-3, 7):
                r = x.reduce_mod_power(k)
                check_form(r, frac_reduce_mod_power(a, p, k))

    @seeded
    @given(scalars())
    def test_raw_valuation_and_residue(self, drawn):
        """valuation and residue on the raw value of ints, Fractions and 0,
        for k <= 0 and k > 0."""
        p, a = drawn
        value = PrimeContext(p).scalar(a).value
        v = frac_ord(a, p)
        assert valuation(value, p) == (INFINITE_ORD if v is None else v)
        for k in range(-3, 7):
            r, want = residue(value, k, p), frac_reduce_mod_power(a, p, k)
            assert r == want
            assert type(r) is (int if want.denominator == 1 else Fraction)

    @seeded
    @given(scalars(count=2))
    def test_four_operations(self, drawn):
        p, a, b = drawn
        ctx = PrimeContext(p)
        x, y = ctx.scalar(a), ctx.scalar(b)
        for name, op in OPS.items():
            if name == "/" and b == 0:
                with pytest.raises(ZeroDivisionError):
                    op(x, y)
                continue
            z = op(x, y)
            want = FRAC_OPS[name](a, b)
            check_form(z, want)
            v = frac_ord(want, p)
            assert z.ord() == (INFINITE_ORD if v is None else v)
        check_form(-x, -a)
        assert (-x).ord() == x.ord()

    @seeded
    @given(scalars(), st.integers(-4, 5))
    def test_powers(self, drawn, k):
        p, a = drawn
        x = PrimeContext(p).scalar(a)
        if a == 0 and k < 0:
            with pytest.raises(ZeroDivisionError):
                x**k
            return
        check_form(x**k, frac_pow(a, k))

    @seeded
    @given(scalars(count=2))
    def test_order_and_equality(self, drawn):
        p, a, b = drawn
        ctx = PrimeContext(p)
        x, y = ctx.scalar(a), ctx.scalar(b)
        assert (x < y) == (a < b)
        assert (x <= y) == (a <= b)
        assert (x == y) == (a == b)
        assert (hash(x) == hash(y)) or a != b


class TestRepresentation:
    def test_int_and_fraction_sources_agree(self, ctx3):
        for n in (0, 3, -7, 3**40):
            a, b = ctx3.scalar(n), ctx3.scalar(Fraction(n))
            c = PadicScalar(Fraction(n * 5, 5), ctx3)
            assert a == b == c
            assert hash(a) == hash(b) == hash(c)
            assert type(a.value) is type(b.value) is type(c.value) is int
        assert ctx3.scalar(3, 2) == ctx3.scalar(Fraction(3, 2))
        assert type(ctx3.scalar(6, 2).value) is int

    def test_no_float_ever(self, ctx5):
        x, y = ctx5.scalar(10), ctx5.scalar(4)
        results = [x / y, y / y, x**-2, ctx5.scalar(1, 5) ** -1, x / x, (x / y) * y]
        for z in results:
            assert type(z.value) in (int, Fraction)
            assert (type(z.value) is int) == (Fraction(z.value).denominator == 1)
        half, third = ctx5.scalar(1, 2), ctx5.scalar(2, 3)
        sums = (half + half, third + ctx5.scalar(1, 3), half - half, half - ctx5.scalar(5, 2))
        for z in sums + (third * ctx5.scalar(3, 2),):
            assert type(z.value) is int
        assert type(ctx5.scalar(0.5).value) is Fraction
        assert type(ctx5.scalar(2.0).value) is int

    def test_context_mismatch_raises(self, ctx3, ctx5):
        x, y = ctx3.scalar(1), ctx5.scalar(1)
        for op in list(OPS.values()) + [operator.lt, operator.le]:
            with pytest.raises(ValueError):
                op(x, y)
        assert x != y

    def test_assignment_raises(self, ctx3):
        x = ctx3.scalar(4)
        x.ord()
        for name in ("value", "context", "_ord", "other"):
            with pytest.raises(AttributeError):
                setattr(x, name, 1)
            with pytest.raises(AttributeError):
                delattr(x, name)
        with pytest.raises(AttributeError):
            ctx3.p = 5
        assert x.value == 4 and x.ord() == 0

    def test_ord_is_cached(self, ctx3):
        x = ctx3.scalar(18)
        assert x.ord() is x.ord()

    def test_copies_keep_value_and_context(self):
        ctx7 = PrimeContext(7)
        x = ctx7.scalar(Fraction(98, 3))
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert y == x and hash(y) == hash(x)
            assert y.context is ctx7
        assert pickle.loads(pickle.dumps(ctx7)) is ctx7


class TestInterning:
    def test_contexts_are_shared_per_prime(self):
        assert PrimeContext(3) is PrimeContext(3)
        assert PrimeContext(p=5) is PrimeContext(5)
        assert PrimeContext(3) != PrimeContext(5)
        assert hash(PrimeContext(7)) == hash((7,))
        with pytest.raises(ValueError):
            PrimeContext(9)

    def test_every_prime_gets_one_context(self):
        primes = [n for n in range(1000, 2000) if qp_core._is_prime(n)][:70]
        contexts = [PrimeContext(p) for p in primes]
        assert len({id(ctx) for ctx in contexts}) == 70
        for p, ctx in zip(primes, contexts):
            assert PrimeContext(p) is ctx and ctx.p == p

    def test_mixed_contexts_are_refused(self):
        ctx3, ctx5 = PrimeContext(3), PrimeContext(5)
        x, y = ctx3.scalar(1), ctx5.scalar(1)
        for op in (*OPS.values(), operator.lt, operator.le):
            with pytest.raises(ValueError, match="different prime contexts"):
                op(x, y)
        assert x != y
        with pytest.raises(ValueError, match="different prime contexts"):
            Ball(x, 1).contains(y)
        with pytest.raises(EvaluationError, match="disagree"):
            evaluate(parse_term("x + 1"), {"x": x}, ctx5)
        with pytest.raises(EvaluationError, match="disagree"):
            evaluate(parse_term("x + y"), {"x": x, "y": y})

    def test_a_prime_is_read_as_an_index(self):
        class Three:
            def __index__(self):
                return 3

        class Five(int):
            pass

        assert PrimeContext(Three()) is PrimeContext(3)
        assert PrimeContext(Five(5)) is PrimeContext(5)
        assert PrimeContext(Five(5)).p.__class__ is int
        for bad in (3.0, Fraction(3), "3", True):
            with pytest.raises(ValueError, match="p must be a prime"):
                PrimeContext(bad)

    def test_public_powers_are_exact(self, ctx3):
        assert ctx3.power(4) == 81 and type(ctx3.power(4)) is int
        assert ctx3.power(0) == 1 and type(ctx3.power(0)) is int
        assert ctx3.power(-2) == Fraction(1, 9)
