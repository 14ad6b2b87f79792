import copy
import dataclasses
import math
import operator
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ultralip.qp_core as qp_core
from oracles import division_in_coset
from ultralip.qp_core import (
    CosetSpec,
    INFINITE_ORD,
    PrimeContext,
    format_ord,
    in_coset,
)

rationals = st.fractions(
    min_value=Fraction(-10000), max_value=Fraction(10000), max_denominator=10000
)
primes = st.sampled_from([2, 3, 5, 7])


def scalar(p, value, den=1):
    return PrimeContext(p).scalar(Fraction(value, den))


class TestValuation:
    def test_examples(self):
        assert scalar(3, 9).ord() == 2
        assert scalar(5, 0).ord() == INFINITE_ORD
        assert scalar(3, 45, 2).ord() == 2
        assert scalar(3, 1, 18).ord() == -2

    def test_infinity_ordering_and_saturation(self):
        assert INFINITE_ORD is math.inf
        assert INFINITE_ORD > 10**9
        assert 3 < INFINITE_ORD
        assert INFINITE_ORD + 5 == INFINITE_ORD
        assert INFINITE_ORD + INFINITE_ORD == INFINITE_ORD

    def test_comparison_with_ints(self):
        assert type(scalar(3, 18).ord()) is int
        assert type(scalar(3, 1, 18).ord()) is int
        assert scalar(3, 18).ord() >= 2
        assert scalar(3, 18).ord() < 3
        assert scalar(3, 0).ord() >= 10**6

    def test_format_ord(self):
        assert format_ord(scalar(3, 0).ord()) == "+inf"
        assert format_ord(scalar(3, 18).ord()) == "2"
        assert format_ord(scalar(3, 1, 18).ord()) == "-2"


class TestNorm:
    def test_examples(self):
        assert scalar(3, 9).norm_exponent() == -2
        assert scalar(3, 1, 3).norm_exponent() == 1
        assert scalar(2, 12).norm_exponent() == -2
        assert scalar(2, 0).norm_exponent() is None


class TestAngularComponent:
    def test_examples(self):
        assert scalar(3, 45).ac(2) == 5
        assert scalar(5, 1, 2).ac(1) == 3
        assert scalar(3, 0).ac(1) == 0

    def test_zero_iff_source_zero(self):
        assert scalar(7, 0).ac(3) == 0
        assert scalar(7, 14).ac(3) != 0

    @settings(derandomize=True, deadline=None)
    @given(rationals, primes, st.integers(min_value=1, max_value=4))
    def test_residue_invariants(self, x, p, n):
        r = scalar(p, x).ac(n)
        assert type(r) is int
        assert 0 <= r < p**n
        assert (r == 0) == (x == 0)
        assert r == 0 or r % p != 0

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            scalar(3, 1).ac(0)


class TestCosets:
    def test_examples(self):
        ctx = PrimeContext(3)
        q12 = CosetSpec(ctx.scalar(1), 1, 2)
        assert in_coset(36, q12)
        assert not in_coset(3, q12)
        assert in_coset(Fraction(4, 9), q12)
        zero = CosetSpec(ctx.scalar(0), 1, 1)
        assert in_coset(0, zero)
        assert not in_coset(1, zero)
        assert not in_coset(0, q12)

    def test_one_angular_component_per_membership_test(self, ctx3, monkeypatch):
        """ac_m(lambda) is computed once, when the spec is built, and each
        point gets one unit residue."""
        calls = []
        unit_residue = qp_core.unit_residue
        monkeypatch.setattr(
            qp_core, "unit_residue", lambda x, v, n, p: (calls.append(x), unit_residue(x, v, n, p))[1]
        )
        spec = CosetSpec(ctx3.scalar(Fraction(2, 9)), 2, 1)
        assert calls == [Fraction(2, 9)]
        points = [ctx3.scalar(Fraction(u) * Fraction(3) ** k) for u in (1, 2, 4, 5, 11) for k in range(-2, 3)]
        verdicts = [in_coset(x.value, spec) for x in points]
        assert calls[1:] == [x.value for x in points]
        assert verdicts == [division_in_coset(x, spec) for x in points]
        assert any(verdicts) and not all(verdicts)

    def test_group_law_on_samples(self, ctx3):
        rng = random.Random(7)
        spec = CosetSpec(ctx3.scalar(1), 2, 3)
        members = []
        for _ in range(12):
            a = rng.randint(-3, 3) * 3
            u = 1 + 9 * rng.randint(0, 30)
            x = ctx3.scalar(Fraction(u) * Fraction(3) ** a)
            assert in_coset(x.value, spec)
            members.append(x)
        for x in members:
            for y in members:
                assert in_coset((x * y).value, spec)
            assert in_coset((ctx3.scalar(1) / x).value, spec)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.data())
    def test_matches_membership_by_division(self, data):
        p = data.draw(st.sampled_from([2, 3, 5]))
        m, n = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        ctx = PrimeContext(p)
        power = st.integers(-3, 3).map(lambda e: Fraction(p) ** e)
        nonzero = st.fractions(min_value=-50, max_value=50, max_denominator=50).filter(bool)
        rational = st.one_of(st.just(Fraction(0)), st.builds(operator.mul, nonzero, power))
        lam = data.draw(rational)
        if lam and data.draw(st.booleans()):
            # lambda times an element of Q_{m,n}, sometimes moved off it by u
            unit = 1 + p**m * data.draw(st.integers(-9, 9))
            u = data.draw(st.sampled_from([1, 1, 2, p + 1, Fraction(1, p + 1)]))
            x = lam * Fraction(p) ** (n * data.draw(st.integers(-2, 2))) * unit * u
        else:
            x = data.draw(rational)
        spec = CosetSpec(ctx.scalar(lam), m, n)
        assert in_coset(ctx.scalar(x).value, spec) == division_in_coset(ctx.scalar(x), spec)

    def test_equality_hash_and_repr_see_only_lam_m_and_n(self, ctx3):
        """The values a spec keeps for membership tests are not fields."""
        spec = CosetSpec(ctx3.scalar(Fraction(2, 9)), 2, 1)
        assert (spec.lam_ac, spec.lam_ord, spec.p) == (2, -2, 3)
        twin = CosetSpec(ctx3.scalar(Fraction(2, 9)), 2, 1)
        assert twin == spec and hash(twin) == hash(spec)
        assert repr(spec) == f"CosetSpec(lam={ctx3.scalar(Fraction(2, 9))!r}, m=2, n=1)"
        assert [f.name for f in dataclasses.fields(spec)] == ["lam", "m", "n"]
        assert spec != CosetSpec(ctx3.scalar(Fraction(2, 9)), 2, 2)
        assert spec != CosetSpec(ctx3.scalar(Fraction(5, 9)), 2, 1)

    @pytest.mark.parametrize("lam", [Fraction(2, 9), Fraction(0), Fraction(-6)])
    def test_copied_and_pickled_specs_test_membership_as_the_original(self, ctx3, lam):
        spec = CosetSpec(ctx3.scalar(lam), 2, 2)
        points = [0] + [ctx3.scalar(Fraction(u) * Fraction(3) ** k).value for u in (1, 2, -2, 4, 11, -6) for k in range(-3, 4)]
        want = [in_coset(x, spec) for x in points]
        assert any(want) and not all(want)
        for twin in (copy.copy(spec), copy.deepcopy(spec), pickle.loads(pickle.dumps(spec))):
            assert twin == spec and hash(twin) == hash(spec)
            assert (twin.lam_ac, twin.lam_ord, twin.p) == (spec.lam_ac, spec.lam_ord, spec.p)
            assert [in_coset(x, twin) for x in points] == want


class TestPrimeContext:
    def test_rejects_composites(self):
        for bad in (0, 1, 4, 9, 15):
            with pytest.raises(ValueError):
                PrimeContext(bad)

    def test_units_mod(self):
        assert PrimeContext(3).units_mod(1) == [1, 2]
        assert PrimeContext(3).units_mod(2) == [1, 2, 4, 5, 7, 8]
        assert PrimeContext(2).units_mod(1) == [1]


class TestReduceModPower:
    def test_canonical_representatives(self):
        ctx = PrimeContext(3)
        assert ctx.scalar(4).reduce_mod_power(1).value == 1
        assert ctx.scalar(10).reduce_mod_power(2).value == 1
        assert ctx.scalar(-1).reduce_mod_power(2).value == 8
        assert ctx.scalar(9).reduce_mod_power(1).value == 0
        assert ctx.scalar(Fraction(1, 3)).reduce_mod_power(0).value == Fraction(1, 3)

    @settings(derandomize=True)
    @given(rationals, primes, st.integers(min_value=-3, max_value=5))
    def test_residue_is_in_class(self, x, p, k):
        s = PrimeContext(p).scalar(x)
        r = s.reduce_mod_power(k)
        assert (s - r).ord() >= k


class TestUltrametricLaws:
    @settings(derandomize=True)
    @given(rationals, rationals, primes)
    def test_strong_triangle(self, x, y, p):
        ctx = PrimeContext(p)
        a, b = ctx.scalar(x), ctx.scalar(y)
        s = (a + b).ord()
        lo = min(a.ord(), b.ord())
        assert s >= lo
        if a.ord() != b.ord():
            assert s == lo

    @settings(derandomize=True)
    @given(rationals, rationals, primes)
    def test_multiplicativity(self, x, y, p):
        ctx = PrimeContext(p)
        a, b = ctx.scalar(x), ctx.scalar(y)
        assert (a * b).ord() == a.ord() + b.ord()

    @settings(derandomize=True)
    @given(rationals, rationals, primes, st.integers(min_value=1, max_value=3))
    def test_ac_multiplicativity(self, x, y, p, n):
        ctx = PrimeContext(p)
        a, b = ctx.scalar(x), ctx.scalar(y)
        if a.is_zero or b.is_zero:
            return
        assert (a * b).ac(n) == a.ac(n) * b.ac(n) % p**n
