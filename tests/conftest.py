import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from ultralip.qp_core import PrimeContext


def random_rational(rng: random.Random, p: int, spread: int = 4) -> Fraction:
    """A nonzero rational with p-adic valuation scattered in [-spread, spread]."""
    num = rng.randint(1, 999) * rng.choice([-1, 1])
    den = rng.randint(1, 999)
    k = rng.randint(-spread, spread)
    return Fraction(num, den) * Fraction(p) ** k


def rationals(p: int):
    """A strategy of ints and of rationals n/d * p^e, whose denominators
    are prime to p or powers of it."""
    return st.one_of(
        st.integers(-200, 200),
        st.builds(
            lambda n, d, e: Fraction(n, d) * Fraction(p) ** e,
            st.integers(-200, 200),
            st.integers(1, 60),
            st.integers(-3, 3),
        ),
    )


@pytest.fixture(scope="session")
def ctx3() -> PrimeContext:
    return PrimeContext(3)


@pytest.fixture(scope="session")
def ctx2() -> PrimeContext:
    return PrimeContext(2)


@pytest.fixture(scope="session")
def ctx5() -> PrimeContext:
    return PrimeContext(5)
