"""Exact arithmetic in Q_p over rational representatives.

Every scalar is an exact rational number viewed p-adically, so the
valuation, the norm and the angular components are computed without
approximation: the valuation of a/b is the multiplicity of p in a minus
the multiplicity of p in b, and unit parts are reduced by exact modular
inversion.  ``ac(n)`` returns that reduction as a plain int residue in
``[0, p^n)``: 0 for the zero scalar and a unit mod p otherwise.  Norms are
never materialized as reals; they travel as integer exponents of p, with a
separate flag for zero.

Representation.  ``PadicScalar.value`` is an ``int`` when the scalar is an
integer and a ``Fraction`` (denominator > 1) otherwise.  The constructor is
the one place a scalar is built: it normalises every value to that form, so
no value is ever a float.  Because ``3 == Fraction(3)`` with equal hashes
and strings, values, hashes, equality and printing are those of the plain
``Fraction`` representation.  ``PadicScalar`` is a frozen dataclass with
an instance dict.  It computes its ``ord`` once and keeps it in a field
that equality, hashing and repr do not read: an ``int``, or
``INFINITE_ORD = math.inf`` for zero, so ``int`` and ``math.inf`` model
Z u {+inf} with its order and with ``inf + k = inf``.
``format_ord`` is the one place that writes a valuation as text.
``valuation(value, p)``, ``residue(value, k, p)`` and
``unit_residue(value, ord, n, p)`` are ``ord``, ``reduce_mod_power(k).value``
and ``ac(n)`` on a raw value.  Every per-point loop computes
on raw values: window points, ball representatives, the bindings of compiled
terms and their results are ints and Fractions, read with these kernels, so
a scalar is built only at the edges, for inputs, witnesses and centres.
The methods call the kernels, so each rule has one implementation.
in_coset reads a raw value too.  Every prime has one context, so context
checks are identity tests.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

__all__ = [
    "PrimeContext",
    "PadicScalar",
    "INFINITE_ORD",
    "format_ord",
    "valuation",
    "residue",
    "unit_residue",
    "CosetSpec",
    "in_coset",
]

RationalLike = Union[int, str, Fraction]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# the one context of each prime asked for
_CONTEXTS: dict = {}


@dataclass(frozen=True, init=False)
class PrimeContext:
    """The ambient field Q_p; p doubles as residue cardinality and uniformizer.

    ``PrimeContext(p)`` returns the one instance for the prime p, which is
    read with ``operator.index``: an int, an int subclass or an object with
    ``__index__``.
    """

    p: int

    def __new__(cls, p: int) -> "PrimeContext":
        ctx = _CONTEXTS.get(p) if p.__class__ is int else None
        if ctx is None:
            try:
                n = operator.index(p)
            except TypeError:
                n = 0
            if not _is_prime(n):
                raise ValueError(f"p must be a prime >= 2, got {p!r}")
            ctx = super().__new__(cls)
            object.__setattr__(ctx, "p", n)
            ctx = _CONTEXTS.setdefault(n, ctx)
        return ctx

    def __getnewargs__(self) -> tuple:
        return (self.p,)

    def scalar(self, value: RationalLike) -> PadicScalar:
        return PadicScalar(value, self)

    def power(self, k: int) -> "int | Fraction":
        """p^k exactly: an int for k >= 0, a Fraction for k < 0."""
        return self.p**k if k >= 0 else Fraction(1, self.p**-k)

    def units_mod(self, n: int) -> list[int]:
        """All residues in [1, p^n) that are units mod p, in ascending order."""
        if n < 1:
            raise ValueError("modulus depth must be >= 1")
        pn = self.p**n
        return [u for u in range(1, pn) if u % self.p != 0]


# the ord of 0: above every int, and inf + k = inf saturates
INFINITE_ORD = math.inf


def format_ord(v: "int | float") -> str:
    """The text of a valuation: its digits, or "+inf" for the ord of 0."""
    return "+inf" if v == INFINITE_ORD else str(v)


def _normalise(value: object) -> "int | Fraction":
    """value as an int when it is an integer, else as a Fraction."""
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def valuation(value: "int | Fraction", p: int) -> "int | float":
    """ord_p of a raw value, an int or a Fraction in lowest terms: an int,
    or INFINITE_ORD for 0.  PadicScalar.ord is this, cached."""
    if not value:
        return INFINITE_ORD
    if value.__class__ is not int:
        return valuation(value.numerator, p) - valuation(value.denominator, p)
    n = 0
    while value % p == 0:
        value //= p
        n += 1
    return n


def residue(value: "int | Fraction", k: int, p: int) -> "int | Fraction":
    """The raw value of PadicScalar.reduce_mod_power(k): the smallest
    nonnegative multiple of p^ord(value) in value + p^k Z_p, 0 when
    ord(value) >= k, as an int or a Fraction in lowest terms.  Two values
    agree mod p^k exactly when their residues are equal."""
    if value.__class__ is int:
        # ord >= 0, so the representative is value mod p^k
        return value % p**k if k > 0 else 0
    v = valuation(value, p)
    if v >= k:
        return 0
    r = unit_residue(value, v, k - v, p)
    return r * p**v if v >= 0 else Fraction(r, p**-v)


def unit_residue(value: "int | Fraction", v: int, n: int, p: int) -> int:
    """The unit part value / p^v, v = ord(value) finite, reduced mod p^n by
    exact modular inversion of its denominator: an int in [0, p^n)."""
    pn = p**n
    if value.__class__ is int:
        return value // p**v % pn
    num, den = value.numerator, value.denominator
    if v >= 0:
        num //= p**v
    else:
        den //= p**-v
    return num * pow(den, -1, pn) % pn


@dataclass(frozen=True, init=False)
class PadicScalar:
    """An exact rational viewed p-adically.

    ``value`` is an int when the scalar is an integer and a Fraction
    otherwise; ``context`` is its PrimeContext.  A frozen dataclass with an
    instance dict, hashed and compared by (value, context).  The valuation
    is computed on first use and cached in ``_ord``, which equality, hash
    and repr do not read; norm exponent and angular components are
    computed on demand and are exact.
    """

    value: "int | Fraction"
    context: PrimeContext
    _ord: "int | float | None" = field(init=False, compare=False, repr=False)

    def __init__(self, value: object, context: PrimeContext) -> None:
        if value.__class__ is not int:
            value = _normalise(value)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "_ord", None)

    # -- valuation-layer queries -------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.value

    def ord(self) -> "int | float":
        """Exact p-adic valuation: an int, or INFINITE_ORD iff the scalar is zero."""
        v = self._ord
        if v is None:
            v = valuation(self.value, self.context.p)
            object.__setattr__(self, "_ord", v)
        return v

    def norm_exponent(self) -> "int | None":
        """The exponent e with |x| = p^e, or None for x = 0 (the zero flag)."""
        return -self.ord() if self.value else None

    def ac(self, n: int) -> int:
        """Angular component mod p^n: the unit part reduced exactly, as a
        residue in [0, p^n); 0 maps to 0, any other scalar to a unit."""
        if n < 1:
            raise ValueError("angular component depth must be >= 1")
        if not self.value:
            return 0
        return unit_residue(self.value, self.ord(), n, self.context.p)

    def reduce_mod_power(self, k: int) -> PadicScalar:
        """Canonical representative of x + p^k Z_p: the smallest nonnegative
        integer multiple of p^ord(x) in the class (0 when ord(x) >= k)."""
        value = self.value
        r = residue(value, k, self.context.p)
        return self if r == value else PadicScalar(r, self.context)

    # -- exact field arithmetic ---------------------------------------

    def _context_with(self, other: "PadicScalar") -> PrimeContext:
        """The context self shares with other; raises ValueError for scalars
        of different primes, before any arithmetic runs."""
        ctx = self.context
        if other.context is not ctx:
            raise ValueError("scalars from different prime contexts")
        return ctx

    def __add__(self, other: "PadicScalar") -> "PadicScalar":
        ctx = self._context_with(other)
        return PadicScalar(self.value + other.value, ctx)

    def __sub__(self, other: "PadicScalar") -> "PadicScalar":
        ctx = self._context_with(other)
        return PadicScalar(self.value - other.value, ctx)

    def __mul__(self, other: "PadicScalar") -> "PadicScalar":
        ctx = self._context_with(other)
        return PadicScalar(self.value * other.value, ctx)

    def __truediv__(self, other: "PadicScalar") -> "PadicScalar":
        ctx = self._context_with(other)
        return PadicScalar(Fraction(self.value, other.value), ctx)

    def __neg__(self) -> "PadicScalar":
        return PadicScalar(-self.value, self.context)

    def __pow__(self, k: int) -> "PadicScalar":
        return PadicScalar(Fraction(self.value) ** k, self.context)

    # The order of the rational values: Q_p itself has no field order.
    def __lt__(self, other: "PadicScalar") -> bool:
        self._context_with(other)
        return self.value < other.value

    def __le__(self, other: "PadicScalar") -> bool:
        self._context_with(other)
        return self.value <= other.value

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"PadicScalar({self.value}, p={self.context.p})"


@dataclass(frozen=True)
class CosetSpec:
    """The coset lambda*Q_{m,n} of the multiplicative group
    Q_{m,n} = {x != 0 : ord(x) = 0 mod n, ac_m(x) = 1}.

    lambda = 0 encodes the degenerate coset {0} (the 0-cell case).
    """

    lam: PadicScalar
    m: int
    n: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError("coset depths m, n must be >= 1")
        # ac_m(lambda), ord(lambda) and the prime, read by every membership
        # test; outside the dataclass fields, so equality, hashing and repr
        # still see only lam, m and n
        object.__setattr__(self, "lam_ac", self.lam.ac(self.m))
        object.__setattr__(self, "lam_ord", self.lam.ord())
        object.__setattr__(self, "p", self.lam.context.p)

    @property
    def is_zero(self) -> bool:
        return self.lam.is_zero

    def __str__(self) -> str:
        return f"{self.lam}*Q({self.m},{self.n})"


def in_coset(value: "int | Fraction", spec: CosetSpec) -> bool:
    """Exact membership of x = value, a raw int or a Fraction in lowest
    terms, in lambda*Q_{m,n}, read in the prime of lambda.

    For lambda = 0 the coset is {0}; otherwise x must be nonzero with
    ord(x) - ord(lambda) divisible by n and ac_m(x / lambda) = 1.  The
    angular component is multiplicative on nonzero scalars: the unit part
    of a product is the product of the unit parts, and reduction mod p^m
    is a ring map on the units of Z_p, so ac_m(x / lambda) =
    ac_m(x) * ac_m(lambda)^-1 mod p^m.  It is 1 exactly when
    ac_m(x) = ac_m(lambda), which needs no division.  ac_m(lambda),
    ord(lambda) and the prime are read off the spec, which computed them
    once.
    """
    lam_ord = spec.lam_ord
    if lam_ord == INFINITE_ORD:
        return not value
    if not value:
        return False
    # both nonzero here, so both ords are ints
    p = spec.p
    v = valuation(value, p)
    if (v - lam_ord) % spec.n:
        return False
    return unit_residue(value, v, spec.m, p) == spec.lam_ac

