"""The semialgebraic term and condition language: its AST, its grammar and
its formatter.

Terms are finite trees over rational constants, variables, field
operations, integer powers and the two locally constant functions of the
counterexamples: ``normval`` (which sends t to the rational |t| embedded
back into Q_p) and ``levelspike`` (the spike g of the second family).
The language is closed: a function that is not rational at rational
points, such as the p-adic exp, could not be evaluated exactly.
Conditions compare norms, test ord congruences and coset membership, and
combine with the usual connectives.  The module terms evaluates them
exactly at rational points, so every predicate is decidable; this module
imports nothing from the package.

The grammar (parsed by a hand-rolled recursive descent with positions).
It is the one reader of literal text: the CLI's rationals, balls, cosets,
cells and factored terms are productions of it as well.

    term  := sum ;  sum := prod (("+"|"-") prod)*
    prod  := unary (("*"|"/") unary)* ;  unary := "-" unary | atom ("^" int)?
    atom  := rational | ident | "normval(" term ")" | "levelspike(" term ")"
           | "(" term ")"
    cond  := disj ;  disj := conj ("||" conj)* ;  conj := lit ("&&" lit)*
    lit   := "|" term "|" ("<"|"<="|"=") "|" term "|" | term "in" coset
           | "ord(" term ")" "%" int "=" int | "!" lit | "true" | "(" cond ")"
    rational := "-"? int ("/" int)?
    coset := rational "*" "Q(" int "," int ")"           (m, n >= 1)
    ball  := rational "+" int "^" int                    (c + p^k Z_p)
    cell  := "cell(" seg (";" seg)* ")"
    seg   := "center=" term | "coset=" coset | "base=" cond | "var=" ident
           | "alpha=" term | "beta=" term | "all"
           | "ord" ("in" "[" int "," int "]" | ">" int | "<" int)
    factored := rational ("*" "(" ident ("-"|"+") rational ")" ("^" int)?)*
    piecewise := "piecewise" "(" ident ("," ident)* ")"
                 "{" cond "->" term (";" cond "->" term)* "}"

An int is a run of digits, read with a leading "-" wherever a value may
be negative (exponents, depths, levels, residues).  A cell needs its
coset segment and names each segment at most once; "all" and "ord" are
two forms of the one level-range segment.  The factors of a factored term
name one variable.  Any other unreserved name followed by "(" is an
unknown builtin; alone, "levelspike" is a variable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

__all__ = [
    "Term",
    "Variable",
    "RationalConst",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "IntPow",
    "NormVal",
    "LevelSpike",
    "Condition",
    "NormCmp",
    "OrdCongruence",
    "CosetMember",
    "And",
    "Or",
    "Not",
    "TrueCond",
    "PiecewiseFunction",
    "parse",
    "parse_term",
    "parse_condition",
    "format_term",
    "format_condition",
    "free_variables",
    "fiber_variable",
    "TermError",
    "ParseError",
]

_RESERVED = {"in", "normval", "ord", "true", "piecewise", "Q"}


# ---------------------------------------------------------------------------
# errors


class TermError(Exception):
    pass


class ParseError(TermError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# AST


class _Node:
    """A node that compiles; pickles and copies leave its cache out (its
    compiled form per prime, its polynomial normal form, its derivatives)."""

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_cache"}


class Term(_Node):
    """Base class for term nodes; subclasses are frozen dataclasses."""

    def __str__(self) -> str:
        return format_term(self)


class Condition(_Node):
    """Base class for condition nodes."""

    def __str__(self) -> str:
        return format_condition(self)


@dataclass(frozen=True)
class Variable(Term):
    name: str


@dataclass(frozen=True)
class RationalConst(Term):
    """A rational constant; value is an int when integral, else a Fraction."""

    value: "int | Fraction"

    def __post_init__(self) -> None:
        value = self.value if isinstance(self.value, Fraction) else Fraction(self.value)
        object.__setattr__(self, "value", value.numerator if value.denominator == 1 else value)


@dataclass(frozen=True)
class Add(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Sub(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Mul(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Div(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class IntPow(Term):
    base: Term
    exponent: int


@dataclass(frozen=True)
class NormVal(Term):
    """|t| as an element of Q_p: the rational p^(-ord t), defined on t != 0."""

    arg: Term


@dataclass(frozen=True)
class LevelSpike(Term):
    """The spike g of the second counterexample family, defined on p Z_p
    and at 0: p^(2n) on the marked ball p^n + p^(3n) Z_p of each level
    n >= 1, and 0 elsewhere."""

    arg: Term


@dataclass(frozen=True)
class NormCmp(Condition):
    lhs: Term
    op: str  # "<", "<=", "="
    rhs: Term


@dataclass(frozen=True)
class OrdCongruence(Condition):
    term: Term
    modulus: int
    residue: int


@dataclass(frozen=True)
class CosetMember(Condition):
    """term in lam*Q(m,n); lam is a rational literal bound to p at evaluation."""

    term: Term
    lam: Fraction
    m: int
    n: int


@dataclass(frozen=True)
class And(Condition):
    left: Condition
    right: Condition


@dataclass(frozen=True)
class Or(Condition):
    left: Condition
    right: Condition


@dataclass(frozen=True)
class Not(Condition):
    inner: Condition


@dataclass(frozen=True)
class TrueCond(Condition):
    """The condition that always holds."""


@dataclass(frozen=True)
class PiecewiseFunction(_Node):
    """A function defined by disjoint (condition, term) pieces.

    Disjointness is not decidable symbolically in this fragment; it is
    checked empirically wherever the function is evaluated, and more than
    one matching piece is an error.
    """

    variables: tuple
    pieces: tuple  # of (Condition, Term)


# ---------------------------------------------------------------------------
# tokenizer


class _Token(NamedTuple):
    kind: str  # "int", "ident", "op", "eof"
    text: str
    line: int
    col: int


# \s, \w and \d match exactly what str.isspace, str.isalnum (or "_") and
# str.isdecimal accept, so one pass reads the whole token language
_TOKEN_RE = re.compile(
    r"(?P<nl>\n)|[^\S\n]+|(?P<op>\|\||&&|<=|->|[-+*/^()|<>=!%,;{}\[\]])|(?P<word>\w+)|(?P<bad>.)"
)


def _tokenize(source: str) -> list:
    """Tokens with 1-based line and column, ended by two eof tokens."""
    tokens = []
    line, line_start = 1, 0
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        if kind is None:  # spaces
            continue
        start = match.start()
        if kind == "nl":
            line, line_start = line + 1, start + 1
            continue
        text, col = match.group(), start - line_start + 1
        if kind == "word":
            if text.isdigit():
                kind = "int"
            elif text[0].isalpha() or text[0] == "_":
                kind = "ident"
            else:
                tokens += _split_word(text, line, col)
                continue
        elif kind == "bad":
            raise ParseError(f"unexpected character {text!r}", line, col)
        tokens.append(_Token(kind, text, line, col))
    eof = _Token("eof", "", line, len(source) - line_start + 1)
    tokens += (eof, eof)
    return tokens


def _split_word(text: str, line: int, col: int) -> list:
    """A word that mixes digits with other characters: its leading digits
    are an int, and the rest must be an identifier."""
    k = next(i for i, ch in enumerate(text) if not ch.isdigit())
    out = [_Token("int", text[:k], line, col)] if k else []
    if not (text[k].isalpha() or text[k] == "_"):
        raise ParseError(f"unexpected character {text[k]!r}", line, col + k)
    return out + [_Token("ident", text[k:], line, col + k)]


# the one-argument builtins, each read by one branch of _Parser.atom
_UNARY = {"normval": NormVal, "levelspike": LevelSpike}


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.i = 0

    # -- plumbing ---------------------------------------------------

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[self.i + ahead]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def at(self, text: str) -> bool:
        # an op or identifier text; int texts are never asked for
        return self.tokens[self.i].text == text

    def accept(self, text: str) -> bool:
        if self.tokens[self.i].text == text:
            self.i += 1
            return True
        return False

    def expect(self, text: str) -> _Token:
        tok = self.tokens[self.i]
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        self.i += 1
        return tok

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect_eof(self) -> None:
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)

    def read(self, production: Callable):
        """The whole input as one production, e.g. read(_Parser.term)."""
        node = production(self)
        self.expect_eof()
        return node

    def either(self, first: Callable, second: Callable):
        """What first reads from here, else what second reads from the same
        token.  When both fail, the error of the reading that got further is
        raised, the second's on a tie, with the parser left where it was raised."""
        start = self.i
        try:
            return first()
        except ParseError as err:
            first_err, first_end, self.i = err, self.i, start
        try:
            return second()
        except ParseError:
            if first_end <= self.i:
                raise
            self.i = first_end
            raise first_err from None

    # -- terms --------------------------------------------------------

    def term(self) -> Term:
        node = self.prod()
        while self.at("+") or self.at("-"):
            op = self.next().text
            right = self.prod()
            node = Add(node, right) if op == "+" else Sub(node, right)
        return node

    def prod(self) -> Term:
        node = self.unary()
        while self.at("*") or self.at("/"):
            op = self.next().text
            right = self.unary()
            node = Mul(node, right) if op == "*" else Div(node, right)
        return node

    def unary(self) -> Term:
        if self.accept("-"):
            inner = self.unary()
            if isinstance(inner, RationalConst):
                return RationalConst(-inner.value)
            return Mul(RationalConst(Fraction(-1)), inner)
        node = self.atom()
        if self.accept("^"):
            node = IntPow(node, self.signed_int(parens_ok=True))
        return node

    def signed_int(self, parens_ok: bool = False) -> int:
        if parens_ok and self.accept("("):
            k = self.signed_int()
            self.expect(")")
            return k
        sign = -1 if self.accept("-") else 1
        return sign * self.int_token("an integer")

    def int_token(self, what: str) -> int:
        """The next token read as a decimal integer.  The int tokens also
        hold digits such as '²' that int() rejects; those fail here."""
        tok = self.peek()
        if tok.kind != "int":
            self.fail(f"expected {what}")
        try:
            value = int(tok.text)
        except ValueError:
            raise ParseError(f"{tok.text!r} is not a decimal integer", tok.line, tok.col) from None
        self.next()
        return value

    def rational(self) -> Fraction:
        sign = -1 if self.accept("-") else 1
        num = self.int_token("a rational literal")
        if self.peek().text == "/" and self.peek(1).kind == "int":
            self.next()
            den_tok = self.peek()
            den = self.int_token("a denominator")
            if den == 0:
                raise ParseError("rational literal with denominator 0", den_tok.line, den_tok.col)
            return Fraction(sign * num, den)
        return Fraction(sign * num)

    def atom(self) -> Term:
        tok = self.peek()
        if tok.kind == "int":
            return RationalConst(self.rational())
        if self.accept("("):
            node = self.term()
            self.expect(")")
            return node
        if tok.kind == "ident":
            name = tok.text
            # normval is reserved and always a call; levelspike is a call
            # only when "(" follows, and a variable name otherwise
            if name == "normval" or (self.peek(1).text == "(" and name not in _RESERVED):
                node = _UNARY.get(name)
                if node is None:
                    raise ParseError(f"unknown builtin {name!r}", tok.line, tok.col)
                self.next()
                self.expect("(")
                arg = self.term()
                if self.at(","):
                    raise ParseError(f"builtin {name!r} takes 1 argument", tok.line, tok.col)
                self.expect(")")
                return node(arg)
            if name in _RESERVED:
                self.fail(f"reserved word {name!r} cannot start a term")
            self.next()
            return Variable(name)
        self.fail("expected a term")

    # -- conditions ----------------------------------------------------

    def cond(self) -> Condition:
        node = self.conj()
        while self.accept("||"):
            node = Or(node, self.conj())
        return node

    def conj(self) -> Condition:
        node = self.lit()
        while self.accept("&&"):
            node = And(node, self.lit())
        return node

    def lit(self) -> Condition:
        tok = self.peek()
        if self.accept("!"):
            return Not(self.lit())
        if self.accept("true"):
            return TrueCond()
        if self.accept("|"):
            lhs = self.term()
            self.expect("|")
            op_tok = self.peek()
            if op_tok.text not in ("<", "<=", "="):
                self.fail("expected one of '<', '<=', '=' between norms")
            self.next()
            self.expect("|")
            rhs = self.term()
            self.expect("|")
            return NormCmp(lhs, op_tok.text, rhs)
        if tok.kind == "ident" and tok.text == "ord" and self.peek(1).text == "(":
            self.next()
            self.expect("(")
            inner = self.term()
            self.expect(")")
            self.expect("%")
            mod_tok = self.peek()
            modulus = self.int_token("a modulus")
            if modulus < 1:
                raise ParseError("ord congruence modulus must be >= 1", mod_tok.line, mod_tok.col)
            self.expect("=")
            residue = self.signed_int()
            return OrdCongruence(inner, modulus, residue % modulus)
        # "(" opens a condition or the subject term of "term in coset"
        if self.at("("):
            return self.either(self._paren_cond, self._coset_member)
        return self._coset_member()

    def _paren_cond(self) -> Condition:
        self.expect("(")
        inner = self.cond()
        self.expect(")")
        return inner

    def _coset_member(self) -> CosetMember:
        subject = self.term()
        self.expect("in")
        return CosetMember(subject, *self.coset())

    # -- literals of the CLI and of cells ---------------------------------

    def coset(self) -> tuple:
        """(lam, m, n) of lam*Q(m,n)."""
        tok = self.peek()
        lam = self.rational()
        self.expect("*")
        self.expect("Q")
        self.expect("(")
        m = self.signed_int()
        self.expect(",")
        n = self.signed_int()
        self.expect(")")
        if m < 1 or n < 1:
            raise ParseError("coset depths m, n must be >= 1", tok.line, tok.col)
        return lam, m, n

    def ball(self) -> tuple:
        """(center, base, k) of the ball literal c + p^k."""
        center = self.rational()
        self.expect("+")
        base = self.signed_int()
        self.expect("^")
        return center, base, self.signed_int()

    def cell(self) -> dict:
        """The segments of a cell literal by name, each given at most once;
        "ord" holds the (lo, hi) level range, None where unbounded."""
        start = self.expect("cell")
        self.expect("(")
        segments: dict = {}
        starts: dict = {}  # token index of each segment
        while True:
            tok = self.peek()
            key = "ord" if tok.text == "all" else tok.text
            if key not in _CELL_SEGMENTS:
                self.fail(f"expected a cell segment, found {tok.text or 'end of input'!r}")
            if key in segments:
                what = "level range" if key == "ord" else f"{key!r} segment"
                self.fail(f"cell literal gives its {what} twice")
            starts[key] = self.i
            self.next()
            if tok.text == "all":
                segments[key] = (None, None)
            elif key == "ord":
                segments[key] = self._ord_range(tok)
            else:
                self.expect("=")
                segments[key] = _CELL_SEGMENTS[key](self)
            if not self.accept(";"):
                break
        self.expect(")")
        if "coset" not in segments:
            raise ParseError("cell literal requires a coset segment", start.line, start.col)
        # a finite upper level sets alpha and a finite lower level sets beta
        lo, hi = segments.get("ord", (None, None))
        for bound, level in (("alpha", hi), ("beta", lo)):
            if bound in segments and level is not None:
                later = self.tokens[max(starts[bound], starts["ord"])]
                raise ParseError(
                    f"cell literal gives its {bound} bound twice: '{bound}=' and the level range",
                    later.line,
                    later.col,
                )
        return segments

    def _ord_range(self, tok: _Token) -> tuple:
        if self.accept(">"):
            return self.signed_int() + 1, None
        if self.accept("<"):
            return None, self.signed_int() - 1
        self.expect("in")
        self.expect("[")
        lo = self.signed_int()
        self.expect(",")
        hi = self.signed_int()
        self.expect("]")
        if lo > hi:
            raise ParseError("empty ord range", tok.line, tok.col)
        return lo, hi

    def factored(self) -> tuple:
        """(u, ((c1, a1), (c2, a2), ...)) of u * (t - c1)^a1 * (t - c2)^a2 ..."""
        unit = self.rational()
        factors = []
        var_name = None
        while self.accept("*"):
            self.expect("(")
            tok = self.peek()
            if tok.kind != "ident":
                self.fail("expected the fiber variable")
            var_name = var_name or tok.text
            if tok.text != var_name:
                self.fail(f"mixed fiber variables {var_name!r} and {tok.text!r}")
            self.next()
            if self.accept("-"):
                center = self.rational()
            elif self.accept("+"):
                center = -self.rational()
            else:
                self.fail("expected '-' or '+' after the variable")
            self.expect(")")
            exponent = self.signed_int(parens_ok=True) if self.accept("^") else 1
            factors.append((center, exponent))
        return unit, tuple(factors)

    # -- piecewise -------------------------------------------------------

    def piecewise(self) -> PiecewiseFunction:
        self.expect("piecewise")
        self.expect("(")
        names = [self._var_name()]
        while self.accept(","):
            names.append(self._var_name())
        self.expect(")")
        self.expect("{")
        pieces = [self._piece(names)]
        while self.accept(";"):
            pieces.append(self._piece(names))
        self.expect("}")
        return PiecewiseFunction(tuple(names), tuple(pieces))

    def _var_name(self) -> str:
        tok = self.peek()
        if tok.kind != "ident" or tok.text in _RESERVED:
            self.fail("expected a variable name")
        self.next()
        return tok.text

    def _piece(self, names) -> tuple:
        tok = self.peek()
        condition = self.cond()
        self.expect("->")
        body = self.term()
        for node, what in ((condition, "condition"), (body, "term")):
            stray = [v for v in free_variables(node) if v not in names]
            if stray:
                raise ParseError(
                    f"unbound variable {stray[0]!r} in piece {what}", tok.line, tok.col
                )
        return (condition, body)


# the reader of each "name=" cell segment; "all" is read as the ord segment
_CELL_SEGMENTS = {
    "center": _Parser.term,
    "coset": _Parser.coset,
    "base": _Parser.cond,
    "var": _Parser._var_name,
    "alpha": _Parser.term,
    "beta": _Parser.term,
    "ord": None,
}


def parse_term(source: str) -> Term:
    return _Parser(source).read(_Parser.term)


def parse_condition(source: str) -> Condition:
    return _Parser(source).read(_Parser.cond)


def parse(source: str):
    """Parse a term, a condition, or a piecewise function, whichever fits.

    Terms are tried first; on failure the condition reading is tried on the
    same tokens and the error of whichever attempt got further is reported.
    """
    parser = _Parser(source)
    if parser.at("piecewise"):
        return parser.read(_Parser.piecewise)
    return parser.either(lambda: parser.read(_Parser.term), lambda: parser.read(_Parser.cond))


# ---------------------------------------------------------------------------
# formatting (round-trips through the parser)

_PREC_SUM, _PREC_PROD, _PREC_UNARY, _PREC_POW = 1, 2, 3, 4


def _fmt(t: Term, parent: int) -> str:
    if isinstance(t, RationalConst):
        text = str(t.value)
        need = parent > _PREC_UNARY and t.value < 0
        return f"({text})" if need else text
    if isinstance(t, Variable):
        return t.name
    if isinstance(t, NormVal):
        return f"normval({_fmt(t.arg, 0)})"
    if isinstance(t, LevelSpike):
        return f"levelspike({_fmt(t.arg, 0)})"
    if isinstance(t, IntPow):
        base = _fmt(t.base, _PREC_POW + 1)
        text = f"{base}^{t.exponent}"
        return f"({text})" if parent > _PREC_POW else text
    if isinstance(t, (Add, Sub)):
        op = "+" if isinstance(t, Add) else "-"
        text = f"{_fmt(t.left, _PREC_SUM)}{op}{_fmt(t.right, _PREC_SUM + 1)}"
        return f"({text})" if parent > _PREC_SUM else text
    if isinstance(t, (Mul, Div)):
        op = "*" if isinstance(t, Mul) else "/"
        text = f"{_fmt(t.left, _PREC_PROD)}{op}{_fmt(t.right, _PREC_PROD + 1)}"
        return f"({text})" if parent > _PREC_PROD else text
    raise TypeError(f"not a term node: {t!r}")


def format_term(t: Term) -> str:
    return _fmt(t, 0)


def format_condition(c: Condition) -> str:
    if isinstance(c, TrueCond):
        return "true"
    if isinstance(c, NormCmp):
        return f"|{_fmt(c.lhs, 0)}| {c.op} |{_fmt(c.rhs, 0)}|"
    if isinstance(c, OrdCongruence):
        return f"ord({_fmt(c.term, 0)}) % {c.modulus} = {c.residue}"
    if isinstance(c, CosetMember):
        return f"{_fmt(c.term, _PREC_PROD + 1)} in {c.lam}*Q({c.m},{c.n})"
    if isinstance(c, Not):
        inner = format_condition(c.inner)
        if isinstance(c.inner, (And, Or)):
            inner = f"({inner})"
        return f"!{inner}"
    if isinstance(c, And):
        parts = []
        for side in (c.left, c.right):
            text = format_condition(side)
            parts.append(f"({text})" if isinstance(side, Or) else text)
        return " && ".join(parts)
    if isinstance(c, Or):
        return f"{format_condition(c.left)} || {format_condition(c.right)}"
    raise TypeError(f"not a condition node: {c!r}")


# ---------------------------------------------------------------------------
# free variables


def free_variables(node) -> tuple:
    """Variable names in first-occurrence order: each node's fields are
    walked in declaration order, tuples item by item, and anything else
    (declared names, constants, the cache) is skipped."""
    if not isinstance(node, _Node):
        raise TypeError(f"not an AST node: {node!r}")
    seen: dict = {}

    def walk(x):
        if isinstance(x, Variable):
            seen[x.name] = None
        elif isinstance(x, _Node):
            # the instance dict holds the fields in declaration order, and
            # reads faster than dataclasses.fields(); the _cache dict is skipped
            for child in vars(x).values():
                walk(child)
        elif isinstance(x, tuple):
            for child in x:
                walk(child)

    walk(node)
    return tuple(seen)


def fiber_variable(f: Term, default: str) -> str:
    """The one variable of f, or default when f has none."""
    names = free_variables(f)
    if len(names) > 1:
        raise ValueError(f"term must be univariate, found variables {names}")
    return names[0] if names else default
