"""The semialgebraic term and condition language.

Terms are finite trees over rational constants, variables, field
operations, integer powers and the two locally constant functions of the
counterexamples: ``normval`` (which sends t to the rational |t| embedded
back into Q_p) and ``levelspike`` (the spike g of the second family).
The language is closed: a function that is not rational at rational
points, such as the p-adic exp, could not be evaluated exactly.
Conditions compare norms, test ord congruences and coset membership, and
combine with the usual connectives.  Everything evaluates exactly at
rational points, so every predicate is decidable.

The grammar (parsed by a hand-rolled recursive descent with positions).
It is the one reader of literal text: the CLI's rationals, balls, cosets
and cells are productions of it as well.

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
    piecewise := "piecewise" "(" ident ("," ident)* ")"
                 "{" cond "->" term (";" cond "->" term)* "}"

An int is a run of digits, read with a leading "-" wherever a value may
be negative (exponents, depths, levels, residues).  A cell needs its
coset segment and names each segment at most once; "all" and "ord" are
two forms of the one level-range segment.  Any other unreserved name
followed by "(" is an unknown builtin; alone, "levelspike" is a variable.

Evaluation compiles once per analysis.  compile_term and compile_condition
turn a tree into nested closures over the raw int and Fraction values,
with one PadicScalar built at the end (an int when integral); evaluate,
eval_condition and evaluate_piecewise run the compiled form.  A node
keeps its compiled form for each prime it was compiled for, so the form
goes when the node does; pickles and copies leave it out.  Errors are
those of a walk over the tree: a Div tests its denominator first and
reports it, and a negative power of 0 reports the power.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Optional

from .qp_core import INFINITE_ORD, CosetSpec, PadicScalar, PrimeContext, _scalar, in_coset

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
    "evaluate",
    "evaluate_piecewise",
    "eval_condition",
    "compile_term",
    "compile_condition",
    "differentiate",
    "free_variables",
    "TermError",
    "ParseError",
    "EvaluationError",
    "UnboundVariableError",
    "DivisionByZero",
    "BuiltinDomainError",
    "PieceOverlapError",
    "PieceDomainError",
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
# AST


class _Node:
    """A node that compiles; pickles and copies leave its compiled forms out."""

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_compiled"}


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
        # "(" opens a condition or the subject term of "term in coset"; when
        # both readings fail, the one that got strictly further reports
        cond_err = None
        if self.at("("):
            start = self.i
            try:
                self.next()
                inner_cond = self.cond()
                self.expect(")")
                return inner_cond
            except ParseError as err:
                cond_err, cond_end, self.i = err, self.i, start
        try:
            subject = self.term()
            self.expect("in")
            return CosetMember(subject, *self.coset())
        except ParseError:
            if cond_err is None or cond_end <= self.i:
                raise
            self.i = cond_end
            raise cond_err from None

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
    try:
        return parser.read(_Parser.term)
    except ParseError as term_err:
        term_end, parser.i = parser.i, 0
        try:
            return parser.read(_Parser.cond)
        except ParseError as cond_err:
            raise cond_err if parser.i >= term_end else term_err


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
    """Variable names in first-occurrence order."""
    seen: list = []

    def walk(x):
        if isinstance(x, Variable):
            if x.name not in seen:
                seen.append(x.name)
        elif isinstance(x, (Add, Sub, Mul, Div)):
            walk(x.left)
            walk(x.right)
        elif isinstance(x, IntPow):
            walk(x.base)
        elif isinstance(x, (NormVal, LevelSpike)):
            walk(x.arg)
        elif isinstance(x, NormCmp):
            walk(x.lhs)
            walk(x.rhs)
        elif isinstance(x, (OrdCongruence, CosetMember)):
            walk(x.term)
        elif isinstance(x, (And, Or)):
            walk(x.left)
            walk(x.right)
        elif isinstance(x, Not):
            walk(x.inner)
        elif isinstance(x, PiecewiseFunction):
            for cond, body in x.pieces:
                walk(cond)
                walk(body)
        elif isinstance(x, (RationalConst, TrueCond)):
            pass
        else:
            raise TypeError(f"not an AST node: {x!r}")

    walk(node)
    return tuple(seen)


# ---------------------------------------------------------------------------
# evaluation


def _infer_context(point: Mapping, ctx: Optional[PrimeContext]) -> PrimeContext:
    for v in point.values():
        if ctx is not None and v.context is not ctx:
            raise EvaluationError("point values disagree with the supplied context")
        ctx = v.context
    if ctx is None:
        raise EvaluationError("no prime context available (empty point, no ctx)")
    return ctx


def evaluate(t: Term, point: Mapping, ctx: Optional[PrimeContext] = None) -> PadicScalar:
    """Exact evaluation of a term at a rational point.

    point maps variable names to PadicScalar values sharing one context.
    """
    ctx = _infer_context(point, ctx)
    return compile_term(t, ctx)(point)


def eval_condition(c: Condition, point: Mapping, ctx: Optional[PrimeContext] = None) -> bool:
    """Exact truth value of a condition at a rational point."""
    ctx = _infer_context(point, ctx)
    return compile_condition(c, ctx)(point)


def evaluate_piecewise(
    pf: PiecewiseFunction, point: Mapping, ctx: Optional[PrimeContext] = None
) -> PadicScalar:
    """Evaluate a piecewise function; exactly one piece condition may hold."""
    ctx = _infer_context(point, ctx)
    pieces = _memoised(pf, ctx, _compile_pieces)
    matches = [body for cond, body in pieces if cond(point)]
    if not matches:
        raise PieceDomainError(f"no piece covers the point {_point_str(point)}")
    if len(matches) > 1:
        raise PieceOverlapError(f"pieces overlap at the point {_point_str(point)}")
    return matches[0](point)


def compile_term(t: Term, ctx: PrimeContext) -> Callable:
    """t as a function of a point (variable names to PadicScalar values in
    ctx) that returns the PadicScalar evaluate would.  The caller vouches
    that the point's values lie in ctx; evaluate checks it."""
    return _memoised(t, ctx, _compile_term)


def compile_condition(c: Condition, ctx: PrimeContext) -> Callable:
    """c as a function of a point that returns the bool eval_condition would."""
    return _memoised(c, ctx, _compile_cond)


def _memoised(node, ctx: PrimeContext, build: Callable) -> Callable:
    if not isinstance(node, _Node):  # compiled raises the walk's TypeError
        return build(node, ctx)
    forms = node.__dict__.setdefault("_compiled", {})
    compiled = forms.get(ctx.p)
    if compiled is None:
        compiled = forms[ctx.p] = build(node, ctx)
    return compiled


def _compile_term(t: Term, ctx: PrimeContext) -> Callable:
    run = _compile(t, ctx)
    return lambda point: _scalar(run(point), ctx)


def _compile_pieces(pf: PiecewiseFunction, ctx: PrimeContext) -> tuple:
    return tuple((_compile_cond(cond, ctx), _compile_term(body, ctx)) for cond, body in pf.pieces)


def _levelspike_value(ctx: PrimeContext, x: PadicScalar) -> PadicScalar:
    """The value of LevelSpike at x."""
    if x.is_zero:
        return ctx.scalar(0)
    n = x.ord()
    if n < 1:
        raise BuiltinDomainError("levelspike is defined on p*Z_p and at 0")
    if x.ac(2 * n) == 1:
        return PadicScalar(ctx.power(2 * n), ctx)
    return ctx.scalar(0)


_ARITHMETIC = {Add: operator.add, Sub: operator.sub, Mul: operator.mul}


def _compile(t: Term, ctx: PrimeContext) -> Callable:
    """A closure from a point to the value of t as an int, or as a Fraction
    when it is not integral; every error is raised where the tree walk
    raised it, so a Div tests its denominator before it reads the
    numerator."""
    if isinstance(t, RationalConst):
        value = t.value
        return lambda point: value
    if isinstance(t, Variable):
        name = t.name

        def variable(point):
            try:
                return point[name].value
            except KeyError:
                raise UnboundVariableError(f"unbound variable {name!r}") from None

        return variable
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
        if k >= 0:

            def power(point):
                r = base(point) ** k
                return r if r.__class__ is int or r.denominator != 1 else r.numerator

            return power

        def inverse_power(point):
            b = base(point)
            if not b:
                raise DivisionByZero(t)
            r = Fraction(b) ** k
            return r.numerator if r.denominator == 1 else r

        return inverse_power
    if isinstance(t, NormVal):
        arg = _compile(t.arg, ctx)

        def normval(point):
            a = arg(point)
            if not a:
                raise BuiltinDomainError("normval is declared on nonzero arguments")
            return ctx.power(-_scalar(a, ctx).ord())

        return normval
    if isinstance(t, LevelSpike):
        arg = _compile(t.arg, ctx)
        return lambda point: _levelspike_value(ctx, _scalar(arg(point), ctx)).value

    def not_a_term(point):
        raise TypeError(f"not a term node: {t!r}")

    return not_a_term


# |a| < |b| exactly when ord a > ord b; ord 0 is INFINITE_ORD = math.inf,
# above every int, so 0 is the least norm
_NORM_ORDER = {"<": operator.gt, "<=": operator.ge, "=": operator.eq}


def _compile_cond(c: Condition, ctx: PrimeContext) -> Callable:
    """A closure from a point to the truth value of c."""
    if isinstance(c, TrueCond):
        return lambda point: True
    if isinstance(c, NormCmp):
        lhs, rhs, op = _compile(c.lhs, ctx), _compile(c.rhs, ctx), c.op
        order = _NORM_ORDER.get(op)

        def norm_cmp(point):
            a = _scalar(lhs(point), ctx).ord()
            b = _scalar(rhs(point), ctx).ord()
            if order is None:
                raise ValueError(f"unknown norm comparison {op!r}")
            return order(a, b)

        return norm_cmp
    if isinstance(c, OrdCongruence):
        term, modulus, residue = _compile(c.term, ctx), c.modulus, c.residue

        def ord_congruence(point):
            v = _scalar(term(point), ctx).ord()
            return v != INFINITE_ORD and v % modulus == residue

        return ord_congruence
    if isinstance(c, CosetMember):
        term, lam, m, n = _compile(c.term, ctx), PadicScalar(c.lam, ctx), c.m, c.n
        # built per call only when invalid, so it raises where the walk did
        spec = CosetSpec(lam, m, n) if m >= 1 and n >= 1 else None

        def coset_member(point):
            x = _scalar(term(point), ctx)
            return in_coset(x, spec or CosetSpec(lam, m, n))

        return coset_member
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
    """Symbolic derivative with respect to var.

    normval and levelspike differentiate to zero: both are locally
    constant where they are defined.
    """
    if isinstance(t, RationalConst):
        return _ZERO
    if isinstance(t, Variable):
        return _ONE if t.name == var else _ZERO
    if isinstance(t, Add):
        return _add(differentiate(t.left, var), differentiate(t.right, var))
    if isinstance(t, Sub):
        return _sub(differentiate(t.left, var), differentiate(t.right, var))
    if isinstance(t, Mul):
        return _add(
            _mul(differentiate(t.left, var), t.right),
            _mul(t.left, differentiate(t.right, var)),
        )
    if isinstance(t, Div):
        num = _sub(
            _mul(differentiate(t.left, var), t.right),
            _mul(t.left, differentiate(t.right, var)),
        )
        return Div(num, IntPow(t.right, 2))
    if isinstance(t, IntPow):
        if t.exponent == 0:
            return _ZERO
        inner = differentiate(t.base, var)
        scaled = _mul(RationalConst(Fraction(t.exponent)), IntPow(t.base, t.exponent - 1))
        return _mul(scaled, inner)
    if isinstance(t, (NormVal, LevelSpike)):
        return _ZERO
    raise TypeError(f"not a term node: {t!r}")
