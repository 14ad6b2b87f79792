"""Literal text: the term tokenizer against its character-loop oracle, int
tokens that are not decimal, cell literals, and the rationals and balls of
the command line.

Every property is seeded (derandomized), so a run is reproducible.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import char_tokens
from ultralip.cells import format_cell, parse_cell, point_cell
from ultralip.cli import main
from ultralip.qp_core import CosetSpec, PrimeContext
from ultralip.syntax import ParseError, _tokenize, parse_condition, parse_term

seeded = settings(derandomize=True, deadline=None, max_examples=400)

# token characters, plus whitespace, digits and letters outside ASCII:
# superscript two and the vulgar half are numeric but not decimal
SPECIAL = "0123456789xyt_Q +-*/^()|<>=!%,;{}[]&.\n\t\r" "²¹½٣٤Ⅻ一é  \x1c"
sources = st.text(st.one_of(st.sampled_from(SPECIAL), st.characters()), max_size=24)


def check_tokens(source):
    try:
        want = char_tokens(source)
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            _tokenize(source)
        assert (got.value.message, got.value.line, got.value.col) == (err.message, err.line, err.col)
        return
    got = _tokenize(source)
    assert got[-1] == got[-2]
    assert [tuple(t) for t in got[:-1]] == want


class TestTokenizer:
    @seeded
    @given(sources)
    def test_tokens_match_the_character_loop(self, source):
        check_tokens(source)

    @pytest.mark.parametrize(
        "source",
        ["1²x", "x²", "²", "½", "1½", "٣٤+x", "一x", "a b", "t\r\n  -> u", "x\n\n ||y", "", "  \n"],
    )
    def test_unicode_examples(self, source):
        check_tokens(source)


class TestNonDecimalDigits:
    """'²' is an int token (str.isdigit) that int() cannot read: each place
    that reads an int token rejects it at the token."""

    @pytest.mark.parametrize(
        "parse, source, col",
        [
            (parse_term, "x^²", 3),
            (parse_term, "1/²", 3),
            (parse_term, "x^(²)", 4),
            (parse_condition, "ord(x) % ² = 1", 10),
        ],
    )
    def test_parse_error_at_the_token(self, parse, source, col):
        with pytest.raises(ParseError) as err:
            parse(source)
        assert err.value.message == "'²' is not a decimal integer"
        assert (err.value.line, err.value.col) == (1, col)

    def test_other_decimal_scripts_still_read(self):
        assert parse_term("x^٣") == parse_term("x^3")


def point_cells():
    @st.composite
    def build(draw):
        ctx = PrimeContext(draw(st.sampled_from([2, 3, 5])))
        rational = st.builds(Fraction, st.integers(-60, 60), st.integers(1, 9))
        lo = draw(st.one_of(st.none(), st.integers(-4, 6)))
        hi = draw(st.one_of(st.none(), st.integers(lo if lo is not None else -4, 8)))
        coset = CosetSpec(ctx.scalar(draw(rational)), draw(st.integers(1, 3)), draw(st.integers(1, 3)))
        var = draw(st.sampled_from(["t", "x", "y", "u1", "_s"]))
        return ctx, point_cell(ctx.scalar(draw(rational)), coset, lo, hi, fiber_var=var)

    return build()


class TestCellLiterals:
    @seeded
    @given(point_cells())
    def test_format_then_parse_is_identity(self, case):
        ctx, cell = case
        assert parse_cell(format_cell(cell), ctx) == cell

    @pytest.mark.parametrize(
        "literal, marker, message",
        [
            ("cell(center=0; coset=1*Q(1,1); ord in [1,2]; ord > 5)", "ord >", "level range twice"),
            ("cell(center=0; coset=1*Q(1,1); all; ord > 5)", "ord >", "level range twice"),
            ("cell(coset=1*Q(1,1); ord < 2; all)", "all", "level range twice"),
            ("cell(center=0; coset=1*Q(1,1); center=1)", "center=1", "'center' segment twice"),
            ("cell(coset=1*Q(1,1); var=x y)", "y)", "expected ')'"),
            ("cell(coset=1*Q(1,1); var=ord)", "ord)", "expected a variable name"),
            ("cell(coset=1*Q(1,1);)", ")", "expected a cell segment"),
            ("cell(center=1+; coset=1*Q(1,1))", "; coset", "expected a term"),
            ("cell(coset=1*Q(0,1))", "1*Q(0", "coset depths"),
            ("cell(coset=1*Q(1,1); ord in [3,2])", "ord in", "empty ord range"),
            ("cell(center=0;\n  coset=1*Q(1,1); bound=2)", "bound", "expected a cell segment"),
            ("cell(coset=1*Q(1,1); alpha=y; ord < 3; var=x)", "ord <", "alpha bound twice"),
            ("cell(coset=1*Q(1,1); ord in [0,2]; alpha=y)", "alpha=", "alpha bound twice"),
            ("cell(coset=1*Q(1,1); beta=y; ord > 0)", "ord >", "beta bound twice"),
            ("cell(coset=1*Q(1,1); beta=y;\n ord in [0,2])", "ord in", "beta bound twice"),
        ],
    )
    def test_rejection_points_at_its_column(self, ctx3, literal, marker, message):
        at = literal.rindex(marker)
        line = literal.count("\n", 0, at) + 1
        col = at - (literal.rfind("\n", 0, at) + 1) + 1
        with pytest.raises(ParseError) as err:
            parse_cell(literal, ctx3)
        assert message in err.value.message
        assert (err.value.line, err.value.col) == (line, col)

    @pytest.mark.parametrize(
        "literal",
        [
            "cell(coset=1*Q(1,1); alpha=y; ord > 2; var=x)",
            "cell(coset=1*Q(1,1); ord < 2; beta=y; var=x)",
            "cell(coset=1*Q(1,1); alpha=y; all; var=x)",
        ],
    )
    def test_one_bound_from_each_side_is_legal(self, ctx3, literal):
        cell = parse_cell(literal, ctx3)
        assert cell.base_vars == ("y",)
        assert parse_cell(format_cell(cell), ctx3) == cell

    @pytest.mark.parametrize(
        "literal, printed",
        [
            ("cell(coset=1*Q(1,1); alpha=0)", "cell(center=0; coset=1*Q(1,1); all; alpha=0)"),
            ("cell(coset=1*Q(1,1); ord < 2; beta=0)", "cell(center=0; coset=1*Q(1,1); ord < 2; beta=0)"),
        ],
    )
    def test_a_zero_bound_is_kept(self, ctx3, literal, printed):
        """A zero bound is no level: the cell keeps it, and format_cell prints it."""
        cell = parse_cell(literal, ctx3)
        assert format_cell(cell) == printed
        assert parse_cell(format_cell(cell), ctx3) == cell


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCommandLineLiterals:
    @pytest.mark.parametrize(
        "argv, col",
        [
            (["ord", "-p", "3", "1.5"], 2),
            (["ord", "-p", "3", "1e3"], 2),
            (["ord", "-p", "3", "1_000"], 2),
            (["ord", "-p", "3", "+3"], 1),
            (["ac", "-p", "3", "2/"], 2),
            (["eval", "-p", "3", "-f", "t", "--at", "t=0.5"], 2),
            (["ball-of-cell", "-p", "3", "--coset", "1*Q(1,1)", "--t", "4.0"], 2),
            (["jacobian", "-p", "3", "-f", "x", "--ball", "1.5 + 3^1"], 2),
            (["jacobian", "-p", "3", "-f", "x", "--ball", "1 3^1"], 3),
            (["jacobian", "-p", "3", "-f", "x", "--ball", "1 + 3^+1"], 7),
            (
                ["certify", "-p", "3", "-f", "x", "--coset", "1*Q(1,1)", "--var", "x",
                 "--window=0:1", "--candidate", "1e2"],
                2,
            ),
            (
                ["enumerate-balls", "-p", "3", "--window=0:6",
                 "--cell", "cell(center=0; coset=1*Q(1,1); ord in [1,2]; ord > 5)"],
                46,
            ),
            (
                ["enumerate-balls", "-p", "3", "--window=0:6",
                 "--cell", "cell(center=0; coset=1*Q(1,1); all; var=x y)"],
                43,
            ),
            (["eval", "-p", "3", "-f", "x^²", "--at", "x=1"], 3),
            (
                ["enumerate-balls", "-p", "3", "--window=0:6",
                 "--cell", "cell(coset=1*Q(1,1); alpha=y; ord < 3; var=x)"],
                31,
            ),
        ],
    )
    def test_malformed_literal_exits_two_at_its_column(self, capsys, argv, col):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and f"column {col})" in err

    @pytest.mark.parametrize(
        "extra, flags",
        [
            (["--coset", "1*Q(1,2)"], "--coset"),
            (["--center", "1"], "--center"),
            (["--var", "x"], "--var"),
            (["--center", "1", "--var", "x"], "--center, --var"),
        ],
    )
    def test_cell_excludes_the_assembling_flags(self, capsys, extra, flags):
        code, out, err = run(
            capsys, "enumerate-balls", "-p", "3", "--window=0:4",
            "--cell", "cell(center=0; coset=1*Q(1,1); all)", *extra,
        )
        assert (code, out) == (2, "")
        assert err == f"error: --cell cannot be combined with {flags}\n"

    @pytest.mark.parametrize("flag", ["--center", "--coset", "--var"])
    def test_flags_cannot_splice_segments(self, capsys, flag):
        values = {"--center": "0", "--coset": "1*Q(1,1)", "--var": "t"}
        values[flag] += "; ord in [5,6]"
        argv = [arg for pair in values.items() for arg in pair]
        code, out, err = run(capsys, "enumerate-balls", "-p", "3", "--window=0:6", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {flag} takes one value, not cell segments\n"

    def test_negative_radius_ball(self, capsys):
        code, out, _ = run(capsys, "map-ball", "-p", "3", "-f", "x", "--ball", "-1/3 + 3^-1", "-M", "1")
        assert code == 0
        assert out.strip() == "0 + 3^-1"
