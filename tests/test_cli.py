import argparse
import collections
import contextlib
import io
import json
import random
import shlex
from pathlib import Path

import pytest

from oracles import top_level_parse
from ultralip.cli import _build_parser, _parse, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestScalarCommands:
    def test_ord(self, capsys):
        code, out, _ = run(capsys, "ord", "-p", "3", "45/2")
        assert code == 0
        assert out.strip() == "2"

    def test_ord_of_zero(self, capsys):
        code, out, _ = run(capsys, "ord", "-p", "5", "0")
        assert code == 0
        assert out.strip() == "+inf"

    def test_ac(self, capsys):
        code, out, _ = run(capsys, "ac", "-p", "3", "-n", "2", "45")
        assert code == 0
        assert out.strip() == "5 mod 3^2"

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["ord", "-p", "3", "-27/4"], "3"),
            (["ord", "-p", "3", "--json", "-27/4"], '{"ord":"3"}'),
            (["ord", "-p", "3", "-27"], "3"),
            (["ord", "-p", "3", "--", "-27/4"], "3"),
            (["ac", "-p", "3", "-n", "2", "-27/4"], "2 mod 3^2"),
            (["ac", "-p", "3", "-27/4", "-n", "2"], "2 mod 3^2"),
            (["ball-of-cell", "-p", "3", "--coset", "1*Q(1,1)", "--t", "-2/3"], "1/3 + 3^0"),
        ],
        ids=["ord", "ord-json", "ord-int", "ord-after-dashes", "ac", "ac-before-n", "option-value"],
    )
    def test_negative_rational_values(self, capsys, argv, expected):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.strip() == expected

    def test_unknown_option_still_exit_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["ord", "-p", "3", "-x"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["prepare", "-p", "5", "-f", "1 * (t - 0) * (t - 1)", "--window", "-2:3", "--verify", "-M", "3"],
            ["lipschitz", "-p", "3", "-f", "x^2", "--window", "-1:2"],
            ["lipschitz", "-p", "3", "-f", "x^2", "--window", "-2:-1", "--json"],
        ],
        ids=["prepare", "lipschitz", "both-negative"],
    )
    def test_negative_window_after_a_space(self, capsys, argv):
        i = argv.index("--window")
        joined = argv[:i] + [f"--window={argv[i + 1]}"] + argv[i + 2:]
        expected = run(capsys, *joined)
        assert expected[0] == 0
        assert run(capsys, *argv) == expected
        # a word after a dash is still an option
        with pytest.raises(SystemExit) as err:
            main(["ord", "-p", "3", "-x"])
        assert err.value.code == 2

    def test_eval(self, capsys):
        code, out, _ = run(capsys, "eval", "-p", "5", "-f", "(t-1)*t/(t+2)", "--at", "t=3")
        assert code == 0
        assert out.startswith("6/5")

    def test_eval_json(self, capsys):
        code, out, _ = run(
            capsys, "eval", "-p", "5", "-f", "(t-1)*t/(t+2)", "--at", "t=3", "--json"
        )
        assert code == 0
        assert json.loads(out) == {"value": "6/5", "ord": "-1", "norm": "5^1"}

    def test_eval_at_a_zero(self, capsys):
        code, out, _ = run(capsys, "eval", "-p", "3", "-f", "x-1", "--at", "x=1", "--json")
        assert code == 0
        assert out == '{"norm":"0","ord":"+inf","value":"0"}\n'
        code, out, _ = run(capsys, "eval", "-p", "3", "-f", "x-1", "--at", "x=1")
        assert code == 0
        assert out == "0  (ord +inf, |.| = 0)\n"


class TestRegionsCommands:
    def test_ball_of_cell(self, capsys):
        code, out, _ = run(
            capsys, "ball-of-cell", "-p", "3",
            "--cell", "cell(center=0; coset=1*Q(1,1); all)", "--t", "4",
        )
        assert code == 0
        assert out.strip() == "1 + 3^1"

    def test_enumerate_balls(self, capsys):
        code, out, _ = run(
            capsys, "enumerate-balls", "-p", "3",
            "--cell", "cell(center=0; coset=1*Q(1,2); all)", "--window=0:4",
        )
        assert code == 0
        assert out.splitlines() == ["1 + 3^1", "9 + 3^3", "81 + 3^5"]

    def test_coset_flag_replaces_cell_literal(self, capsys):
        code, out, _ = run(
            capsys, "enumerate-balls", "-p", "3", "--coset", "1*Q(1,2)", "--window=0:4"
        )
        assert code == 0
        assert out.splitlines() == ["1 + 3^1", "9 + 3^3", "81 + 3^5"]

    def test_center_flag(self, capsys):
        code, out, _ = run(
            capsys, "ball-of-cell", "-p", "3", "--center", "1",
            "--coset", "1*Q(1,1)", "--t", "2",
        )
        assert code == 0
        assert out.strip() == "2 + 3^1"

    def test_missing_cell_and_coset_exit_two(self, capsys):
        code, _, err = run(capsys, "enumerate-balls", "-p", "3", "--window=0:1")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate-balls", "--window=0:2"],
            ["ball-of-cell", "--t", "1"],
        ],
    )
    def test_zero_cell_exit_two(self, capsys, argv):
        code, out, err = run(capsys, *argv, "-p", "3", "--coset", "0*Q(1,1)")
        assert code == 2
        assert out == ""
        assert err == "error: a 0-cell has no balls\n"


class TestJacobianCommands:
    def test_certificate_exit_zero(self, capsys):
        code, out, _ = run(
            capsys, "jacobian", "-p", "3", "-f", "x^2", "--ball", "1 + 3^1", "-M", "3"
        )
        assert code == 0
        assert "jac_ord = 0" in out

    def test_violation_exit_one(self, capsys):
        code, out, _ = run(
            capsys, "jacobian", "-p", "3", "-f", "x^2", "--ball", "0 + 3^1", "-M", "3"
        )
        assert code == 1
        assert "violation" in out

    @pytest.mark.parametrize(
        "f, ball, detail, witness",
        [
            ("5", "0 + 3^0", "ord(f') is +inf (derivative vanishes) at 0", ["0"]),
            ("x^3", "0 + 3^1", "ord(f') is +inf at 0 but 3 at 3", ["0", "3"]),
        ],
        ids=["derivative-vanishes", "derivative-vanishes-at-one-point"],
    )
    def test_infinite_derivative_ord_in_the_detail(self, capsys, f, ball, detail, witness):
        code, out, _ = run(capsys, "jacobian", "-p", "3", "-f", f, "--ball", ball, "-M", "2", "--json")
        assert code == 1
        assert json.loads(out) == {"detail": detail, "violation": "c_jac_ord_varies", "witness": witness}
        code, out, _ = run(capsys, "jacobian", "-p", "3", "-f", f, "--ball", ball, "-M", "2")
        assert code == 1
        assert out.splitlines()[-1] == f"  {detail}"

    def test_distance_mismatch_exit_one(self, capsys):
        f = "x + 1/2*normval(x+2)^(-1) + 1/2*normval(x+5)^(-1)"
        code, out, _ = run(capsys, "jacobian", "-p", "2", "-f", f, "--ball", "0 + 2^0", "-M", "2", "--json")
        assert code == 1
        assert json.loads(out) == {
            "detail": "ord(f(x)-f(y)) = 0 but ord(f') + ord(x-y) = 1 for x=0, y=2",
            "violation": "d_distance_mismatch",
            "witness": ["0", "2"],
        }

    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "jacobian", "-p", "3", "-f", "x^2", "--ball", "1 + 3^1",
            "-M", "3", "--json",
        )
        payload = json.loads(out)
        assert payload == {
            "ball": {"center": "1", "radius_ord": 1},
            "image": {"center": "1", "radius_ord": 1},
            "jac_ord": 0,
            "depth": 3,
        }

    def test_map_ball(self, capsys):
        code, out, _ = run(
            capsys, "map-ball", "-p", "3", "-f", "x^3", "--ball", "1 + 3^1", "-M", "2"
        )
        assert code == 0
        assert out.strip() == "1 + 3^2"

    def test_correspondence(self, capsys):
        code, out, _ = run(
            capsys, "correspondence", "-p", "3", "-f", "x^2",
            "--cell", "cell(center=0; coset=1*Q(1,1); all; var=x)",
            "--window=0:3", "-M", "3",
        )
        assert code == 0
        assert "coset=1*Q(1,2)" in out

    def test_correspondence_image_not_single_cell(self, capsys):
        code, out, _ = run(
            capsys, "correspondence", "-p", "3", "-f", "x^2+x", "--coset", "1*Q(2,1)",
            "--var", "x", "--window=1:4", "-M", "2", "--json",
        )
        assert code == 1
        assert json.loads(out) == {
            "detail": "image balls fit into 2 cells, not one; a single cell was required",
            "failure": "image_not_single_cell",
            "witnesses": [
                "cell(center=0; coset=9*Q(2,1); ord in [2,4]; var=x)",
                "cell(center=0; coset=12*Q(2,1); ord in [1,1]; var=x)",
            ],
        }


    def test_correspondence_witnesses_follow_the_greedy_rule(self, capsys):
        """The image levels {1,2,4} of one (m, xi) group split into the
        first longest chain from 1, {1,2}, and then {4}."""
        code, out, _ = run(
            capsys, "correspondence", "-p", "2", "-f", "x^3+x", "--coset", "1*Q(1,2)",
            "--var", "x", "--window=0:4", "-M", "1", "--json",
        )
        assert code == 1
        assert json.loads(out)["witnesses"] == [
            "cell(center=0; coset=2*Q(1,1); ord in [1,2]; var=x)",
            "cell(center=0; coset=16*Q(1,1); ord in [4,4]; var=x)",
        ]

    def test_correspondence_no_balls_names_the_levels(self, capsys):
        """The window's levels hold no ball of the cell; -M is the depth of
        the representatives and is not part of the levels."""
        code, out, _ = run(
            capsys, "correspondence", "-p", "3", "-f", "x^2", "--coset", "3*Q(1,2)",
            "--var", "x", "--window=0:0", "-M", "2",
        )
        assert code == 1
        assert out == (
            "correspondence failed (no_balls_in_window): "
            "the cell has no balls with level in [0,0]\n"
        )

class TestLipschitzCommands:
    def test_empirical(self, capsys):
        code, out, _ = run(
            capsys, "lipschitz", "-p", "3", "-f", "3*t", "--window=0:2", "-M", "2"
        )
        assert code == 0
        assert "C = 3^-1" in out

    def test_the_region_label_is_the_scanned_condition(self, capsys):
        code, out, _ = run(
            capsys, "lipschitz", "-p", "3", "-f", "x^2", "--window=0:1", "-M", "1",
            "--region", "|x|<=|1|", "--json",
        )
        assert code == 0
        assert '"region":"|x| <= |1|"' in out

    def test_certify(self, capsys):
        code, out, _ = run(
            capsys, "certify", "-p", "3", "-f", "x^2",
            "--cell", "cell(center=0; coset=1*Q(1,1); all; var=x)",
            "--window=0:3", "-M", "3", "--epsilon-exponent", "0",
        )
        assert code == 0
        assert "C = 3^0" in out

    def test_certify_failure_exit_one(self, capsys):
        code, out, _ = run(
            capsys, "certify", "-p", "3", "-f", "normval(x)",
            "--cell", "cell(center=0; coset=1*Q(1,1); all; var=x)",
            "--window=0:2", "-M", "2",
        )
        assert code == 1
        assert "failed" in out

    @pytest.mark.parametrize(
        "argv, expected",
        [
            # f(center) = 1 centres the fitted image cell at 1: an outcome of
            # the analysis (exit 1), where a nonzero source center is a usage error
            (
                ["-p", "3", "-f", "x^2+1", "--window=0:3", "-M", "3"],
                '{"detail":"fitted image cell center must be 0, found 1","failure":"ImageCenterNotZero"}',
            ),
            (
                ["-p", "2", "-f", "12*x^2", "--window=0:2", "-M", "2"],
                '{"detail":"f(3) and f(5) collide in one residue class of 12 + 2^4; '
                'the image cannot tile the ball","failure":"CertificationFailed"}',
            ),
            (
                ["-p", "3", "-f", "x^2", "--window=0:3", "-M", "3", "--epsilon-exponent", "-1"],
                '{"detail":"|f\'| = p^0 > p^-1 on 1 + 3^1","failure":"DerivativeBoundExceeded"}',
            ),
        ],
        ids=["image-center-not-zero", "certification-failed", "derivative-bound-exceeded"],
    )
    def test_certify_failure_json_bytes(self, capsys, argv, expected):
        """Each failure of the certified constant exits 1 with pinned --json
        bytes; text mode names its kind."""
        cell = ["--coset", "1*Q(1,1)", "--var", "x"]
        assert run(capsys, "certify", *argv, *cell, "--json") == (1, expected + "\n", "")
        failure = json.loads(expected)
        text = f"certification failed ({failure['failure']}): {failure['detail']}\n"
        assert run(capsys, "certify", *argv, *cell) == (1, text, "")

    def test_certify_nonzero_source_center_exit_two(self, capsys):
        code, out, err = run(
            capsys, "certify", "-p", "3", "-f", "x",
            "--cell", "cell(center=1; coset=1*Q(1,1); all; var=x)",
            "--window=0:2", "-M", "2",
        )
        assert (code, out) == (2, "")
        assert err == "error: source cell center must be 0\n"

    @pytest.mark.parametrize("f", ["x", "x^2"])
    def test_certify_source_center_is_checked_first(self, capsys, f):
        """The exit code depends on the input alone: x^2 would fail the
        correspondence on this cell (images_overlap), x would pass it, and
        both are refused for their source centre before it runs."""
        argv = ["-f", f, "--cell", "cell(center=1; coset=1*Q(1,1); all; var=x)"]
        for json_flag in ((), ("--json",)):
            assert run(capsys, "certify", "-p", "3", *argv, "--window=0:3", "-M", "3", *json_flag) == (
                2,
                "",
                "error: source cell center must be 0\n",
            )


class TestPrepareCommand:
    def test_prepare_verify(self, capsys):
        code, out, _ = run(
            capsys, "prepare", "-p", "5", "-f", "1 * (t - 0) * (t - 1)",
            "--window=-2:3", "--verify", "-M", "3",
        )
        assert code == 0
        assert "all pieces pass" in out


class TestExamples:
    def test_exloc2_ratios(self, capsys):
        code, out, _ = run(capsys, "example", "exloc2", "-p", "3", "--levels", "5", "--json")
        assert code == 0
        payload = json.loads(out)
        assert [e["ratio_exponent"] for e in payload["entries"]] == [0, 1, 2, 3, 4]
        assert [d["quotient_exponent"] for d in payload["derivative_trace"]] == [
            -1, -2, -3, -4, -5,
        ]

    def test_exloc(self, capsys):
        code, out, _ = run(capsys, "example", "exloc", "-p", "3", "--window=0:4", "-M", "2")
        assert code == 0
        assert "ratio" in out


class TestContract:
    def test_usage_error_exit_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["jacobian", "-p", "3"])  # missing required arguments
        assert err.value.code == 2

    def test_bad_prime_exit_two(self, capsys):
        code, _, err = run(capsys, "ord", "-p", "4", "1")
        assert code == 2
        assert "error" in err

    def test_bad_ball_literal_exit_two(self, capsys):
        code, _, err = run(
            capsys, "jacobian", "-p", "3", "-f", "x", "--ball", "1 + 5^1", "-M", "2"
        )
        assert code == 2

    def test_parse_error_exit_two(self, capsys):
        code, _, err = run(capsys, "eval", "-p", "3", "-f", "t +* 1", "--at", "t=1")
        assert code == 2

    def test_repeated_variable_exit_two(self, capsys):
        code, out, err = run(
            capsys, "eval", "-p", "3", "-f", "x+y", "--at", "x=1", "--at", "y=2", "--at", "x=5"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "'x'" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["ord", "-p", "3", "abc"],
            ["ord", "-p", "3", "1/0"],
            ["jacobian", "-p", "3", "-f", "x", "--ball", "1 + 3^1", "-M", "0"],
            ["eval", "-p", "3", "-f", "1/0"],
            ["enumerate-balls", "-p", "3", "--coset", "1/0*Q(1,1)", "--window=0:1"],
        ],
    )
    def test_bad_input_exit_two(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "-p", "3", "-f", "x", "--at", "x=1"],
            ["ord", "-p", "3", "45"],
            ["ac", "-p", "3", "45"],
            ["ball-of-cell", "-p", "3", "--coset", "1*Q(1,1)", "--t", "4"],
            ["enumerate-balls", "-p", "3", "--coset", "1*Q(1,1)", "--window=0:1"],
        ],
    )
    def test_depth_only_where_read(self, capsys, argv):
        assert run(capsys, *argv)[0] == 0
        with pytest.raises(SystemExit) as err:
            main(argv + ["-M", "7"])
        assert err.value.code == 2

    def test_internal_error_exit_three(self, capsys, monkeypatch):
        import ultralip.cli as cli

        def broken(*args, **kwargs):
            raise AssertionError("sweep invariant broken")

        monkeypatch.setattr(cli, "prepare", broken)
        code, out, err = run(
            capsys, "prepare", "-p", "5", "-f", "1 * (t - 0)", "--window=0:1"
        )
        assert code == 3
        assert out == ""
        assert "Traceback" in err
        assert "AssertionError: sweep invariant broken" in err
        assert "internal error" in err

    def test_every_option_has_a_help_line(self):
        missing = [
            f"{name} {'/'.join(action.option_strings) or action.dest}"
            for name, parser in _build_parser()[1].items()
            for action in parser._actions
            if not action.help and not isinstance(action, argparse._HelpAction)
        ]
        assert missing == []

    def test_depth_zero_exit_two(self, capsys):
        code, _, err = run(
            capsys, "jacobian", "-p", "3", "-f", "x", "--ball", "1 + 3^1", "-M", "0"
        )
        assert code == 2

    def test_json_outputs_reproducible(self, capsys):
        args = [
            "certify", "-p", "3", "-f", "x^2",
            "--cell", "cell(center=0; coset=1*Q(1,1); all; var=x)",
            "--window=0:3", "-M", "3", "--json",
        ]
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
        json.loads(first)

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["prepare", "-p", "5", "-f", "1 * (t - 0)", "--window=0:2", "--m-depth", "0"], "--m-depth must be >= 1, got 0"),
            (["example", "exloc2", "-p", "3", "--levels", "0"], "--levels must be >= 1, got 0"),
            (["ac", "-p", "3", "-n", "0", "45"], "-n must be >= 1, got 0"),
            (["ac", "-p", "3", "-n", "-2", "45"], "-n must be >= 1, got -2"),
            (["jacobian", "-p", "3", "-f", "x", "--ball", "1 + 3^1", "-M", "0"], "-M/--depth must be >= 1, got 0"),
            (["jacobian", "-p", "3", "-f", "x", "--ball", "1 + 3^1", "--depth", "0"], "-M/--depth must be >= 1, got 0"),
        ],
        ids=["m-depth", "levels", "n", "n-negative", "M", "depth"],
    )
    def test_a_count_below_one_names_its_flag(self, capsys, argv, err):
        assert run(capsys, *argv) == (2, "", f"error: {err}\n")

    def test_a_bad_value_is_reported_before_the_digit_count(self, capsys):
        code, out, err = run(capsys, "ac", "-p", "3", "-n", "0", "abc")
        assert (code, out) == (2, "")
        assert err.startswith("error: bad rational 'abc'")


def parse_outcome(parse, argv) -> tuple:
    """What parse(argv) gives: its Namespace as a dict, or the code of the
    SystemExit it raised; then the stdout and the stderr it wrote."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(list(argv)))
        except SystemExit as exit:
            result = ("exit", exit.code)
    return result, out.getvalue(), err.getvalue()


# option values and stray words for the drawn command lines: negative
# rationals and windows, malformed numbers, and words argparse reads as
# options or as the end of the options
VALUES = [
    "3", "5", "0", "-1", "45/2", "-27/4", "-27", "-.5", "1.5", "0:3", "-2:3", "-2:-1", "0:4", "x^2",
    "1 * (t - 0)", "1 + 3^1", "1*Q(1,1)", "cell(center=0; coset=1*Q(1,1); all; var=x)", "t=3", "exloc", "exloc2",
]
INTS = ["3", "5", "2", "0", "-1"]
STRAYS = ["--", "-h", "--help", "--bogus", "-x", "-", "--pr", "--wind", "-M", "-27/4", "-2:3"]


def random_argv(rng: random.Random) -> list:
    """A command line drawn from a command's option table: most of its
    options in a random order, each value mostly of the option's type,
    missing or joined with "="; now and then a stray word; and a first word
    that is the command, or an abbreviation of it, an unknown word, or an
    option."""
    if rng.random() < 0.03:
        return []
    name, parser = rng.choice(list(_build_parser()[1].items()))

    def value(action) -> str:
        """Mostly a value of the action's type or among its choices."""
        fitting = action.choices or (INTS if action.type is int else VALUES)
        return rng.choice(list(fitting) if rng.random() < 0.9 else VALUES)

    groups = []
    for action in parser._actions:
        if not action.option_strings:
            groups.append([value(action)])
            continue
        flag = rng.choice(action.option_strings)
        if rng.random() > (0.03 if flag in ("-h", "--help") else 0.9):
            continue
        if action.nargs == 0:
            groups.append([flag])
        elif rng.random() < 0.04:
            groups.append([flag])  # the value is missing
        elif flag.startswith("--") and rng.random() < 0.3:
            groups.append([f"{flag}={value(action)}"])
        else:
            groups.append([flag, value(action)])
    rng.shuffle(groups)
    for _ in range(rng.choice([0, 0, 0, 0, 0, 1, 2])):
        groups.insert(rng.randint(0, len(groups)), [rng.choice(STRAYS)])
    roll = rng.random()
    head = name if roll < 0.85 else name[: rng.randint(1, len(name) - 1)] if roll < 0.9 else rng.choice(
        ["nosuch", "-h", "--", "-p"]
    )
    return [head] + [word for group in groups for word in group]


def readme_tour() -> list:
    """The argv of each command of the README's CLI quick tour."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme.split("## CLI quick tour", 1)[1].split("Exit codes", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in tour.splitlines() if line.startswith("ultralip ")]


class TestParse:
    """`_parse` reads a command line in one pass with the named command's
    parser; the top-level parse is its oracle."""

    def test_one_pass_parse_is_the_top_level_parse(self):
        rng = random.Random(33)
        seen = collections.Counter()
        for _ in range(600):
            argv = random_argv(rng)
            result = parse_outcome(_parse, argv)
            assert result == parse_outcome(top_level_parse, argv), argv
            outcome = "parsed" if isinstance(result[0], dict) else f"exit {result[0][1]}"
            seen[outcome] += 1
            seen["empty" if not argv else "command" if argv[0] in _build_parser()[1] else "other head"] += 1
            seen.update(word for word in ("--", "-h", "--bogus", "-27/4", "-2:3") if word in argv[1:])
            seen["missing value"] += "expected one argument" in result[2]
            seen["unrecognized"] += "unrecognized arguments" in result[2]
            seen["invalid choice"] += "invalid choice" in result[2]
        for case in ("parsed", "exit 0", "exit 2", "empty", "other head", "--", "-h", "--bogus", "-27/4", "-2:3",
                     "missing value", "unrecognized", "invalid choice"):
            assert seen[case] >= 3, (case, seen)

    @pytest.mark.parametrize(
        "argv",
        [
            ["ord", "-p", "3", "--", "-27/4"],
            ["ord", "--", "-p", "3", "45"],
            ["ord", "-p", "3", "45", "--", "--json"],
            ["ac", "-p", "3", "--", "-n", "2"],
            ["example", "-p", "3", "--", "exloc"],
            ["ord", "-p", "3", "--json", "--", "--"],
            ["cert", "-p", "3"],
            ["--", "ord", "-p", "3", "45"],
        ],
    )
    def test_hand_picked_command_lines(self, argv):
        assert parse_outcome(_parse, argv) == parse_outcome(top_level_parse, argv)

    @pytest.mark.parametrize("argv", readme_tour(), ids=lambda argv: " ".join(argv[:3]))
    def test_a_valid_command_line_takes_one_pass(self, monkeypatch, argv):
        top = _build_parser()[0]

        def refused(argv):
            raise AssertionError(f"the top-level parser read {argv}")

        monkeypatch.setattr(top, "parse_args", refused)
        assert _parse(argv).command == argv[0]

    @pytest.mark.parametrize(
        "argv, prefix",
        [
            ([], "ultralip: error:"),
            (["nosuch"], "ultralip: error:"),
            (["ord"], "ultralip ord: error:"),
            (["ord", "-p", "3", "45", "--bogus"], "ultralip: error: unrecognized arguments"),
        ],
        ids=["empty", "nosuch", "ord", "bogus"],
    )
    def test_usage_errors_name_the_parser_that_reports(self, capsys, argv, prefix):
        with pytest.raises(SystemExit) as exit:
            main(argv)
        out, err = capsys.readouterr()
        assert (exit.value.code, out) == (2, "")
        assert err.splitlines()[-1].startswith(prefix)

    @pytest.mark.parametrize(
        "argv, usage",
        [(["-h"], "usage: ultralip [-h]"), (["certify", "-p", "3", "-h"], "usage: ultralip certify ")],
        ids=["top", "certify"],
    )
    def test_help_goes_to_stdout(self, capsys, argv, usage):
        with pytest.raises(SystemExit) as exit:
            main(argv)
        out, err = capsys.readouterr()
        assert (exit.value.code, err) == (0, "")
        assert out.startswith(usage)
