import json

import pytest

from ultralip.cli import main


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


class TestLipschitzCommands:
    def test_empirical(self, capsys):
        code, out, _ = run(
            capsys, "lipschitz", "-p", "3", "-f", "3*t", "--window=0:2", "-M", "2"
        )
        assert code == 0
        assert "C = 3^-1" in out

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
