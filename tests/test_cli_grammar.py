"""The flat CLI grammar: option order, help, and random argv."""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultralift import cli

OPTIONS = ("--ground", "--precision", "--poly", "--point", "--target",
           "--coeffs", "--pseudo-inverse", "--r", "--route", "--nvars",
           "--addpoly", "--window", "--approx", "--report", "--seed",
           "--samples", "--tower-cap")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_options_may_come_before_the_command(capsys):
    canonical = run_cli(capsys, "lift1d", "--ground", "padic:3:12",
                        "--poly", "1*X0^2 + -7", "--point", "1")
    first = run_cli(capsys, "--ground", "padic:3:12", "lift1d",
                    "--poly", "1*X0^2 + -7", "--point", "1")
    assert canonical[0] == 0
    assert first == canonical


def test_help_lists_every_command_and_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in (*cli.COMMANDS, *OPTIONS):
        assert name in out


def test_parser_adds_each_option_once():
    flags = [flag for action in cli.build_parser()._actions
             for flag in action.option_strings if flag not in ("-h", "--help")]
    assert sorted(flags) == sorted(OPTIONS)


def test_syntax_errors_name_the_program_not_the_command(capsys):
    code, out, err = run_cli(capsys, "lift1d", "--poly", "1*X0^2 + -7")
    assert code == 64 and out == ""
    assert err == ("usage error: ultralift: the following arguments are "
                   "required: --ground\n")


# a request that each command accepts, on a tiny ground
REQUESTS = {
    "lift1d": {"--ground": "padic:3:6", "--poly": "1*X0^2 + -7", "--point": "1"},
    "liftnd": {"--ground": "padic:3:6", "--poly": "1*X0^2 + -7", "--point": "1"},
    "implicit": {"--ground": "padic:3:6", "--poly": "1*X1^2 + -1*X0 + -1",
                 "--point": "0;1", "--target": "9"},
    "pinv-lift": {"--ground": "padic:3:6", "--poly": "1*X0 + -9", "--point": "0",
                  "--pseudo-inverse": "1"},
    "invert-series": {"--ground": "series:q:1:6", "--coeffs": "1;1",
                      "--target": "1*t^(1) + O(t^(6))"},
    "dsolve": {"--ground": "vdfield:2:6", "--target": "1*t^(1) + O(t^(6))"},
    "dhensel": {"--ground": "vdfield:2:6", "--nvars": "2", "--point": "0",
                "--poly": "1*X1^2 + 1*X1 + -1*{1*t^(2) + O(t^(6))}"},
    "integrate": {"--ground": "rosenlicht:1:6",
                  "--target": "1*t^(0) + 1*t^(3) + O(t^(6))"},
    "ode": {"--ground": "rosenlicht:1:8", "--nvars": "2", "--r": "2",
            "--precision": "5", "--poly": "1*X0^2", "--target": "1*t^(2) + O(t^(8))"},
    "subgroup": {"--ground": "series:f2:1:8", "--addpoly": "0;1", "--window": "0:6",
                 "--approx": "1*t^(1) + O(t^(20))"},
}

# good and malformed values on tiny grounds, per option, and one unknown option
VOCABULARY = {
    "--ground": ("padic:3:4", "padic:2:3", "padic:4:4", "padic:3:x",
                 "series:q:1:4", "series:f2:1:6", "series:f3:1:0",
                 "vdfield:2:4", "rosenlicht:1:4", "bogus", ""),
    "--precision": ("3", "5/2", "0", "-1", "x", "6"),
    "--poly": ("1*X0^2 + -7", "1*X0 + -1*X1", "1*X0^2 + -1*{1*t^(2) + O(t^(4))}",
               "1*X1^2 + 1*X1 + -1*{1*t^(1) + O(t^(4))}", "X0^", "1*X9", ""),
    "--point": ("1", "1;1", "0", "1*t^(1) + O(t^(4))", "x", ";"),
    "--target": ("1*t^(1) + O(t^(4))", "1", "1*t^(-1) + O(t^(4))", "O(", ""),
    "--coeffs": ("1;1", "0", "(1)", "1;x", ""),
    "--pseudo-inverse": ("1", "1;0|0;1", "x", "|"),
    "--r": ("2", "1/2", "0", "x"),
    "--route": ("dominant", "wcm", "bogus"),
    "--nvars": ("2", "1", "0", "-1", "x"),
    "--addpoly": ("0;1", "1;1", "0;0;1", "0", "1*t^(1) + O(t^(20));1", "x", ""),
    "--window": ("0:4", "-2:2", "3:1", "0:0", "x", "0:1:2"),
    "--approx": ("1*t^(1) + O(t^(20))", "1", "x"),
    "--report": ("text", "structured", "json"),
    "--seed": ("0", "7", "-1", "x"),
    "--samples": ("1", "3", "0", "x"),
    "--tower-cap": ("1", "8", "64", "0", "-1", "x"),
    "--bogus": ("1",),
}


@st.composite
def argvs(draw):
    """A command's accepted request with options dropped, added from the
    vocabulary and shuffled; now and then the command itself is swapped
    for another or an unknown one."""
    command = draw(st.sampled_from(tuple(REQUESTS)))
    opts = [(k, v) for k, v in REQUESTS[command].items() if draw(st.integers(0, 5))]
    for flag in draw(st.lists(st.sampled_from(sorted(VOCABULARY)), max_size=3)):
        opts.append((flag, draw(st.sampled_from(VOCABULARY[flag]))))
    args = [f"{k}={v}" for k, v in draw(st.permutations(opts))]
    if not draw(st.integers(0, 9)):
        command = draw(st.sampled_from((*cli.COMMANDS, "bogus")))
    at = draw(st.integers(0, len(args)))
    return [*args[:at], command, *args[at:]]


@settings(max_examples=200, deadline=None)
@given(argvs())
def test_random_argv_exits_with_a_documented_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 2, 3, 64, 70)
