"""CLI surface: documented examples, exit codes, determinism, round-trip."""

import json
import runpy
from pathlib import Path

import pytest

from ultralift import cli, diff_fields, hensel
from ultralift.errors import StallError
from ultralift.fftower import FFTower
from ultralift.lifting import LiftCertificate
from ultralift.padics import TruncatedPAdic, parse_padic
from ultralift.series import TruncatedSeries
from ultralift.values import ValuedVector


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_lift1d_documented_example(capsys):
    code, out, _ = run_cli(capsys, "lift1d", "--ground", "padic:3:12",
                           "--poly", "1*X0^2 + -7", "--point", "1")
    assert code == 0
    sol_line = next(l for l in out.splitlines() if l.startswith("solution:"))
    root = parse_padic(sol_line.split(": ", 1)[1])
    assert root.residue % 9 == 4
    befores = [int(l.split()[1]) for l in out.splitlines()
               if l.strip() and l.split()[0].isdigit()]
    assert befores == sorted(befores)
    assert "reverified: True" in out


def test_integrate_t_inverse_exits_2_naming_the_exponent(capsys):
    code, out, err = run_cli(capsys, "integrate", "--ground", "rosenlicht:1:20",
                             "--target", "1*t^(-1) + O(t^(20))")
    assert code == 2
    assert "-1" in out


def test_invert_series_documented_example(capsys):
    code, out, _ = run_cli(capsys, "invert-series", "--ground", "series:q:1:12",
                           "--coeffs", "1;1",
                           "--target", "1*t^(1) + O(t^(12))")
    assert code == 0
    sol = next(l for l in out.splitlines() if l.startswith("solution:"))
    assert sol.split(": ", 1)[1].startswith(
        "1*t^(1) + -1*t^(2) + 2*t^(3)")


def test_boundary_hypothesis_exits_2(capsys):
    code, out, _ = run_cli(capsys, "lift1d", "--ground", "padic:3:12",
                           "--poly", "3*X0 + -9", "--point", "0")
    assert code == 2
    assert "v f(b)" in out


@pytest.mark.parametrize("argv, message", [
    pytest.param(["lift1d", "--ground", "nonsense", "--poly", "1*X0", "--point", "0"],
                 "bad ground", id="bad-ground"),
    pytest.param(["invert-series", "--ground", "series:q:1:12", "--coeffs", "1",
                  "--target=1*t^(1/0) + O(t^(12))"],
                 "zero denominator", id="exponent-over-zero"),
    pytest.param(["invert-series", "--ground", "series:q:1:12", "--coeffs", "1",
                  "--target=1*t^(1) + O(t^(12/0))"],
                 "zero denominator", id="order-over-zero"),
    pytest.param(["dsolve", "--ground", "vdfield:2:12",
                  "--target=(1)@2^0*t^(1) + O(t^(12))"],
                 "tower level", id="tower-level-zero"),
    pytest.param(["invert-series", "--ground", "series:q:1:12/0", "--coeffs", "1",
                  "--target=1*t^(1) + O(t^(12))"],
                 "bad ground", id="ground-precision-over-zero"),
    pytest.param(["integrate", "--ground", "rosenlicht:1:12", "--target=1/0"],
                 "bad series literal", id="series-literal-over-zero"),
    pytest.param(["lift1d", "--ground", "padic:3:12", "--poly", "1*X0^2 + -7",
                  "--point", "1/0"],
                 "bad p-adic literal", id="padic-literal-over-zero"),
    pytest.param(["lift1d", "--ground", "padic:3:12", "--poly", "1*X0^2 + -7",
                  "--point", "1", "--precision", "1/0"],
                 "bad --precision", id="precision-over-zero"),
    pytest.param(["ode", "--ground", "rosenlicht:1:12", "--nvars", "2", "--r", "1/0",
                  "--poly", "1*X0^2", "--target", "1*t^(2) + O(t^(12))"],
                 "bad --r", id="r-over-zero"),
    pytest.param(["lift1d", "--ground", "padic:3:12", "--poly", "1/0*X0^2 + -7",
                  "--point", "1"],
                 "bad coefficient", id="coefficient-over-zero"),
    pytest.param(["ode", "--ground", "rosenlicht:1:12", "--nvars", "abc", "--r", "2",
                  "--poly", "1*X0^2", "--target", "1*t^(2) + O(t^(12))"],
                 "bad --nvars", id="ode-nvars-not-integer"),
    pytest.param(["dhensel", "--ground", "vdfield:2:16", "--nvars", "x",
                  "--poly", "1*X1^2 + 1*X1 + -1*{1*t^(1) + O(t^(16))}", "--point", "0"],
                 "bad --nvars", id="dhensel-nvars-not-integer"),
    pytest.param(["subgroup", "--ground", "series:f2:1:20", "--addpoly", "0;1",
                  "--window", "a:6"],
                 "bad --window", id="window-bound-not-integer"),
    pytest.param(["subgroup", "--ground", "series:f2:1:20", "--addpoly", "0;1",
                  "--window", "6"],
                 "bad --window", id="window-without-colon"),
    # command-line syntax errors
    pytest.param([], "required: command", id="no-command"),
    pytest.param(["lift1d", "--poly", "1*X0^2 + -7", "--point", "1"],
                 "required: --ground", id="no-ground"),
    pytest.param(["lift2d", "--ground", "padic:3:12"], "invalid choice",
                 id="unknown-command"),
    pytest.param(["lift1d", "--ground", "padic:3:12", "--poly", "1*X0^2 + -7",
                  "--point", "1", "--seed", "x"], "--seed", id="seed-not-integer"),
    pytest.param(["lift1d", "--ground", "padic:3:12", "--poly", "1*X0^2 + -7",
                  "--point", "1", "--report", "xml"], "--report", id="unknown-report"),
    pytest.param(["dsolve", "--ground", "vdfield:2:8", "--target", "1*t^(1) + O(t^(8))",
                  "--tower-cap", "q"], "--tower-cap", id="tower-cap-not-integer"),
    pytest.param(["lift1d", "--ground", "padic:3:12", "--poly", "1*X0^2 + -7",
                  "--point", "1", "--bogus", "1"], "unrecognized", id="unknown-option"),
    pytest.param(["lift1d", "--ground", "padic:3:12", "--poly", "1*X0^2 + -7",
                  "--point", "1", "--headroom", "8"], "unrecognized",
                 id="headroom-removed"),
    pytest.param(["subgroup", "--ground", "series:f2:1:20", "--addpoly", "0;1",
                  "--window", "-5:0"], "--window", id="window-read-as-option"),
    # the p of a p-adic ground must be prime
    pytest.param(["lift1d", "--ground", "padic:0:12", "--poly", "1*X0^2 + -7",
                  "--point", "1"], "not prime", id="padic-p-zero"),
    pytest.param(["lift1d", "--ground", "padic:1:12", "--poly", "1*X0^2 + -7",
                  "--point", "1"], "not prime", id="padic-p-one"),
    pytest.param(["lift1d", "--ground", "padic:4:12", "--poly", "1*X0^2 + -7",
                  "--point", "1"], "not prime", id="padic-p-four"),
])
def test_parse_error_exits_64(capsys, argv, message):
    code, _, err = run_cli(capsys, *argv)
    assert code == 64
    assert message in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["lift1d", "--help"])
    assert exc.value.code == 0
    assert "--ground" in capsys.readouterr().out


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_samples_below_one_exits_64(capsys, samples):
    # no sampled axiom check would draw anything, so nothing is certified
    code, out, err = run_cli(capsys, "dhensel", "--ground", "vdfield:2:16",
                             "--poly", "1*X1^2 + 1*X1 + -1*{1*t^(1) + O(t^(16))}",
                             "--point", "0", "--samples", samples)
    assert code == 64 and out == ""
    assert "--samples" in err


def test_missing_payload_exits_64(capsys):
    code, _, err = run_cli(capsys, "lift1d", "--ground", "padic:3:10",
                           "--point", "1")
    assert code == 64


def test_tower_cap_exits_70(capsys):
    code, out, _ = run_cli(capsys, "dsolve", "--ground", "vdfield:2:8",
                           "--target", "1*t^(1) + O(t^(8))",
                           "--tower-cap", "1")
    assert code == 70


def test_tower_cap_refuses_a_literal_above_it(capsys, monkeypatch):
    # the level-24 literal is refused by name before any modulus search
    real = FFTower.modulus
    levels = []

    def watched(self, m):
        levels.append(m)
        return real(self, m)

    monkeypatch.setattr(FFTower, "modulus", watched)
    code, out, _ = run_cli(capsys, "dsolve", "--ground", "vdfield:2:12",
                           "--tower-cap", "8",
                           "--target=(1)@2^24*t^(1) + O(t^(12))")
    assert code == 70
    assert "--tower-cap 8" in out
    assert 24 not in levels


def test_unbounded_modulus_search_exits_70(capsys):
    # F_{2^24} has no compatible modulus among the candidates the search
    # may examine; the request is refused instead of searching for minutes
    code, out, _ = run_cli(capsys, "dsolve", "--ground", "vdfield:2:12",
                           "--target=(1)@2^24*t^(1) + O(t^(12))")
    assert code == 70
    assert "F_2^24" in out


def test_dhensel_non_surjective_residue_exits_2(capsys):
    # F_p-only residue field: x^2 - x misses 1, reported with the equation
    code, out, _ = run_cli(capsys, "dhensel", "--ground", "vdfield:2:8",
                           "--poly", "1*X1 + -1*{1*t^(1) + O(t^(8))}",
                           "--point", "0", "--nvars", "2",
                           "--tower-cap", "1")
    assert code == 2
    assert "surjective" in out


def test_stall_exit_code_mapping(capsys, monkeypatch):
    def stall(*args):
        raise StallError("synthetic stall",
                         certificate=LiftCertificate((), None, None, "stalled"))

    monkeypatch.setattr(hensel, "newton_1d", stall)
    code, out, _ = run_cli(capsys, "lift1d", "--ground", "padic:3:10",
                           "--poly", "1*X0", "--point", "0")
    assert code == 3
    assert "stalled" in out


def test_byte_identical_reports(capsys):
    args = ("dhensel", "--ground", "vdfield:2:10",
            "--poly", "1*X1^2 + 1*X1 + -1*{1*t^(2) + O(t^(10))}",
            "--point", "0", "--nvars", "2", "--seed", "7")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_structured_report_is_json(capsys):
    code, out, _ = run_cli(capsys, "lift1d", "--ground", "padic:3:12",
                           "--poly", "1*X0^2 + -7", "--point", "1",
                           "--report", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "lift1d"
    assert doc["outcome"] == "converged-at-precision"
    assert doc["reverified"] is True
    befores = [s[0] for s in doc["steps"]]
    assert befores == sorted(befores, key=lambda v: float(v))


def test_liftnd_and_implicit_commands(capsys):
    code, out, _ = run_cli(capsys, "liftnd", "--ground", "padic:3:12",
                           "--poly", "1*X0^2 + -7", "--poly", "1*X1^2 + -1*X0",
                           "--point", "1;1", "--precision", "10")
    assert code == 0 and "reverified: True" in out
    code, out, _ = run_cli(capsys, "implicit", "--ground", "padic:3:12",
                           "--poly", "1*X1^2 + -1*X0 + -1",
                           "--point", "0;1", "--target", "9",
                           "--precision", "10")
    assert code == 0 and "reverified: True" in out


def test_ode_and_subgroup_commands(capsys):
    code, out, _ = run_cli(capsys, "ode", "--ground", "rosenlicht:1:24",
                           "--poly", "1*X0^2", "--target",
                           "1*t^(2) + O(t^(24))", "--r", "2",
                           "--precision", "21", "--nvars", "2")
    assert code == 0 and "reverified: True" in out
    assert "1/3*t^(3)" in out
    code, out, _ = run_cli(capsys, "subgroup", "--ground", "series:f2:1:20",
                           "--addpoly", "0;1", "--window", "0:6",
                           "--approx", "1*t^(1) + O(t^(60))")
    assert code == 0
    assert "pseudo-direct on window: True" in out
    assert "achieved value: 1" in out


def test_pinv_lift_command(capsys):
    code, out, _ = run_cli(capsys, "pinv-lift", "--ground", "padic:3:12",
                           "--poly", "1*X0 + -9",
                           "--point", "0", "--pseudo-inverse", "1",
                           "--precision", "10")
    assert code == 0 and "reverified: True" in out


def test_stated_truncation_is_not_fabricated_past(capsys):
    # asking for more precision than the literal states must exit 70
    code, _, _ = run_cli(capsys, "invert-series", "--ground", "series:q:1:12",
                         "--coeffs", "1;1",
                         "--target", "1*t^(1) + O(t^(8))",
                         "--precision", "12")
    assert code == 70


# every solving command, the solver it calls, and the requested precision
SOLVING = [
    pytest.param(hensel, "newton_1d", 12,
                 ("lift1d", "--ground", "padic:3:12", "--poly", "1*X0^2 + -7",
                  "--point", "1"), id="lift1d"),
    pytest.param(hensel, "newton_nd", 10,
                 ("liftnd", "--ground", "padic:3:12", "--precision", "10",
                  "--poly", "1*X0^2 + -7", "--poly", "1*X1^2 + -1*X0",
                  "--point", "1;1"), id="liftnd"),
    pytest.param(hensel, "implicit_fn", 10,
                 ("implicit", "--ground", "padic:3:12", "--poly", "1*X1^2 + -1*X0 + -1",
                  "--point", "0;1", "--target", "9", "--precision", "10"), id="implicit"),
    pytest.param(hensel, "pseudo_inverse_lift", 10,
                 ("pinv-lift", "--ground", "padic:3:12", "--poly", "1*X0 + -9",
                  "--point", "0", "--pseudo-inverse", "1", "--precision", "10"),
                 id="pinv-lift"),
    pytest.param(hensel, "series_invert", 12,
                 ("invert-series", "--ground", "series:q:1:12", "--coeffs", "1;1",
                  "--target", "1*t^(1) + O(t^(12))"), id="invert-series"),
    pytest.param(diff_fields, "d_solve", 10,
                 ("dsolve", "--ground", "vdfield:2:10",
                  "--target", "1*t^(1) + O(t^(10))"), id="dsolve"),
    pytest.param(diff_fields, "dhensel_solve", 10,
                 ("dhensel", "--ground", "vdfield:2:10", "--nvars", "2",
                  "--poly", "1*X1^2 + 1*X1 + -1*{1*t^(2) + O(t^(10))}",
                  "--point", "0"), id="dhensel"),
    pytest.param(diff_fields, "integrate", 20,
                 ("integrate", "--ground", "rosenlicht:1:20",
                  "--target", "1*t^(0) + 1*t^(3) + O(t^(20))"), id="integrate"),
    pytest.param(diff_fields, "ode_solve", 21,
                 ("ode", "--ground", "rosenlicht:1:24", "--nvars", "2", "--r", "2",
                  "--precision", "21", "--poly", "1*X0^2",
                  "--target", "1*t^(2) + O(t^(24))"), id="ode"),
]


@pytest.mark.parametrize("module, solver, precision, argv", SOLVING)
def test_failed_reverification_exits_70(capsys, monkeypatch, module, solver,
                                        precision, argv):
    real = getattr(module, solver)

    def cut(x):
        if isinstance(x, (TruncatedPAdic, TruncatedSeries)):
            return x.truncate(precision - 1)
        return [cut(e) for e in x]

    def one_unit_short(*args, **kwargs):
        out = real(*args, **kwargs)
        return (cut(out[0]), out[1]) if isinstance(out, tuple) else cut(out)

    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and "reverified: True" in out
    monkeypatch.setattr(module, solver, one_unit_short)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 70
    assert "round-trip verification failed" in out


REPORTS = json.loads((Path(__file__).parent / "data" / "cli_reports.json").read_text())


@pytest.mark.parametrize("case", REPORTS,
                         ids=[f"{c['argv'][0]}-{c['argv'][-1]}" for c in REPORTS])
def test_reports_unchanged(capsys, case):
    """One documented invocation per command in each report mode, against
    stored stdout bytes: any change to a report fails here."""
    code, out, _ = run_cli(capsys, *case["argv"])
    assert code == case["exit"]
    assert out == case["stdout"]


def _solution(out):
    return next(l for l in out.splitlines() if l.startswith("solution:"))


@pytest.mark.parametrize("p, n, k, a, point", [
    # sqrt(17) from 1: v f(b) = 4, v f'(b) = 1
    (2, 40, 2, 17, 1), (2, 800, 2, 17, 1),
    # cube root of 35 from 2: v f(b) = 3, v f'(b) = 1
    (3, 25, 3, 35, 2), (3, 200, 3, 35, 2),
    # the same with 2 digits: v f(b) = 3 shows only on the padded start
    (3, 2, 3, 35, 2),
])
def test_non_unit_slope_exact_inputs_exit_0(capsys, p, n, k, a, point):
    code, out, _ = run_cli(capsys, "lift1d", "--ground", f"padic:{p}:{n}",
                           "--poly", f"1*X0^{k} + -{a}", "--point", str(point))
    assert code == 0 and "reverified: True" in out
    root = parse_padic(_solution(out).split(": ", 1)[1])
    assert root.precision == n
    assert (pow(root.residue, k, p**n) - a) % p**n == 0


def test_sqrt17_digits_are_stable_across_precisions(capsys):
    # the root is unique modulo 2^(N - v f'(b)) in the ball around b
    digits = []
    for n in (40, 800):
        code, out, _ = run_cli(capsys, "lift1d", "--ground", f"padic:2:{n}",
                               "--poly", "1*X0^2 + -17", "--point", "1")
        assert code == 0
        digits.append(parse_padic(_solution(out).split(": ", 1)[1]).digits())
    assert digits[0][:39] == digits[1][:39]


@pytest.mark.parametrize("extra, expected", [((), 70), (("--precision", "5"), 0)])
def test_inexact_coefficient_is_not_padded(capsys, extra, expected):
    # the constant states 5 digits; only the iterate is carried past them
    code, out, _ = run_cli(capsys, "lift1d", "--ground", "padic:3:12",
                           "--poly", "1*X0^2 + -1*{1,2,0,0,0+O(3^5)}",
                           "--point", "1", *extra)
    assert code == expected


# exact inputs asked for more digits than the ground states: literals are
# read at the requested precision
@pytest.mark.parametrize("argv", [
    pytest.param(("pinv-lift", "--ground", "padic:3:12", "--poly", "1*X0 + -9",
                  "--point", "0", "--pseudo-inverse", "1"), id="pinv-lift"),
    pytest.param(("implicit", "--ground", "padic:3:12", "--poly", "1*X1^2 + -1*X0 + -1",
                  "--point", "0;1", "--target", "9"), id="implicit"),
    pytest.param(("dhensel", "--ground", "vdfield:2:10", "--nvars", "2", "--poly",
                  "1*X1^2 + 1*X1 + -1*{1*t^(2) + O(t^(30))}", "--point", "0"),
                 id="dhensel"),
])
def test_exact_inputs_past_ground_precision_exit_0(capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--precision", "30")
    assert code == 0 and "reverified: True" in out


def test_subgroup_exact_coefficients_cover_the_window(capsys):
    # X^4 reaches the window from t^-16 on, so its coefficients are read
    # to O(t^70)
    code, out, _ = run_cli(capsys, "subgroup", "--ground", "series:f2:1:12",
                           "--addpoly", "0;0;1", "--window", "0:6")
    assert code == 0
    assert "image 0 pivots: [0, 4]" in out


# starts whose residual is already at or past the requested precision 12:
# the value identity can only be read up to precision - v(slope).  4400419
# has 14 digits, so it needs a 14-digit ground to keep v f(b) = 14.
@pytest.mark.parametrize("argv", [
    pytest.param(("lift1d", "--ground", "padic:3:14", "--precision", "12",
                  "--poly", "1*X0^2 + -7", "--point", "4400419"), id="lift1d-vfb-14"),
    pytest.param(("lift1d", "--ground", "padic:3:12", "--poly", "1*X0^2 + -7",
                  "--point", "382550"), id="lift1d-vfb-15"),
    pytest.param(("lift1d", "--ground", "padic:3:12", "--poly", "1*X0^2 + -7",
                  "--point", "148891"), id="lift1d-vfb-12"),
    pytest.param(("liftnd", "--ground", "padic:3:12", "--poly", "1*X0 + -4782969",
                  "--poly", "1*X1", "--point", "0;0"), id="liftnd-vfb-14"),
    pytest.param(("pinv-lift", "--ground", "padic:3:12", "--poly", "1*X0 + -4782969",
                  "--poly", "1*X1", "--point", "0;0", "--pseudo-inverse", "1;0|0;1"),
                 id="pinv-lift-vfb-14"),
])
def test_start_past_precision_exits_0(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and "reverified: True" in out


# a start whose stated cap does not fix v f(b) past 2 v(s) for every lift
# is checked as given: padding it with zeros would decide the hypothesis
# on digits the input never gave
@pytest.mark.parametrize("argv", [
    # cap 2 <= v f'(b) = 3: the padded 3 has v f = 7 > 6, but f(b) is
    # known only modulo 3^4 (the lift 12 has v f = 5)
    pytest.param(("lift1d", "--ground", "padic:3:12", "--poly", "1*X0^3 + -2214",
                  "--point", "0,1+O(3^2)"), id="lift1d-cap-2"),
    # cap 3 <= 2 v det J = 4: the padded 0 has v f = 5 > 4, but the lift
    # 27 has v f = 3
    pytest.param(("liftnd", "--ground", "padic:3:12", "--poly", "1*X0 + -243",
                  "--poly", "9*X1", "--point", "0,0,0+O(3^3);0"), id="liftnd-cap-3"),
])
def test_coarse_start_is_not_padded_exits_70(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 70
    assert "cannot decide" in out


@pytest.mark.parametrize("point, digit", [
    ("4400419", 11),  # read modulo 3^12 as 148891, v f(b) = 12: the last
                      # certified digit is still checked
    ("1", 0),         # v f(b) = 1: the identity is exact below the precision
    ("382550", 11),   # v f(b) = 15: f(b) vanishes modulo the working cap 13
])
def test_root_one_digit_off_exits_2(capsys, monkeypatch, point, digit):
    real = hensel.newton_drive

    def one_digit_off(*args, **kwargs):
        root, cert = real(*args, **kwargs)
        return root + TruncatedPAdic.from_rational(3, 3**digit, root.precision), cert

    monkeypatch.setattr(hensel, "newton_drive", one_digit_off)
    code, out, _ = run_cli(capsys, "lift1d", "--ground", "padic:3:12",
                           "--poly", "1*X0^2 + -7", "--point", point)
    assert code == 2
    assert "value identity" in out


def test_pinv_lift_root_one_digit_off_exits_2(capsys, monkeypatch):
    # f(b) vanishes modulo its cap: v(b - a) = v f(b) is still read up to
    # the precision
    real = hensel.newton_drive

    def one_digit_off(*args, **kwargs):
        root, cert = real(*args, **kwargs)
        shift = TruncatedPAdic.from_rational(3, 3**11, 12)
        return ValuedVector([e + shift for e in root]), cert

    monkeypatch.setattr(hensel, "newton_drive", one_digit_off)
    code, out, _ = run_cli(capsys, "pinv-lift", "--ground", "padic:3:12",
                           "--poly", "1*X0 + -9", "--point", "9",
                           "--pseudo-inverse", "1")
    assert code == 2
    assert "value map identity" in out


# a hypothesis on the inputs that their caps cannot settle is refused,
# never passed: f(b), the right-hand side and c each vanish modulo 2 or 1
@pytest.mark.parametrize("argv, claim", [
    pytest.param(("lift1d", "--ground", "padic:3:12", "--poly", "3*X0 + -1*{0,0+O(3^2)}",
                  "--point", "0", "--precision", "2"), "v f(b) > 2 v f'(b)", id="lift1d"),
    pytest.param(("dhensel", "--ground", "vdfield:2:12", "--nvars", "2", "--poly",
                  "{1*t^(1) + O(t^(12))}*X1 + -1*{O(t^(2))}", "--point", "0",
                  "--precision", "2"), "v f^sigma(b) > 2 v(s)", id="dhensel"),
    pytest.param(("ode", "--ground", "rosenlicht:1:12", "--nvars", "2", "--r", "2",
                  "--poly", "1*X0^2", "--target", "O(t^(1))", "--precision", "1"),
                 "v(c) >= r + n - 1", id="ode"),
])
def test_undecidable_hypothesis_exits_70(capsys, argv, claim):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 70
    assert f"cannot decide {claim}" in out


# a fractional precision is certified to its ceiling on the p-adic grid
@pytest.mark.parametrize("argv, solution", [
    pytest.param(("lift1d", "--ground", "padic:3:12", "--poly", "1*X0^2 + -7",
                  "--point", "1", "--precision", "5/2"), "1,1,1+O(3^3)", id="lift1d"),
    pytest.param(("liftnd", "--ground", "padic:3:12", "--poly", "1*X0^2 + -7",
                  "--poly", "1*X1^2 + -1*X0", "--point", "1;1", "--precision", "7/2"),
                 "1,1,1,0+O(3^4) ; 1,2,1,0+O(3^4)", id="liftnd"),
    pytest.param(("lift1d", "--ground", "padic:3:5/2", "--poly", "1*X0^2 + -7",
                  "--point", "1"), "1,1,1+O(3^3)", id="fractional-ground"),
])
def test_fractional_padic_precision_exits_0(capsys, argv, solution):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and "reverified: True" in out
    assert _solution(out) == f"solution: {solution}"


def test_demo_script_runs(capsys):
    runpy.run_path(str(Path(__file__).parents[1] / "scripts" / "demo_lifts.py"),
                   run_name="__main__")
    out = capsys.readouterr().out
    assert "root: 1,1,1,0,2,0,0,2,1,1,2,0+O(3^12)" in out
    assert "inverse: 1*t^(1) + -1*t^(2) + 2*t^(3) + -5*t^(4) + 14*t^(5)" in out
    assert "solution: 1/3*t^(3) + 1/63*t^(7)" in out
    assert out.count("(converged-at-precision)") == 4 and "FAIL" not in out
