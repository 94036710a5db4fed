import csv
import io
import json
import subprocess
import sys

import numpy as np
import pytest

from dataclasses import asdict

from stripcoef import cli
from stripcoef.cli import RunConfig, main
from stripcoef.verify import BoundReport, VIOLATED
from stripcoef.cli import _exit_code

PI = np.pi
# strip and Dorff cases of a family-blind check, with the closed form each
# takes at its analytic point
STRIP_POINT = (["--alpha", "0.5", "--beta", "1.5"], PI**2 / 96.0)
DORFF_POINT = (["--delta", repr(PI / 2.0)], PI**4 / 384.0)


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "stripcoef", *args],
        capture_output=True,
        text=True,
    )
    return proc


class TestBoundsCommand:
    @pytest.mark.parametrize("target, exact", [STRIP_POINT, DORFF_POINT], ids=["strip", "dorff"])
    def test_bound_value(self, target, exact):
        proc = run_cli("bounds", *target)
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["command"] == "bounds"
        assert payload["version"]
        report = payload["reports"][0]
        assert abs(report["rhs"] - exact) < 1e-12
        assert "pi2_over_6" in report["context"]
        assert "roth" in report["context"]

    def test_dorff_bound_near_pi(self, capsys):
        # delta^2 (pi - delta)^2 / (24 sin^2 delta) -> pi^2/24 as delta -> pi;
        # pi^4/45 - Li_4 printed 5.861 here
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            delta = mpmath.mpf(3.14159264)
            exact = float(delta**2 * (mpmath.pi - delta) ** 2 / (24 * mpmath.sin(delta) ** 2))
        assert main(["bounds", "--delta", "3.14159264"]) == 0
        rhs = json.loads(capsys.readouterr().out)["reports"][0]["rhs"]
        assert abs(rhs - exact) <= 1e-14 * exact
        assert abs(rhs - PI**2 / 24.0) < 1e-7


class TestCoeffsCommand:
    def test_even_gammas_vanish_exactly(self):
        proc = run_cli("coeffs", "--alpha", "0.5", "--beta", "1.5", "--order", "8")
        assert proc.returncode == 0
        rows = json.loads(proc.stdout)["reports"]
        assert len(rows) == 8
        for row in rows:
            ctx = row["context"]
            if ctx["n"] % 2 == 0:
                assert ctx["gamma_re"] == 0.0
                assert ctx["gamma_im"] == 0.0
            assert ctx["slack"] >= 0.0

    def test_csv_format_round_trips(self):
        proc = run_cli(
            "coeffs", "--delta", "2.0", "--order", "8", "--output-format", "csv"
        )
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        assert len(rows) == 8
        gamma1 = float(rows[0]["gamma_re"])
        assert abs(gamma1 - 0.5) < 1e-15
        # 17 significant digits: parse-back equals the binary value
        assert float(rows[1]["rhs"]) == 0.25

    @pytest.mark.parametrize(
        "target, order",
        [
            # sin(n delta) from the rounded n * delta kept no digits near pi:
            # 2006 of the 4096 reports were violated
            (["--delta", "3.141592653589"], "4096"),
            # mu rounded to 1 - 1e-14 put one |gamma_n| 2.6e-6 over its bound
            (["--alpha=-1e11", "--beta", "1.001"], "64"),
        ],
        ids=["dorff-near-pi", "strip-mu-near-one"],
    )
    def test_no_violation_near_the_class_edges(self, target, order, capsys):
        assert main(["coeffs", *target, "--order", order]) == 0
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert len(reports) == int(order)
        assert all(r["verdict"] == "holds" for r in reports)

    def test_builds_no_extremal_series(self, monkeypatch, capsys):
        def no_series(_):
            raise AssertionError("coeffs needs only the closed-form gammas")

        monkeypatch.setattr("stripcoef.logcoef.series_exp", no_series)
        assert main(["coeffs", "--alpha", "0.5", "--beta", "1.5", "--order", "16"]) == 0
        assert len(json.loads(capsys.readouterr().out)["reports"]) == 16


class TestVerifySharpnessCommand:
    @pytest.mark.parametrize(
        "point, order", [(STRIP_POINT, "2048"), (DORFF_POINT, "4096")], ids=["strip", "dorff"]
    )
    def test_point(self, point, order):
        target, exact = point
        proc = run_cli("verify-sharpness", *target, "--order", order)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)["reports"][0]
        assert report["verdict"] == "holds-with-equality"
        assert abs(report["lhs"] - exact) <= report["tail_estimate"]

    def test_tolerance_is_honoured(self, monkeypatch, capsys):
        # a bound raised by 1e-7 sits beyond the tail estimate (6.6e-11 at
        # order 4096), so the default 1e-9 misses equality and a larger
        # tolerance absorbs it
        from stripcoef.maps import StripParams

        exact = StripParams.sum_bound
        monkeypatch.setattr(StripParams, "sum_bound", lambda self: exact(self) + 1e-7)
        argv = ["verify-sharpness", "--alpha", "0.5", "--beta", "1.5", "--order", "4096"]
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().out)["reports"][0]["verdict"] == "holds"
        assert main([*argv, "--tolerance", "1e-6"]) == 0
        report = json.loads(capsys.readouterr().out)["reports"][0]
        assert report["verdict"] == "holds-with-equality"

    def test_wide_strip_at_high_order_reaches_equality(self, capsys):
        # the closed-form bound leaves lhs - rhs = -1.7e-9 against a tail
        # of 3.4e-9 here; the difference pi^4/45 - Li_4 would cancel to an
        # error of about 3e-8
        argv = ["verify-sharpness", "--alpha=-1e4", "--beta", "2", "--order", "100000"]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)["reports"][0]
        assert report["verdict"] == "holds-with-equality"
        assert abs(report["lhs"] - report["rhs"]) <= report["tail_estimate"]


class TestCheckMembershipCommand:
    def test_small_sweep_passes(self):
        proc = run_cli(
            "check-membership",
            "--alpha", "0.0", "--beta", "2.0",
            "--samples", "3",
            "--order", "1500",
            "--seed", "11",
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert len(payload["reports"]) == 12  # four audits per sample
        assert all(r["verdict"] != "violated" for r in payload["reports"])

    def test_zero_sample_is_value_error(self, capsys):
        # a drawn member's f/z is exactly 0 at grid points of the refined
        # winding grid; the division there once ended as an internal error
        argv = ["check-membership", "--alpha=-1e3", "--beta", "1e3", "--samples", "2"]
        assert main([*argv, "--order", "1500"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {
            "error": "f/z vanishes or is not finite at a sample point",
            "kind": "value",
        }

    @pytest.mark.parametrize("seed", ["2", "3"])
    def test_overflowing_member_is_value_error(self, seed, capsys):
        # the drawn member's coefficients do not fit in a double; the
        # recurrence's overflow once ended as an internal error
        argv = ["check-membership", "--alpha=-1e3", "--beta", "1e3", "--samples", "2"]
        assert main([*argv, "--order", "1500", "--seed", seed]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {
            "error": "coefficients of the exponential overflow a double",
            "kind": "value",
        }

    def test_determinism_byte_identical(self):
        args = (
            "check-membership", "--delta", "2.2",
            "--samples", "2", "--order", "1500", "--seed", "42",
        )
        a, b = run_cli(*args), run_cli(*args)
        assert a.stdout == b.stdout
        assert a.stdout != ""

    def test_order_too_small_is_config_error(self):
        proc = run_cli(
            "check-membership", "--delta", "2.0", "--samples", "1", "--order", "64"
        )
        assert proc.returncode == 2
        record = json.loads(proc.stderr)
        assert record["kind"] == "config"

    def test_order_floor_covers_coefficient_audit(self, capsys):
        # at radius 0.5 the membership floor is 64, but the audit reads 129 terms
        argv = ["check-membership", "--delta", "2.0", "--radius", "0.5", "--samples", "1"]
        assert main([*argv, "--order", "128"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        record = json.loads(err)
        assert record["kind"] == "config"
        assert "129" in record["error"]
        assert main([*argv, "--order", "129"]) == 0
        capsys.readouterr()


class TestGenerateCommand:
    def test_identity_member_matches_extremal(self, tmp_path):
        out = tmp_path / "member.csv"
        proc = run_cli(
            "generate",
            "--alpha", "0.5", "--beta", "1.5",
            "--schwarz", "identity",
            "--order", "16",
            "--output-path", str(out),
        )
        assert proc.returncode == 0
        rows = list(csv.DictReader(out.open()))
        assert [r["n"] for r in rows[:3]] == ["0", "1", "2"]
        from stripcoef.maps import StripParams
        from stripcoef.series import series_exp

        from oracles import hat_series, shift

        # built apart from generate_member: f = z exp(hat p)
        f = shift(series_exp(hat_series(StripParams(0.5, 1.5), 15)))
        got = np.array([complex(float(r["re"]), float(r["im"])) for r in rows])
        assert np.max(np.abs(got - f.coeffs)) < 1e-16

    def test_power_member_is_zero_off_the_stride(self):
        # z E(z^3): Newton at the full order printed 1 291 values up to 7.9e-19 here
        proc = run_cli(
            "generate", "--alpha", "-0.7", "--beta", "2.9",
            "--schwarz", "power", "--c-re", "0.6", "--k", "3", "--order", "2000",
        )
        assert proc.returncode == 0
        rows = list(csv.DictReader(io.StringIO(proc.stdout)))
        assert len(rows) == 2001
        off = [r for r in rows if (int(r["n"]) - 1) % 3 != 0]
        assert all(r["re"] == "0" and r["im"] == "0" for r in off)

    def test_blaschke_factor_ignores_c(self):
        # each kind reads only its own fields: |c| = 1.5 is no error here
        args = [
            "generate", "--alpha", "-0.7", "--beta", "2.9", "--schwarz", "blaschke-factor",
            "--a-re", "0.4", "--a-im", "0.2", "--phi", "1.0", "--order", "400",
        ]
        plain, with_c = run_cli(*args), run_cli(*args, "--c-re", "1.5")
        assert with_c.returncode == 0
        assert (with_c.stdout, with_c.stderr) == (plain.stdout, plain.stderr)

    def test_seeded_random_member(self):
        a = run_cli("generate", "--delta", "2.0", "--order", "8", "--seed", "3")
        b = run_cli("generate", "--delta", "2.0", "--order", "8", "--seed", "3")
        assert a.stdout == b.stdout
        assert a.stdout.startswith("n,re,im")


class TestPolylogCommand:
    def test_theta_mode_reports_all_three(self):
        # the series is summed only to the requested tolerance: ask for the
        # accuracy asserted below
        proc = run_cli("polylog", "--theta", repr(PI), "--tolerance", "1e-12")
        assert proc.returncode == 0
        ctx = json.loads(proc.stdout)["reports"][0]["context"]
        assert abs(ctx["series_re"] - (-7.0 * PI**4 / 720.0)) < 1e-10
        assert ctx["symmetric_deviation"] < 1e-9
        assert ctx["series_vs_quadrature"] < 1e-8

    def test_point_mode(self):
        proc = run_cli("polylog", "--z-re", "0.25", "--z-im", "0.5")
        ctx = json.loads(proc.stdout)["reports"][0]["context"]
        assert ctx["series_vs_quadrature"] < 1e-8

    def test_missing_argument_is_config_error(self):
        proc = run_cli("polylog")
        assert proc.returncode == 2

    def test_real_argument_prints_real_value(self, capsys):
        assert main(["polylog", "--s", "2", "--z-re", "-1"]) == 0
        ctx = json.loads(capsys.readouterr().out)["reports"][0]["context"]
        assert ctx["series_im"] == 0.0
        assert abs(ctx["series_re"] + PI**2 / 12.0) <= ctx["tail_bound"] + 1e-15

    @pytest.mark.filterwarnings("error")
    def test_weight_and_tolerance_extremes(self, capsys):
        assert main(["polylog", "--s", "49", "--z-re", "0.5"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["kind"] == "config"
        for argv in (
            ["--s", "48", "--z-re", "0.5", "--tolerance", "5e-324"],
            ["--s", "2", "--z-re", "0.5", "--tolerance", "1e-320"],
        ):
            assert main(["polylog", *argv]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            ctx = json.loads(out)["reports"][0]["context"]
            assert ctx["tail_bound"] <= float(argv[-1])


class TestConfigErrors:
    def test_both_classes_rejected(self):
        proc = run_cli("bounds", "--alpha", "0.5", "--beta", "1.5", "--delta", "2.0")
        assert proc.returncode == 2
        assert json.loads(proc.stderr)["kind"] == "config"

    def test_missing_class_rejected(self):
        proc = run_cli("bounds")
        assert proc.returncode == 2

    def test_half_strip_rejected(self):
        proc = run_cli("bounds", "--alpha", "0.5")
        assert proc.returncode == 2

    def test_invalid_strip_order_rejected(self):
        proc = run_cli("bounds", "--alpha", "2.0", "--beta", "3.0")
        assert proc.returncode == 2

    def test_small_order_rejected(self):
        proc = run_cli("coeffs", "--delta", "2.0", "--order", "4")
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "option",
        [
            ["--order", "7"],
            ["--order", str(2**18 + 1)],
            ["--grid-angles", "63"],
            ["--grid-angles", str(2**20 + 1)],
            ["--samples", "0"],
            ["--samples", "10001"],
        ],
    )
    def test_size_limits(self, option, monkeypatch, capsys):
        # rejected by validation, before the command allocates anything; an
        # empty command table once failed every case as an unknown command
        def run(config):
            pytest.fail("the command ran past validation")

        monkeypatch.setitem(cli._DISPATCH, "check-membership", run)
        assert main(["check-membership", "--delta", "2.0", *option]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        error = json.loads(err)
        assert error["kind"] == "config"
        assert error["error"].startswith(option[0].lstrip("-"))

    def test_grid_angles_floor(self, capsys):
        # three circle points once passed as a membership audit
        argv = ["check-membership", "--delta", "2.0", "--samples", "1", "--order", "1500"]
        assert main([*argv, "--grid-angles", "3"]) == 2
        assert main([*argv, "--grid-angles", "64"]) == 0
        capsys.readouterr()

    def test_bad_radius_rejected(self):
        proc = run_cli("check-membership", "--delta", "2.0", "--radius", "1.5")
        assert proc.returncode == 2

    def test_non_finite_inputs_rejected(self, capsys):
        for argv in (
            ["coeffs", "--alpha", "0.5", "--beta", "1.5", "--order", "16", "--tolerance", "nan"],
            ["bounds", "--alpha", "0.5", "--beta", "inf"],
            ["generate", "--delta", "2.0", "--schwarz", "scaled-rotation", "--c-re", "nan",
             "--order", "8"],
            # options the command does not use are echoed in its report
            ["polylog", "--theta", "1.0", "--delta", "nan"],
        ):
            assert main(argv) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert json.loads(err)["kind"] == "config"

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--alpha", "0.9999999999999999", "--beta", "1.7e308"],
            ["coeffs", "--alpha=-1.7e308", "--beta", "1.0000000000000002", "--order", "8"],
            ["verify-sharpness", "--alpha", "0.9999999999999999", "--beta", "1.7e308"],
            ["verify-sharpness", "--alpha=-1.7e308", "--beta", "1.0000000000000002"],
            ["coeffs", "--alpha", "0.9999999999999999", "--beta", "1.1e304", "--order", "8"],
            ["verify-sharpness", "--alpha", "0.9999999999999999", "--beta", "1.1e304"],
        ],
    )
    def test_underflowing_phase_fraction_rejected(self, argv):
        # these once printed bounds of 0.0, or warnings and then equality
        proc = run_cli(*argv)
        assert proc.returncode == 2
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert json.loads(line)["kind"] == "config"

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--alpha", "0.5", "--beta", "1.5"],
            ["coeffs", "--delta", "2.0", "--order", "8"],
            ["verify-sharpness", "--delta", "2.0", "--order", "64"],
            ["check-membership", "--delta", "2.0", "--samples", "1", "--order", "1500"],
            ["generate", "--delta", "2.0", "--order", "8"],
            ["polylog", "--theta", "1.0"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed_rejected(self, argv, capsys):
        # four commands ignored it and exited 0; check-membership exited 2
        # with numpy's "expected non-negative integer", which names no option
        assert main([*argv, "--seed", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {"error": "seed must be non-negative", "kind": "config"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--alpha", "0.5", "--beta", "1.5"],
            ["generate", "--delta", "2.0", "--order", "8"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_unwritable_output_path_is_config_error(self, argv, tmp_path, capsys):
        # a FileNotFoundError exited 3 as an internal error
        path = tmp_path / "missing" / "out.json"
        assert main([*argv, "--output-path", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        error = json.loads(err)
        assert error["kind"] == "config"
        assert error["error"].startswith("cannot write --output-path: ")
        assert str(path) in error["error"]

    def test_unknown_command_usage_error(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2


class TestDefaults:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--delta", "2.0"],
            ["generate", "--delta", "2.0"],
            ["polylog", "--theta", "1.0"],
        ],
    )
    def test_parser_sets_only_given_options(self, argv):
        # every default lives in RunConfig; the parser adds none of its own
        args = vars(cli._build_parser().parse_args(argv))
        assert args == {"command": argv[0], argv[1][2:]: float(argv[2])}

    def test_echoed_config_is_runconfig_default(self, capsys):
        assert main(["polylog", "--theta", "1.0"]) == 0
        config = json.loads(capsys.readouterr().out)["config"]
        assert config == asdict(RunConfig("polylog", theta=1.0))


class TestExitCodeContract:
    def test_violated_report_forces_nonzero(self):
        ok = BoundReport(0.0, 1.0, 0.0, "holds", {})
        bad = BoundReport(2.0, 1.0, 0.0, VIOLATED, {})
        assert _exit_code([ok]) == 0
        assert _exit_code([ok, bad]) == 1

    def test_internal_error_has_its_own_code(self, capsys):
        # the bound (width/4)^2 pi^2/6 exceeds the largest double, and
        # Python's float power raises OverflowError
        assert main(["bounds", "--alpha=-1e300", "--beta", "1e300"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["kind"] == "internal"

    def test_finite_tail_of_a_huge_constant(self, capsys):
        # C = 1.9e154: the tail C^2/(3 N^3) once overflowed in C * C
        assert main(["verify-sharpness", "--alpha=-1e152", "--beta", "6e154"]) == 0
        [report] = json.loads(capsys.readouterr().out)["reports"]
        assert report["verdict"] == "holds-with-equality"
        assert 7e300 < report["tail_estimate"] < 8e300

    def test_newton_overflow_falls_back_to_recurrence(self, tmp_path):
        # at width 30 Newton overflows under the CLI's raising errstate;
        # series_exp must still return the recurrence's finite series
        out = tmp_path / "member.csv"
        argv = ["generate", "--alpha=-15", "--beta", "15", "--schwarz", "identity"]
        assert main([*argv, "--order", "4000", "--output-path", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        top = max(abs(complex(float(r["re"]), float(r["im"]))) for r in rows)
        assert 2e6 < top < 3e6

    def test_floating_point_fault_is_one_json_line(self):
        # the gammas' squares overflow in numpy; its warnings once reached
        # stderr ahead of the record
        proc = run_cli("verify-sharpness", "--alpha=-8e307", "--beta", "8e307")
        assert proc.returncode == 3
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert json.loads(line)["kind"] == "internal"

    def test_non_finite_report_is_internal_error(self, monkeypatch, capsys):
        nan_report = BoundReport(float("nan"), 1.0, 0.0, "holds", {})
        # each command returns its output, which _emit refuses to form here
        def bounds(config):
            return cli._emit(config, [nan_report]), 0

        monkeypatch.setitem(cli._DISPATCH, "bounds", bounds)
        assert main(["bounds", "--alpha", "0.5", "--beta", "1.5"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["kind"] == "internal"

    def test_main_callable_in_process(self, capsys):
        code = main(["bounds", "--alpha", "0.5", "--beta", "1.5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "bounds"


class TestLazyScipy:
    @pytest.mark.parametrize(
        "code",
        [
            "import stripcoef",
            "from stripcoef.cli import main; "
            "main(['bounds', '--alpha', '0.5', '--beta', '1.5'])",
            # the pointwise dilogarithm maps and a convexity probe on them
            "from stripcoef.maps import StripParams, DorffParam, p_hat_eval, b_tilde_eval; "
            "from stripcoef.verify import convexity_probe; "
            "p_hat_eval(StripParams(0.5, 1.5), [0.3, 0.7j]); "
            "b_tilde_eval(DorffParam(2.0), 0.9); "
            "convexity_probe(lambda z: b_tilde_eval(DorffParam(2.0), z), 0.5, 64, order=64)",
        ],
    )
    def test_scipy_not_imported(self, code):
        check = "; import sys; assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']"
        proc = subprocess.run([sys.executable, "-c", code + check], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_no_command_needs_scipy(self):
        # the cli benchmark workload's commands (the README examples, generate
        # writing to stdout) plus a weight-4 point off the real axis, with
        # every import of scipy failing
        commands = [
            ["bounds", "--alpha", "0.5", "--beta", "1.5"],
            ["coeffs", "--alpha", "0.5", "--beta", "1.5", "--order", "16"],
            ["verify-sharpness", "--delta", "1.5707963267948966", "--order", "4096"],
            ["check-membership", "--alpha", "0", "--beta", "2", "--samples", "10",
             "--order", "1500", "--seed", "7"],
            ["generate", "--delta", "2.0", "--schwarz", "blaschke-factor", "--a-re", "0.4",
             "--phi", "1.0", "--order", "256", "--seed", "7"],
            ["polylog", "--theta", "3.141592653589793"],
            ["coeffs", "--alpha", "0.5", "--beta", "1.5", "--order", "4096"],
            ["polylog", "--s", "2", "--z-re", "-1"],
            ["polylog", "--s", "4", "--z-re", "0.25", "--z-im", "0.5"],
        ]
        child = (
            "import contextlib, io, json, sys\n"
            "sys.modules['scipy'] = None\n"
            "from stripcoef.cli import main\n"
            "runs = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    out = io.StringIO()\n"
            "    with contextlib.redirect_stdout(out):\n"
            "        code = main(argv)\n"
            "    runs.append([code, out.getvalue()])\n"
            "print(json.dumps(runs))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child, json.dumps(commands)], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        for argv, (code, stdout) in zip(commands, json.loads(proc.stdout), strict=True):
            assert code == 0, (argv, proc.stderr)
            if argv[0] == "generate":
                assert stdout.startswith("n,re,im\n") and len(stdout.splitlines()) == 258
            else:
                # strict JSON: a NaN or infinity would not dump back
                json.dumps(json.loads(stdout), allow_nan=False)
