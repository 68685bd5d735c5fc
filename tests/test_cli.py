import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import stwdiff
from stwdiff.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_kv(text):
    out = {}
    for line in text.splitlines():
        if "=" in line:
            key, _, val = line.partition("=")
            out[key] = val
    return out


class TestValidate:
    def test_reference_gains(self, capsys):
        code, out, _ = run_cli(capsys, ["validate", "--lambda1", "4.1", "--lambda2", "1.1", "--alpha", "4", "--L", "1"])
        assert code == 0
        assert "condition: satisfied" in out
        assert "lambda1_interval=(4.098780306383839, 4.147575310031266)" in out

    def test_violated_gains_exit_one(self, capsys):
        code, out, _ = run_cli(capsys, ["validate", "--lambda1", "4.0"])
        assert code == 1
        assert "condition: violated" in out

    # lambda1 is just above the exact upper end of the interval, so it is the
    # printed upper end, rounded up: validate and verify-lyapunov decide from
    # those ends, so both refuse these gains.
    def test_validate_agrees_with_verify_lyapunov_at_an_interval_end(self, capsys):
        gains = ["--lambda1", "13.801938411965779", "--lambda2", "18.36249455485987", "--alpha", "2.8428798701485913"]
        code, out, _ = run_cli(capsys, ["validate", *gains])
        assert code == 1
        assert "condition: violated" in out
        assert "lambda1_interval=(12.4458811033562, 13.801938411965779)" in out
        code, _, err = run_cli(capsys, ["verify-lyapunov", *gains, "--resolution", "10x10"])
        assert code == 1
        assert "gain condition violated" in err

    # lambda2 is just above lambda2_min, and lambda1 lies between the printed
    # ends: the three lines agree.
    def test_satisfied_gains_have_an_interval_above_lambda2_min(self, capsys):
        gains = ["--lambda1", "12.909658608987836", "--lambda2", "19.83241067507672", "--alpha", "1.7156953096563772"]
        code, out, _ = run_cli(capsys, ["validate", *gains])
        assert code == 0
        assert out.splitlines() == [
            "condition: satisfied",
            "lambda2_min=19.832410675076684",
            "lambda1_interval=(12.909658608987835, 12.909658608987838)",
        ]

    def test_empty_interval_report(self, capsys):
        code, out, _ = run_cli(capsys, ["validate", "--lambda2", "1.0"])
        assert code == 1
        assert "lambda1_interval=empty" in out


class TestBounds:
    def test_reference_values(self, capsys):
        code, out, _ = run_cli(capsys, ["bounds", "--lambda2", "1.1", "--alpha", "4", "--L", "1", "--N", "0.01"])
        assert code == 0
        kv = parse_kv(out)
        assert float(kv["upper_bound"]) == pytest.approx(0.5797, abs=5e-5)
        assert float(kv["lower_bound"]) == pytest.approx(0.2898, abs=5e-5)
        assert float(kv["tightness_factor"]) == 2.0

    def test_overflowing_bounds_exit_two(self, capsys):
        code, out, err = run_cli(capsys, ["bounds", "--lambda2", "1e308", "--N", "10", "--alpha", "4"])
        assert (code, out) == (2, "")
        assert err.startswith("error: error upper bound must be finite")


class TestTune:
    def test_table_shape_and_first_row(self, capsys):
        code, out, _ = run_cli(capsys, ["tune", "--lambda2-start", "1.1", "--lambda2-stop", "2.1", "--steps", "3", "--fdot0", "1"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["lambda2", "time_bound", "error_bound", "lambda1_lo", "lambda1_hi"]
        assert len(lines) == 4
        first = lines[1].split()
        assert float(first[0]) == pytest.approx(1.1)
        assert float(first[1]) == pytest.approx(10.0, rel=1e-6)
        assert float(first[2]) == pytest.approx(0.5797, abs=5e-5)
        # Tradeoff direction: larger lambda2 converges faster but errs more.
        last = lines[3].split()
        assert float(last[1]) < float(first[1])
        assert float(last[2]) > float(first[2])

    def test_bad_sweep_exits_two(self, capsys):
        code, _, err = run_cli(capsys, ["tune", "--lambda2-start", "0.9"])
        assert code == 2
        for value in ("nan", "inf", "-inf"):
            code, out, err = run_cli(capsys, ["tune", f"--fdot0={value}"])
            assert code == 2
            assert "finite" in err
            assert out == ""

    def test_non_finite_time_bound_exits_two(self, capsys):
        # (lambda2 - 1) L underflows to 0 at the smallest subnormal L.
        code, out, err = run_cli(capsys, ["tune", "--L", "5e-324"])
        assert (code, out) == (2, "")
        assert err == "error: convergence time bound must be finite, got inf\n"


class TestSimulate:
    def test_csv_to_file_summary_to_stdout(self, capsys, tmp_path):
        out_path = tmp_path / "run.csv"
        code, out, _ = run_cli(
            capsys,
            ["simulate", "--horizon", "0.05", "--tau", "0.02", "--noise", "none", "--out", str(out_path)],
        )
        assert code == 0
        kv = parse_kv(out)
        assert "sup_error_after_tau" in kv
        lines = out_path.read_text().splitlines()
        assert lines[0] == "t,u,f,fdot,y1,y2,error,V"
        assert len(lines) == 1 + 101

    def test_csv_to_stdout_summary_to_stderr(self, capsys):
        code, out, err = run_cli(capsys, ["simulate", "--horizon", "0.01", "--noise", "none", "--tau", "0.005"])
        assert code == 0
        assert out.splitlines()[0] == "t,u,f,fdot,y1,y2,error,V"
        assert "sup_error_after_tau" in err

    def test_deterministic_output(self, capsys):
        argv = ["simulate", "--horizon", "0.02", "--tau", "0.01"]
        code1, out1, err1 = run_cli(capsys, argv)
        code2, out2, err2 = run_cli(capsys, argv)
        assert (code1, out1, err1) == (code2, out2, err2)

    def test_stamp_adds_line(self, capsys):
        code, _, err = run_cli(capsys, ["simulate", "--horizon", "0.01", "--tau", "0.005", "--stamp"])
        assert code == 0
        assert "stamp=" in err

    def test_reference_defaults_reproduce_bracket(self, capsys, tmp_path):
        out_path = tmp_path / "ref.csv"
        code, out, _ = run_cli(capsys, ["simulate", "--out", str(out_path)])
        assert code == 0
        kv = parse_kv(out)
        sup = float(kv["sup_error_after_tau"])
        assert 0.29 <= sup <= float(kv["bound_upper"])

    def test_default_csv_matches_golden_digest(self, capsys, tmp_path):
        # sha256 of `stwdiff simulate --out` with every flag at its default:
        # pins the trajectory CSV bytes, number format included.
        out_path = tmp_path / "ref.csv"
        assert run_cli(capsys, ["simulate", "--out", str(out_path)])[0] == 0
        digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
        assert digest == "fa3e50b5f8916e19d9037c186beb01d5637d9c95b3372da2682f78f5c0c57276"

    @pytest.mark.parametrize("flag", ["--L", "--N", "--lambda1", "--lambda2", "--dt"])
    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_inputs_exit_two(self, capsys, flag, value):
        code, out, err = run_cli(capsys, ["simulate", "--horizon", "0.01", "--tau", "0.005", flag, value])
        assert code == 2
        assert "finite" in err
        assert out == ""


    @pytest.mark.parametrize(
        "flag, spec", [("--noise", "switching:N=inf"), ("--noise", "switching:c1=nan"), ("--signal", "quadratic:L=inf")]
    )
    def test_non_finite_spec_values_exit_two(self, capsys, flag, spec):
        code, out, err = run_cli(capsys, ["simulate", "--dt", "0.01", flag, spec])
        assert code == 2
        assert "finite" in err
        assert out == ""


class TestVerifyLyapunov:
    def test_valid_gains_exit_zero(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["verify-lyapunov", "--box=-2,2,-2,2", "--resolution", "80x80"],
        )
        assert code == 0
        kv = parse_kv(err)
        assert kv["violations"] == "0"
        assert out.splitlines()[0] == "x1,x2,eta,fddot,observed,required"

    def test_mutated_gains_exit_one(self, capsys, tmp_path):
        out_path = tmp_path / "viol.csv"
        gamma = "0.0012196936161602047"
        code, out, _ = run_cli(
            capsys,
            [
                "verify-lyapunov", "--lambda2", "0.5", "--gamma", gamma,
                "--box=-2,2,-2,2", "--resolution", "60x60", "--out", str(out_path),
            ],
        )
        assert code == 1
        kv = parse_kv(out)
        assert int(kv["violations"]) > 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 1 + int(kv["violations"])

    def test_non_finite_inputs_exit_two(self, capsys):
        # With the reference gamma this mutant grid has 3326 violations; a NaN
        # must not turn that into a vacuous pass.
        base = ["verify-lyapunov", "--lambda2", "0.5", "--resolution", "100x100"]
        # The last two boxes overflow: one in its span (the axes would hold
        # inf and nan), one in V (the required rate would read -inf).
        for extra in (
            ["--gamma", "nan"],
            ["--gamma", "0.0012196936161602047", "--box=nan,3,-3,3"],
            ["--gamma", "0.0012196936161602047", "--box=-1e308,1e308,-1,1"],
            ["--gamma", "0.0012196936161602047", "--box=-1e200,1e200,-1e200,1e200"],
        ):
            code, out, err = run_cli(capsys, base + extra)
            assert code == 2
            assert "must be finite" in err
            assert "violations=" not in out + err

    def test_negative_margin_exits_two(self, capsys):
        # It would admit states with V < N, whose required rate is NaN.
        argv = ["verify-lyapunov", "--margin=-0.5", "--lambda2", "0.5", "--gamma", "0.00122", "--resolution", "41x41"]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert "margin must be nonnegative" in err
        assert "violations=" not in out + err

    def test_negative_gamma_exits_two(self, capsys):
        # It would certify the divergent mutant: V may then grow.
        argv = ["verify-lyapunov", "--lambda2", "0.5", "--gamma=-5", "--resolution", "100x100"]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert "gamma must be nonnegative" in err
        assert "violations=" not in out + err

    def test_negative_tolerance_exits_two(self, capsys):
        # It would report states where the inequality holds.
        argv = ["verify-lyapunov", "--tolerance=-1", "--resolution", "20x20"]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert "tolerance must be nonnegative" in err
        assert "violations=" not in out + err

    def test_condition_violation_without_gamma_exits_one(self, capsys):
        code, _, err = run_cli(capsys, ["verify-lyapunov", "--lambda2", "0.5", "--resolution", "10x10"])
        assert code == 1
        assert "gain condition" in err
        assert err.count("gain condition violated") == 1

    def test_overflowing_v_constant_exits_two(self, capsys, tmp_path):
        # Admissible gains whose 4 alpha (lambda2 + 1) L overflows: each state
        # would read V = 0 and fail at observed = inf.
        out_path = tmp_path / "viol.csv"
        argv = ["verify-lyapunov", "--lambda1", "3e154", "--lambda2", "1e308", "--resolution", "4x4"]
        code, out, err = run_cli(capsys, argv + ["--out", str(out_path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: 4 alpha (lambda2 + 1) L must be finite")
        assert not out_path.exists()


class TestContour:
    def test_landmarks_in_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["contour", "--alpha", str(4.0 / 2.1), "--box=-2,2,-2,2", "--resolution", "5x5"],
        )
        assert code == 0
        rows = {}
        for line in out.splitlines()[1:]:
            x1, x2, v = (float(s) for s in line.split(","))
            rows[(x1, x2)] = v
        assert rows[(0.0, 0.0)] == 0.0
        assert rows[(1.0, 0.0)] == 1.0
        assert rows[(0.0, 2.0)] == 0.5

    def test_default_csv_matches_golden_digest(self, capsys, tmp_path):
        out_path = tmp_path / "contour.csv"
        assert run_cli(capsys, ["contour", "--out", str(out_path)])[0] == 0
        digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
        assert digest == "2c6275d0ec396639abefe80f6dd0126378c12864cdcf60256fdec5069791ac67"

    def test_bad_box_exits_two(self, capsys):
        for box in ("1,2,3", "a,2,3,4"):
            with pytest.raises(SystemExit) as exc:
                main(["contour", "--box", box])
            assert exc.value.code == 2
        for box in ("-inf,1,-1,1", "-1,1,-1,inf", "nan,1,-1,1", "-1e308,1e308,-1,1"):
            code, out, err = run_cli(capsys, ["contour", f"--box={box}", "--resolution", "5x5"])
            assert code == 2
            assert "finite" in err
            assert out == ""

    def test_bad_resolution_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["contour", "--resolution", "4x"])
        assert exc.value.code == 2
        assert "bad resolution '4x': expected RxC" in capsys.readouterr().err

    def test_overflowing_v_exits_two(self, capsys, tmp_path):
        out_path = tmp_path / "contour.csv"
        argv = ["contour", "--box=-1e200,1e200,-1e200,1e200", "--resolution", "3x3"]
        code, out, err = run_cli(capsys, argv + ["--out", str(out_path)])
        assert code == 2
        assert "V must be finite" in err
        assert out == "" and not out_path.exists()

    def test_overflowing_v_constant_exits_two(self, capsys, tmp_path):
        # The gains of verify-lyapunov's overflow case: V would read 0 at nonzero states.
        out_path = tmp_path / "contour.csv"
        argv = ["contour", "--lambda1", "3e154", "--lambda2", "1e308", "--box=0,1,0,1e150", "--resolution", "3x3"]
        code, out, err = run_cli(capsys, argv + ["--out", str(out_path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: 4 alpha (lambda2 + 1) L must be finite")
        assert not out_path.exists()


class TestWorstCase:
    def test_reports_near_attainment(self, capsys):
        code, out, _ = run_cli(capsys, ["worst-case", "--tau", "1", "--dt", "5e-4"])
        assert code == 0
        kv = parse_kv(out)
        assert float(kv["predicted_error"]) == pytest.approx(0.28982753492378877, rel=1e-12)
        assert float(kv["ratio"]) == pytest.approx(1.0, abs=5e-3)
        assert float(kv["max_tracking_deviation"]) < 1e-2
        assert float(kv["theta"]) == pytest.approx(0.13801311186847084, rel=1e-12)

    def test_default_summary_is_pinned(self, capsys):
        code, out, _ = run_cli(capsys, ["worst-case"])
        assert code == 0
        assert out == (
            "theta=0.13801311186847084\n"
            "achieved_error=0.2895525349237552\n"
            "predicted_error=0.28982753492378877\n"
            "ratio=0.9990511598557885\n"
            "max_tracking_deviation=0.00027500000003360947\n"
        )

    # A worstcase spec builds its pair for --lambda2, as `worst-case` does, so
    # the achieved error sits next to the bounds for the same lambda2.
    def test_simulate_worstcase_spec_takes_the_runs_lambda2(self, capsys):
        gains = ["--lambda1", "7.5", "--lambda2", "3"]
        _, out, _ = run_cli(capsys, ["worst-case", *gains])
        achieved = parse_kv(out)["achieved_error"]
        code, _, err = run_cli(capsys, ["simulate", *gains, "--signal", "worstcase", "--noise", "worstcase"])
        kv = parse_kv(err)
        assert code == 0
        assert "lambda2=3.0," in kv["signal"]
        assert kv["sup_error_after_tau"] == achieved == "0.39924999999996535"
        assert kv["bound_lower"] == "0.4"

    def test_divergence_pair_below_lambda2_one(self, capsys):
        # lambda2 < 1 runs the divergence pair, which has no sliding
        # reference, so the tracking line is left out.
        code, out, err = run_cli(capsys, ["worst-case", "--lambda2", "0.5"])
        assert code == 0
        assert err == ""
        kv = parse_kv(out)
        assert list(kv) == ["theta", "achieved_error", "predicted_error", "ratio"]
        assert float(kv["achieved_error"]) > float(kv["predicted_error"])


    # At N = 0 the predicted error is 0.  Both schemes attain it exactly,
    # a ratio of 1; the divergence pair below lambda2 = 1 exceeds it, inf.
    @pytest.mark.parametrize("scheme", ["implicit", "explicit"])
    def test_zero_prediction_attained_is_ratio_one(self, capsys, scheme):
        code, out, _ = run_cli(capsys, ["worst-case", "--N", "0", "--scheme", scheme])
        kv = parse_kv(out)
        assert code == 0
        assert (kv["achieved_error"], kv["predicted_error"], kv["ratio"]) == ("0.0", "0.0", "1.0")

    def test_zero_prediction_exceeded_is_ratio_inf(self, capsys):
        code, out, _ = run_cli(capsys, ["worst-case", "--lambda2", "0.5", "--N", "0"])
        kv = parse_kv(out)
        assert code == 0
        assert kv["predicted_error"] == "0.0" and float(kv["achieved_error"]) > 0.0
        assert kv["ratio"] == "inf"


class TestHelpAndErrors:
    @pytest.mark.parametrize(
        "cmd",
        ["validate", "bounds", "tune", "simulate", "verify-lyapunov", "contour", "worst-case"],
    )
    def test_subcommand_help(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [["simulate", "--horizon", "inf"], ["simulate", "--horizon", "1", "--dt", "0.3"], ["worst-case", "--tau", "inf"]],
        ids=["simulate-inf", "simulate-partial-step", "worst-case-inf"],
    )
    def test_horizon_off_the_step_grid_exits_two(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert "horizon" in err
        assert out == ""

    def test_invalid_flag_value_exits_two(self, capsys):
        code, _, err = run_cli(capsys, ["simulate", "--noise", "pink:level=3", "--horizon", "0.01", "--tau", "0"])
        assert code == 2
        assert "error" in err


@pytest.mark.parametrize(
    "argv, stream",
    [(["validate"], 1), (["bounds"], 1), (["tune", "--steps", "3"], 1), (["contour", "--resolution", "5x5"], 2)],
    ids=["validate", "bounds", "tune", "contour"],
)
def test_stamp_adds_one_line_to_the_summary_stream(capsys, argv, stream):
    # The summary stream is stderr when the CSV is on stdout (contour), else stdout.
    plain = run_cli(capsys, argv)
    stamped = run_cli(capsys, argv + ["--stamp"])
    first, _, rest = stamped[stream].partition("\n")
    assert first.startswith("stamp=") and "stamp=" not in rest
    assert (rest, stamped[3 - stream], stamped[0]) == (plain[stream], plain[3 - stream], plain[0])


def test_flag_error_writes_no_csv(capsys, tmp_path):
    # The default --tau 0.5 lies beyond a 0.3 s horizon.
    path = tmp_path / "run.csv"
    code, out, err = run_cli(capsys, ["simulate", "--horizon", "0.3", "--out", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: tau=0.5")
    assert not path.exists()


def test_negative_quadratic_curvature_exits_two_and_writes_no_csv(capsys, tmp_path):
    # A negative L would flip the signal that `sign` sets.  L = 0 runs.
    path = tmp_path / "q.csv"
    argv = ["simulate", "--horizon", "0.01", "--tau", "0", "--out", str(path), "--signal"]
    code, out, err = run_cli(capsys, argv + ["quadratic:L=-1,sign=-1"])
    assert (code, out) == (2, "")
    assert err == "error: quadratic L must be nonnegative, got -1.0\n"
    assert not path.exists()
    code, out, _ = run_cli(capsys, argv + ["quadratic:L=0"])
    assert code == 0 and "L=0.0" in out and path.exists()


@pytest.mark.parametrize("target", ["missing_dir/x.csv", "."], ids=["missing-directory", "a-directory"])
def test_unwritable_out_exits_two(capsys, tmp_path, target):
    # Exit 1 stays reserved for verification failures.
    path = tmp_path / target
    code, out, err = run_cli(capsys, ["simulate", "--horizon", "0.01", "--tau", "0", "--noise", "none", "--out", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, lines_read",
    [(["contour", "--resolution", "400x400"], 1), (["contour", "--resolution", "2x2"], 0), (["validate"], 0)],
    ids=["csv-mid-write", "csv-before-write", "summary"],
)
def test_closed_stdout_exits_two_with_one_error_line(argv, lines_read):
    # The reader takes a line and closes the pipe while the CSV is still being
    # written, as `stwdiff contour ... | head -1` does, or closes it before the
    # CLI writes at all, so the output waits in stdout's buffer.  Stdout is
    # buffered, as it is by default, and the interpreter flushes it at exit.
    src = str(Path(stwdiff.__file__).resolve().parents[1])
    env = {key: val for key, val in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    with subprocess.Popen(
        [sys.executable, "-m", "stwdiff", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as proc:
        assert [proc.stdout.readline() for _ in range(lines_read)] == [b"x1,x2,V\n"] * lines_read
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 2
    assert err == "error: cannot write stdout: Broken pipe\n"


@pytest.mark.parametrize(
    "flag, spec", [("--signal", "quadratic:sing=1"), ("--noise", "switching:NN=5"), ("--noise", "none:N=5")]
)
def test_unknown_spec_key_exits_two(capsys, flag, spec):
    code, out, err = run_cli(capsys, ["simulate", "--horizon", "0.01", "--tau", "0", flag, spec])
    assert (code, out) == (2, "")
    assert "unknown" in err and "key" in err


@pytest.mark.parametrize(
    "signal, noise",
    [("quadratic:sign=1", "worstcase:tau=0.08,N=0.001"), ("worstcase:tau=1", "switching:c1=0.02,c2=0.001")],
)
def test_keys_a_worstcase_pair_would_drop_exit_two(capsys, signal, noise):
    argv = ["simulate", "--horizon", "0.01", "--tau", "0", "--signal", signal, "--noise", noise]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: a worstcase pair takes no ")


EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
SIM = "fa3e50b5f8916e19d9037c186beb01d5637d9c95b3372da2682f78f5c0c57276"
SIM_SUMMARY = "958cea956e8fa2833694e39b12c78aa5c6530295398c1a49988fc921d2288236"
VL = "10a6903a1348ab56aacecb1a59f4c63de043b5aa2af8814bfeba43051cc00cac"
VL_SUMMARY = "2bb4b147d46f3a23d091e096ad9e45fad5202c59cc62ed939ec3ffe9fe74ccf1"
CONTOUR = "2c6275d0ec396639abefe80f6dd0126378c12864cdcf60256fdec5069791ac67"
WC_SUMMARY = "5be4883ecafbe3167573f47c243687059abcbc1f5ac850055c62eace09319e57"


@pytest.mark.parametrize(
    "argv, code, out, err, csv",
    [
        (["validate"], 0, "a5783714b2def5e7f3261a5e633b3611ef955fcbde245cb4450209ccd0010280", EMPTY, None),
        (["bounds"], 0, "41409b4e217969f0bf029612c732ae44b07b0558cffec51dd94f48a43bdb9874", EMPTY, None),
        (["tune"], 0, "8b8369751b9acca24f52743f4df70734569975da64ceaeb57784eef85cbd9e96", EMPTY, None),
        (["simulate"], 0, SIM, SIM_SUMMARY, None),
        (["verify-lyapunov"], 0, VL, VL_SUMMARY, None),
        (["contour"], 0, CONTOUR, EMPTY, None),
        (["worst-case"], 0, WC_SUMMARY, EMPTY, None),
        (["simulate", "--out"], 0, SIM_SUMMARY, EMPTY, SIM),
        (["verify-lyapunov", "--out"], 0, VL_SUMMARY, EMPTY, VL),
        (["contour", "--out"], 0, EMPTY, EMPTY, CONTOUR),
        (["worst-case", "--out"], 0, WC_SUMMARY, EMPTY, "f2ea36f7b6f20403c643acc927aba35da7a53f73958901415fc5b5c25f998ed7"),
        (
            ["simulate", "--scheme", "explicit", "--out"],
            0,
            "16bc6fd85850d966727186b95ffcd104f0155c810830e77ae4a6e83df01fe8f0",
            EMPTY,
            "721f5be0030b2b842459f27b7dc9b8307aa53c10ebda0be2bfd15d033dc50b4d",
        ),
        (
            ["simulate", "--L", "2.7", "--scheme", "explicit", "--signal", "quadratic:sign=1", "--out"],
            0,
            "238d6b9f549b77f694e66df94e739fb5e1d0f3b8d9f119c46a691ff09986a037",
            EMPTY,
            "491c1e94767e3ef1f42594d80fabd897aeaadc398e133b6a5cc8318a4b936770",
        ),
        (
            ["simulate", "--noise", "none", "--out"],
            0,
            "989acf394d0e9a81d715c9af5044211a7ee48e4f9bc9a1cbc952148d8332bb17",
            EMPTY,
            "07c9532c8a022e5cb162c214bcfaa758f20280024e6b67495828dbeddc54a128",
        ),
        (
            ["simulate", "--noise", "constant:N=-0.02", "--out"],
            0,
            "3757322d1a3d98a28ed9987061b896fe4dfbf27f79a6b62736f8658b42fd08d3",
            EMPTY,
            "3d68d08a026359b7c3097a204651e03984deea9724e0153547c043dd0f0e9158",
        ),
        (
            ["simulate", "--noise", "worstcase:tau=1", "--out"],
            0,
            "ef112c0ac9b8197b4cd6de07c8962b5e82fe14aa88d7c19e38182541a6a2d42f",
            EMPTY,
            "071c8d7e2f575404430f7e35d0ff5be92ee5fcbdc715af5d90bd6c99ab7efec8",
        ),
        (
            ["simulate", "--signal", "worstcase:tau=0.5,lambda2=0.9", "--out"],
            0,
            "95ba786060fbacb811d5ecdb04e015e9437406ec38c26896d1348de9c6395cea",
            EMPTY,
            "a64f17b3c34657a82b3ada25ed544914af897d1bce4c0b77238542d8d6fbc9e9",
        ),
        (
            ["worst-case", "--N", "0", "--out"],
            0,
            "b939be504225adff27034f0bf64e647e313bf74e2dc51dad45a190e2d78b3b3d",
            EMPTY,
            "f401cd16ebfd86fad56634b29cd3e73ac44a88efc4c28d5a48de6f9379c0ba03",
        ),
        (
            ["worst-case", "--lambda2", "0.5", "--out"],
            0,
            "f66177b3afe0dddbfd5e89847f4627adee8379db7b6ca80940d4b9b38bbbda02",
            EMPTY,
            "f60df357726b2aa1d1b8f4aa614017471e93ac029a8e4b12f87125a00292d55a",
        ),
        (
            ["worst-case", "--scheme", "explicit", "--dt", "1e-4", "--tau", "2", "--out"],
            0,
            "875430e58d89859d672598b5ed5ded52b990c66791c30ab89022d80b5cec8c91",
            EMPTY,
            "d95d4acd484155e3eb85cdd1414fa353c9fe9b3eb551a3c462fd66b1c33bfe2b",
        ),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_default_output_bytes_are_pinned(capsys, tmp_path, argv, code, out, err, csv):
    # sha256 of stdout, stderr and the --out file for every subcommand at its
    # defaults, and for the non-default signal, noise and scheme runs that
    # sample a pair over the time grid: the summary goes to stderr exactly
    # when the CSV is on stdout.
    path = tmp_path / "out.csv"
    got = run_cli(capsys, argv + [str(path)] if csv else argv)
    digest = lambda text: hashlib.sha256(text.encode()).hexdigest()
    assert (got[0], digest(got[1]), digest(got[2])) == (code, out, err)
    assert (hashlib.sha256(path.read_bytes()).hexdigest() if csv else None) == csv
    assert path.exists() == bool(csv)


def test_python_dash_m_runs_the_cli():
    src = str(Path(stwdiff.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run(
        [sys.executable, "-m", "stwdiff", "validate"], env=env, capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr
    assert "condition: satisfied" in res.stdout
