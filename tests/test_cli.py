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
        assert "lambda1_interval=(4.09878030638384, 4.147575310031266)" in out

    def test_violated_gains_exit_one(self, capsys):
        code, out, _ = run_cli(capsys, ["validate", "--lambda1", "4.0"])
        assert code == 1
        assert "condition: violated" in out

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
        # With the reference gamma this mutant grid has 6650 violations; a NaN
        # must not turn that into a vacuous pass.
        base = ["verify-lyapunov", "--lambda2", "0.5", "--resolution", "100x100"]
        for extra in (["--gamma", "nan"], ["--gamma", "0.0012196936161602047", "--box=nan,3,-3,3"]):
            code, out, err = run_cli(capsys, base + extra)
            assert code == 2
            assert "must be finite" in err
            assert "violations=" not in out + err

    def test_condition_violation_without_gamma_exits_one(self, capsys):
        code, _, err = run_cli(capsys, ["verify-lyapunov", "--lambda2", "0.5", "--resolution", "10x10"])
        assert code == 1
        assert "gain condition" in err


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
        with pytest.raises(SystemExit) as exc:
            main(["contour", "--box", "1,2,3"])
        assert exc.value.code == 2
        for box in ("-inf,1,-1,1", "-1,1,-1,inf", "nan,1,-1,1"):
            code, out, err = run_cli(capsys, ["contour", f"--box={box}", "--resolution", "5x5"])
            assert code == 2
            assert "finite" in err
            assert out == ""


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

    def test_divergence_pair_below_lambda2_one(self, capsys):
        # lambda2 < 1 runs the divergence pair, which has no sliding
        # reference, so the tracking line is left out.
        code, out, err = run_cli(capsys, ["worst-case", "--lambda2", "0.5"])
        assert code == 0
        assert err == ""
        kv = parse_kv(out)
        assert list(kv) == ["theta", "achieved_error", "predicted_error", "ratio"]
        assert float(kv["achieved_error"]) > float(kv["predicted_error"])


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


def test_python_dash_m_runs_the_cli():
    src = str(Path(stwdiff.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run(
        [sys.executable, "-m", "stwdiff", "validate"], env=env, capture_output=True, text=True, timeout=120
    )
    assert res.returncode == 0, res.stderr
    assert "condition: satisfied" in res.stdout
